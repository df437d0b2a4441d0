package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/idxprop"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// Kernel sizes. Every matrix is larger than a 4 MiB per-core L2
// (n = 1024 is 8 MiB), so the sweeps measure the executor against
// memory, not a cache-resident toy.
const (
	meshN   = 1024
	recurN  = 1 << 21
	spmvN   = 100_000
	spmvDeg = 8
	chainN  = 1 << 20
)

// kernel is one compiled program with its inputs and the independent
// hand-written reference output.
type kernel struct {
	name   string // span and metric name
	src    string
	params map[string]int64
	inputs map[string]*runtime.Strict
	// hand computes the output with the hand-written loops, under the
	// compiled program's contract (inputs updated in place are copied
	// first); want is its result.
	hand  func() *runtime.Strict
	want  *runtime.Strict
	extra core.Options // on top of the workload's options
	prog  *core.Program
}

// compile builds the kernel's program under opts plus its own extras.
func (k *kernel) compile(opts core.Options) (*core.Program, error) {
	o := opts
	o.Stream = o.Stream || k.extra.Stream
	o.InputBounds = map[string]analysis.ArrayBounds{}
	for name, a := range k.inputs {
		o.InputBounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
	}
	p, err := core.Compile(k.src, k.params, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.name, err)
	}
	return p, nil
}

// run calls the program and returns a check against the reference.
func (k *kernel) run(p *core.Program) (func() error, error) {
	out, err := p.Run(k.inputs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.name, err)
	}
	return func() error {
		if err := sameArray(out, k.want); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		return nil
	}, nil
}

// kernelSet builds the sweep: the §9 programs, the §3 wavefront, a long
// recurrence, CSR SpMV with valid rows and its row-shuffled twin (the
// idxprop verifier's pass and fallback), and the E23 10-stage chain
// with streaming on. Inputs derive from seed; references come from
// the hand-written loops in internal/workloads and chainHand.
func kernelSet(seed int64) []*kernel {
	jac := workloads.Mesh(meshN, seed*101+1)
	sor := workloads.Mesh(meshN, seed*101+2)
	l23 := map[string]*runtime.Strict{}
	for i, name := range []string{"za", "zr", "zb", "zu", "zv"} {
		l23[name] = workloads.Mesh(meshN, seed*101+3+int64(i))
	}
	csr := workloads.CSRInputs(spmvN, spmvDeg, seed*101+10)
	shuffled := workloads.ShuffleRows(csr, seed*101+11)
	x := workloads.Vector(chainN, seed*101+12)
	n := map[string]int64{"n": meshN}

	ks := []*kernel{
		{name: "loopir.jacobi", src: workloads.JacobiSrc, params: n, inputs: map[string]*runtime.Strict{"a": jac},
			hand: inPlace(jac, workloads.HandJacobi)},
		{name: "loopir.sor", src: workloads.SORSrc, params: n, inputs: map[string]*runtime.Strict{"a": sor},
			hand: inPlace(sor, workloads.HandSOR)},
		{name: "loopir.liv23", src: workloads.Livermore23Src, params: n, inputs: l23,
			hand: inPlace(l23["za"], func(za *runtime.Strict) {
				workloads.HandLivermore23(za, l23["zr"], l23["zb"], l23["zu"], l23["zv"])
			})},
		{name: "loopir.wavefront", src: workloads.WavefrontSrc, params: n,
			hand: func() *runtime.Strict { return workloads.HandWavefront(meshN) }},
		{name: "loopir.recurrence", src: workloads.RecurrenceSrc, params: map[string]int64{"n": recurN},
			hand: func() *runtime.Strict { return workloads.HandRecurrence(recurN) }},
		{name: "idxprop.spmv", src: workloads.SpMVSrc, params: csr.Params, inputs: csr.Inputs,
			hand: func() *runtime.Strict { return workloads.HandSpMV(csr) }},
		{name: "idxprop.spmv_fallback", src: workloads.SpMVSrc, params: shuffled.Params, inputs: shuffled.Inputs,
			hand: func() *runtime.Strict { return workloads.HandSpMV(shuffled) }},
		{name: "stream.chain", src: chainSrc(10), params: map[string]int64{"n": chainN},
			inputs: map[string]*runtime.Strict{"x": x}, extra: core.Options{Stream: true},
			hand: func() *runtime.Strict { return chainHand(x, 10) }},
	}
	for _, k := range ks {
		k.want = k.hand()
	}
	return ks
}

// inPlace wraps a hand-written in-place update under the compiled
// program's contract: the caller's array is copied, never updated.
func inPlace(a *runtime.Strict, step func(*runtime.Strict)) func() *runtime.Strict {
	return func() *runtime.Strict {
		c := a.Clone()
		step(c)
		return c
	}
}

// chainSrc is the E23 pipeline: s1 = x+1, then stages alternating a
// 3-point smooth, a carried d=1 recurrence and an elementwise map, each
// reading only constant-offset neighbours of the previous stage.
func chainSrc(stages int) string {
	var sb strings.Builder
	sb.WriteString("letrec* s1 = array (1,n) [ i := x!i + 1.0 | i <- [1..n] ]")
	prev := "s1"
	for k := 2; k <= stages; k++ {
		name := fmt.Sprintf("s%d", k)
		sb.WriteString(";\n  ")
		switch k % 3 {
		case 0:
			fmt.Fprintf(&sb, "%[1]s = array (1,n) ([ 1 := %[2]s!1 ] ++ [ i := (%[2]s!(i-1) + %[2]s!i + %[2]s!(i+1)) / 3.0 | i <- [2..n-1] ] ++ [ n := %[2]s!n ])", name, prev)
		case 1:
			fmt.Fprintf(&sb, "%[1]s = array (1,n) ([ 1 := %[2]s!1 ] ++ [ i := %[1]s!(i-1) * 0.75 + %[2]s!i * 0.25 | i <- [2..n] ])", name, prev)
		case 2:
			fmt.Fprintf(&sb, "%s = array (1,n) [ i := %s!i * 0.5 + 0.25 | i <- [1..n] ]", name, prev)
		}
		prev = name
	}
	fmt.Fprintf(&sb, "\nin %s", prev)
	return sb.String()
}

// chainHand computes chainSrc with plain loops, one array per stage.
func chainHand(x *runtime.Strict, stages int) *runtime.Strict {
	n := len(x.Data)
	prev := make([]float64, n)
	for i, v := range x.Data {
		prev[i] = v + 1
	}
	for k := 2; k <= stages; k++ {
		cur := make([]float64, n)
		switch k % 3 {
		case 0:
			cur[0], cur[n-1] = prev[0], prev[n-1]
			for i := 1; i < n-1; i++ {
				cur[i] = (prev[i-1] + prev[i] + prev[i+1]) / 3.0
			}
		case 1:
			cur[0] = prev[0]
			for i := 1; i < n; i++ {
				cur[i] = cur[i-1]*0.75 + prev[i]*0.25
			}
		case 2:
			for i := range cur {
				cur[i] = prev[i]*0.5 + 0.25
			}
		}
		prev = cur
	}
	out := runtime.NewStrict(x.B)
	copy(out.Data, prev)
	return out
}

// kernelsProbeMs is the probe's CPU on the reference host (probe.go).
const kernelsProbeMs = 50.0

type kernelsWL struct {
	cfg     config
	opts    core.Options
	kernels []*kernel
	calib   *memProbe
	last    []float64 // per-kernel CPU of the last sweep
}

func newKernels(cfg config) workload {
	return &kernelsWL{cfg: cfg, opts: core.Options{Parallel: true, Workers: cfg.nproc}, calib: newMemProbe(10)}
}

// setup compiles the sweep's programs: the system's own set-up work.
// The inputs and references are the harness's, made once in prepare.
func (w *kernelsWL) setup() error {
	for _, k := range w.kernels {
		p, err := k.compile(w.opts)
		if err != nil {
			return err
		}
		k.prog = p
	}
	if c := w.kernel("stream.chain"); !c.prog.StreamActive() {
		return fmt.Errorf("chain did not stream: %s", c.prog.StreamFallback())
	}
	return nil
}

// op is one sweep over every kernel in fixed order. Timing whole sweeps
// keeps the per-op median from jumping between kernels of different
// cost.
func (w *kernelsWL) op(_ int, tr *tracer) (func() error, error) {
	w.last = make([]float64, len(w.kernels))
	return sweep(w.kernels, tr, w.last)
}

func (w *kernelsWL) parts() []float64 { return w.last }

// sweep runs each kernel once, in a span named after it, records each
// call's process-tree CPU in parts, and returns the check of every
// output.
func sweep(ks []*kernel, tr *tracer, parts []float64) (func() error, error) {
	var checks []func() error
	for i, k := range ks {
		id := tr.begin(k.name)
		c0 := treeCPU()
		check, err := k.run(k.prog)
		parts[i] = ms(treeCPUEnd() - c0)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		checks = append(checks, check)
	}
	return func() error {
		for _, c := range checks {
			if err := c(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (w *kernelsWL) kernel(name string) *kernel {
	for _, k := range w.kernels {
		if k.name == name {
			return k
		}
	}
	panic("no kernel " + name)
}

func (w *kernelsWL) probe() { w.calib.run() }

func (w *kernelsWL) probeRefMs() float64 { return kernelsProbeMs }

func (w *kernelsWL) prepare() error {
	w.kernels = kernelSet(w.cfg.seed)
	return nil
}

func (w *kernelsWL) pass(d time.Duration, tr *tracer) (loopStats, error) {
	return drive(w, d, 3, 1, tr), nil
}

func (w *kernelsWL) pids() []int { return []int{os.Getpid()} }

func (w *kernelsWL) close() {}

func (w *kernelsWL) layers(r *result, st loopStats, tr *tracer) error {
	if st.firstErr != nil {
		r.note("kernels: first failure: %v", st.firstErr)
	}
	tot := tr.totals()
	for _, k := range w.kernels {
		lt := tot[k.name]
		r.set(k.name+".cpu_ms", ms(lt.cpu)/float64(lt.calls)*st.speed(), "ms", fmt.Sprintf("calibrated CPU per call, %d calls", lt.calls))
	}
	// The verifier's own cost, timed outside the sweeps: one pass over
	// the CSR row array with the claims SpMV's plan relies on.
	rows := w.kernel("idxprop.spmv").inputs["row"].Data
	claims := idxprop.Claims{
		{Array: "row", Kind: idxprop.KMonoNonDec},
		{Array: "row", Kind: idxprop.KRange, Lo: 1, Hi: spmvN},
	}
	var vt []float64
	for i := 0; i < 5; i++ {
		id := tr.begin("idxprop.verify")
		t0 := time.Now()
		v := idxprop.Verify(rows, claims)
		vt = append(vt, ms(time.Since(t0)))
		tr.end(id)
		if !v.OK {
			return fmt.Errorf("CSR rows failed verification: %s", v.Reason)
		}
	}
	r.set("idxprop.verify_ms", median(vt), "ms", fmt.Sprintf("median of %d Verify calls, nnz=%d", len(vt), len(rows)))
	var pass, fail int64
	for _, name := range []string{"idxprop.spmv", "idxprop.spmv_fallback"} {
		s := w.kernel(name).prog.IdxVerify.Snapshot()
		pass += s.Verified
		fail += s.Failed
	}
	r.set("idxprop.pass_share", float64(pass)/float64(pass+fail), "ratio", fmt.Sprintf("%d passed, %d failed", pass, fail))
	if rep := w.kernel("stream.chain").prog.StreamReport(); rep != nil {
		r.set("stream.peak_mb", float64(rep.PeakBytes)/(1<<20), "MB", "")
		r.set("stream.chunks", float64(rep.Chunks), "count", "per run")
	} else {
		r.set("stream.peak_mb", nan, "MB", "the chain never streamed")
		r.set("stream.chunks", nan, "count", "the chain never streamed")
	}
	return w.ladder(r)
}
