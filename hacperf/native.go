package main

import (
	"fmt"
	"os"
	"time"

	"arraycomp/internal/core"
	"arraycomp/internal/native"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// nativeWL runs the E19 trio (wavefront, SOR, Livermore 23) promoted to
// the native tier at compile time: one toolchain build per program,
// inside set-up.
type nativeWL struct {
	cfg     config
	opts    core.Options
	kernels []*kernel
	builds  int64     // toolchain builds of the last set-up
	buildS  []float64 // per-program build seconds of the last set-up
	calib   *memProbe
	last    []float64 // per-kernel CPU of the last sweep
}

// nativeWindow is the sweeps per calibration window, about half a
// second of work.
const nativeWindow = 12

// nativeProbeMs is the probe's CPU on the reference host (probe.go).
const nativeProbeMs = 20.0

func newNative(cfg config) workload {
	return &nativeWL{cfg: cfg, opts: core.Options{Parallel: true, Workers: cfg.nproc, Tier: core.TierForced}, calib: newMemProbe(4)}
}

// nativeSet is the trio at the kernels workload's mesh size.
func nativeSet(seed int64) []*kernel {
	sor := workloads.Mesh(meshN, seed*101+21)
	l23 := map[string]*runtime.Strict{}
	for i, name := range []string{"za", "zr", "zb", "zu", "zv"} {
		l23[name] = workloads.Mesh(meshN, seed*101+22+int64(i))
	}
	n := map[string]int64{"n": meshN}
	ks := []*kernel{
		{name: "native.wavefront", src: workloads.WavefrontSrc, params: n,
			hand: func() *runtime.Strict { return workloads.HandWavefront(meshN) }},
		{name: "native.sor", src: workloads.SORSrc, params: n, inputs: map[string]*runtime.Strict{"a": sor},
			hand: inPlace(sor, workloads.HandSOR)},
		{name: "native.liv23", src: workloads.Livermore23Src, params: n, inputs: l23,
			hand: inPlace(l23["za"], func(za *runtime.Strict) {
				workloads.HandLivermore23(za, l23["zr"], l23["zb"], l23["zu"], l23["zv"])
			})},
	}
	for _, k := range ks {
		k.want = k.hand()
	}
	return ks
}

// prepare makes the inputs and runs one untimed throwaway build, which
// fills the toolchain's standard-library build cache: users pay that
// once per host, not per program.
func (w *nativeWL) prepare() error {
	w.kernels = nativeSet(w.cfg.seed)
	p, err := core.Compile(workloads.SquaresSrc, map[string]int64{"n": 4}, w.opts)
	if err != nil {
		return err
	}
	if p.CurrentTier() != core.TierNative {
		return fmt.Errorf("native tier unavailable: %s", p.TierReport())
	}
	return nil
}

func (w *nativeWL) probe() { w.calib.run() }

func (w *nativeWL) probeRefMs() float64 { return nativeProbeMs }

// setup builds the trio natively; its inputs and references are the
// harness's, made once in prepare.
func (w *nativeWL) setup() error {
	b0 := native.Builds()
	w.buildS = nil
	for _, k := range w.kernels {
		p, err := k.compile(w.opts)
		if err != nil {
			return err
		}
		if p.CurrentTier() != core.TierNative {
			return fmt.Errorf("%s did not reach the native tier: %s", k.name, p.TierReport())
		}
		k.prog = p
		w.buildS = append(w.buildS, p.TierBuildTime().Seconds())
	}
	w.builds = native.Builds() - b0
	// Exec-mode modules are the only subprocesses that outlive a build.
	nativeLoadMode = "plugin"
	if len(descendants(os.Getpid())) > 0 {
		nativeLoadMode = "exec"
	}
	return nil
}

func (w *nativeWL) op(_ int, tr *tracer) (func() error, error) {
	w.last = make([]float64, len(w.kernels))
	return sweep(w.kernels, tr, w.last)
}

func (w *nativeWL) parts() []float64 { return w.last }

func (w *nativeWL) pass(d time.Duration, tr *tracer) (loopStats, error) {
	if tr != nil {
		// Exec-mode modules run in subprocesses.
		tr.clock = treeCPU
		defer func() { tr.clock = selfCPU }()
	}
	return drive(w, d, nativeWindow, nativeWindow, tr), nil
}

// pids includes exec-mode module subprocesses through the descendant
// walk of peakRSSMB.
func (w *nativeWL) pids() []int { return []int{os.Getpid()} }

func (w *nativeWL) close() {}

func (w *nativeWL) layers(r *result, st loopStats, tr *tracer) error {
	if st.firstErr != nil {
		r.note("native: first failure: %v", st.firstErr)
	}
	r.set("native.build_s", mean(w.buildS), "s", fmt.Sprintf("mean toolchain build per program, %d programs", len(w.buildS)))
	r.set("native.builds", float64(w.builds), "count", "toolchain builds per set-up")
	tot := tr.totals()
	for _, k := range w.kernels {
		lt := tot[k.name]
		r.set(k.name+".cpu_ms", ms(lt.cpu)/float64(lt.calls)*st.speed(), "ms", fmt.Sprintf("calibrated process-tree CPU per call, %d calls", lt.calls))
	}
	// native.vs_interp: the same programs with the native tier off.
	var base, interp []*core.Program
	for _, k := range w.kernels {
		o := w.opts
		o.Tier = core.TierOff
		p, err := k.compile(o)
		if err != nil {
			return err
		}
		base, interp = append(base, k.prog), append(interp, p)
	}
	nat, itp := compare(r, w.kernels, base, interp)
	r.set("native.vs_interp", itp.cpu/nat.cpu, "ratio", fmt.Sprintf("interpreted CPU %.2f ms / native %.2f ms", itp.cpu, nat.cpu))
	// native.vs_hand: the hand loops of internal/workloads.
	var hand float64
	for _, k := range w.kernels {
		var xs []float64
		for rep := 0; rep < ladderReps; rep++ {
			c0 := treeCPU()
			out := k.hand()
			xs = append(xs, ms(treeCPUEnd()-c0))
			if err := sameArray(out, k.want); err != nil {
				return fmt.Errorf("%s hand loop: %w", k.name, err)
			}
		}
		hand += median(xs)
	}
	r.set("native.vs_hand", nat.cpu/hand, "ratio", fmt.Sprintf("native CPU %.2f ms / hand %.2f ms", nat.cpu, hand))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
