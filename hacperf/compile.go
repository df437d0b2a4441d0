package main

import (
	"fmt"
	"os"
	"time"

	"arraycomp/internal/analysis"
	"arraycomp/internal/core"
	"arraycomp/internal/gencomp"
	"arraycomp/internal/lang"
	"arraycomp/internal/metrics"
	"arraycomp/internal/oracle"
	"arraycomp/internal/parser"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// corpusSize is the number of generated programs next to the paper's
// worked programs. gencompIdxWeight makes about a third of them carry a
// subscripted-subscript pair, so the idxprop claims and their
// certification are part of the compile cost.
const (
	corpusSize       = 400
	gencompIdxWeight = 300
)

// corpusProg is one program of the compile corpus with the outcome the
// thunked reference evaluator gives on its inputs.
type corpusProg struct {
	name   string
	src    string
	params map[string]int64
	bounds map[string]analysis.ArrayBounds
	inputs map[string]*runtime.Strict
	ref    oracle.Outcome
}

// paperCorpus is the paper's worked programs at bench-scale parameters.
func paperCorpus(seed int64) []*corpusProg {
	mesh := func(name string, n int64, k int64) map[string]*runtime.Strict {
		return map[string]*runtime.Strict{name: workloads.Mesh(n, seed*101+30+k)}
	}
	l23 := map[string]*runtime.Strict{}
	for i, name := range []string{"za", "zr", "zb", "zu", "zv"} {
		l23[name] = workloads.Mesh(64, seed*101+40+int64(i))
	}
	sparse := func(c workloads.SparseCase) (map[string]int64, map[string]*runtime.Strict) { return c.Params, c.Inputs }
	spP, spI := sparse(workloads.CSRInputs(500, 4, seed*101+50))
	hiP, hiI := sparse(workloads.HistogramIdxInputs(2000, 64, seed*101+51, true))
	adP, adI := sparse(workloads.AdjInputs(500, 2000, seed*101+52))
	peP, peI := sparse(workloads.PermuteInputs(1000, seed*101+53))
	n := func(v int64) map[string]int64 { return map[string]int64{"n": v} }
	return []*corpusProg{
		{name: "squares", src: workloads.SquaresSrc, params: n(4096)},
		{name: "recurrence", src: workloads.RecurrenceSrc, params: n(4096)},
		{name: "wavefront", src: workloads.WavefrontSrc, params: n(64)},
		{name: "example1", src: workloads.Example1Src, params: n(1000)},
		{name: "example2", src: workloads.Example2Src, params: workloads.ParamsFor("example2", 32)},
		{name: "mixedpass", src: workloads.MixedPassSrc, params: n(1000)},
		{name: "cyclic", src: workloads.CyclicSrc, params: n(200)},
		{name: "rowswap", src: workloads.RowSwapSrc, params: workloads.ParamsFor("rowswap", 64), inputs: mesh("a", 64, 0)},
		{name: "jacobi", src: workloads.JacobiSrc, params: n(64), inputs: mesh("a", 64, 1)},
		{name: "sor", src: workloads.SORSrc, params: n(64), inputs: mesh("a", 64, 2)},
		{name: "livermore23", src: workloads.Livermore23Src, params: n(64), inputs: l23},
		{name: "scalerow", src: workloads.ScaleRowSrc, params: workloads.ParamsFor("scalerow", 64), inputs: mesh("a", 64, 3)},
		{name: "saxpy", src: workloads.SaxpyRowSrc, params: workloads.ParamsFor("saxpy", 64), inputs: mesh("a", 64, 4)},
		{name: "histogram", src: workloads.HistogramSrc, params: n(4096)},
		{name: "jacobi_monolithic", src: workloads.JacobiMonolithicSrc, params: n(64), inputs: mesh("b", 64, 5)},
		{name: "spmv", src: workloads.SpMVSrc, params: spP, inputs: spI},
		{name: "histogram_idx", src: workloads.HistogramIdxSrc, params: hiP, inputs: hiI},
		{name: "adjgather", src: workloads.AdjGatherSrc, params: adP, inputs: adI},
		{name: "permute", src: workloads.PermuteSrc, params: peP, inputs: peI},
	}
}

// genCorpus draws corpusSize programs from gencomp with the default
// error weight, so some programs are error-shaped and the expected
// outcome is an error.
func genCorpus(seed int64) []*corpusProg {
	var out []*corpusProg
	for i := 0; i < corpusSize; i++ {
		g := gencomp.Generate(uint64(seed)*1_000_003+uint64(i), gencomp.Config{IdxWeight: gencompIdxWeight})
		out = append(out, &corpusProg{
			name: fmt.Sprintf("gencomp/%d", g.Seed), src: g.Source, params: g.Params,
			bounds: g.Inputs, inputs: oracle.FillInputs(g),
		})
	}
	return out
}

// outcome compiles and runs one corpus program as the oracle does:
// compile errors and run errors are outcomes, not failures.
func (c *corpusProg) outcome(p *core.Program, compileErr error) oracle.Outcome {
	if compileErr != nil {
		return oracle.Outcome{Err: compileErr.Error(), CompileTime: true}
	}
	in := map[string]*runtime.Strict{}
	for k, v := range c.inputs {
		in[k] = v.Clone()
	}
	var res *runtime.Strict
	if err := guard(func() (err error) { res, err = p.Run(in); return err }); err != nil {
		return oracle.Outcome{Err: err.Error()}
	}
	return oracle.Outcome{Value: res}
}

// guard runs f, turning a panic into an error: the oracle treats a
// panic as an outcome like any other.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

func (c *corpusProg) options(base core.Options) core.Options {
	o := base
	o.InputBounds = map[string]analysis.ArrayBounds{}
	for name, b := range c.bounds {
		o.InputBounds[name] = b
	}
	for name, a := range c.inputs {
		o.InputBounds[name] = analysis.ArrayBounds{Lo: a.B.Lo, Hi: a.B.Hi}
	}
	return o
}

// reference fills c.ref from the thunked reference evaluator.
func (c *corpusProg) reference() {
	opts := c.options(core.Options{ForceThunked: true})
	var p *core.Program
	err := guard(func() (err error) { p, err = core.Compile(c.src, c.params, opts); return err })
	c.ref = c.outcome(p, err)
}

type compileWL struct {
	cfg    config
	opts   core.Options
	corpus []*corpusProg
	// counts totals the compile counters over the first pass through
	// the corpus.
	counts  metrics.Counters
	counted int
	calib   *computeProbe
}

func newCompile(cfg config) workload {
	return &compileWL{cfg: cfg, opts: core.Options{Certify: true, Parallel: true, Workers: cfg.nproc}, calib: newComputeProbe()}
}

func (w *compileWL) setup() error {
	w.corpus = append(paperCorpus(w.cfg.seed), genCorpus(w.cfg.seed)...)
	for _, c := range w.corpus {
		c.reference()
	}
	w.counts, w.counted = metrics.Counters{}, 0
	return nil
}

// phaseSpans names the span each CompileReport phase becomes.
var phaseSpans = []struct{ phase, span, metric string }{
	{metrics.PhaseAnalyze, "analysis", "analysis.ms_per_compile"},
	{metrics.PhasePlan, "schedule", "schedule.ms_per_compile"},
	{metrics.PhaseLower, "codegen", "codegen.ms_per_compile"},
	{metrics.PhaseOptimize, "loopir.opt", "loopir.opt_ms_per_compile"},
	{metrics.PhaseCertify, "certify", "certify.ms_per_compile"},
}

// op is one cold parse + compile; nothing is cached between ops.
func (w *compileWL) op(i int, tr *tracer) (func() error, error) {
	c := w.corpus[i%len(w.corpus)]
	opts := c.options(w.opts)
	var prog *core.Program
	var ast *lang.Program
	id := tr.begin("parser")
	err := guard(func() (err error) { ast, err = parser.ParseProgram(c.src); return err })
	tr.end(id)
	if err == nil {
		id = tr.begin("core")
		err = guard(func() (err error) { prog, err = core.CompileProgram(ast, c.params, opts); return err })
		tr.end(id)
		if prog != nil && tr != nil {
			names := make([]string, len(phaseSpans))
			durs := map[string]time.Duration{}
			for k, ps := range phaseSpans {
				names[k] = ps.span
				durs[ps.span] = prog.Stats.Phases[ps.phase]
			}
			tr.phases(id, names, durs)
		}
	}
	if i == w.counted && i < len(w.corpus) {
		w.counted++
		if prog != nil {
			addCounters(&w.counts, prog.Stats.Counters)
		}
	}
	return func() error {
		got := c.outcome(prog, err)
		if ok, detail := oracle.Agree(c.ref, got); !ok {
			return fmt.Errorf("%s: %s", c.name, detail)
		}
		return nil
	}, nil
}

func addCounters(dst *metrics.Counters, c metrics.Counters) {
	dst.CollisionChecksElided += c.CollisionChecksElided
	dst.EmptiesChecksElided += c.EmptiesChecksElided
	dst.ThunksAvoided += c.ThunksAvoided
	dst.ThunkedDefs += c.ThunkedDefs
	dst.LoopsFused += c.LoopsFused
	if dst.SchedulesByKind == nil {
		dst.SchedulesByKind = map[string]int{}
	}
	for k, v := range c.SchedulesByKind {
		dst.SchedulesByKind[k] += v
	}
	dst.ClaimsCertified += c.ClaimsCertified
	dst.ClaimsFalsified += c.ClaimsFalsified
	dst.ClaimsSkipped += c.ClaimsSkipped
	dst.IdxClaims += c.IdxClaims
	dst.IdxClaimsStatic += c.IdxClaimsStatic
}

// compileProbeMs is the probe's CPU on the reference host (probe.go).
const compileProbeMs = 1.0

func (w *compileWL) prepare() error { return nil }

func (w *compileWL) probe() { w.calib.run() }

func (w *compileWL) probeRefMs() float64 { return compileProbeMs }

func (w *compileWL) pass(d time.Duration, tr *tracer) (loopStats, error) {
	return drive(w, d, len(w.corpus), len(w.corpus), tr), nil
}

func (w *compileWL) pids() []int { return []int{os.Getpid()} }

func (w *compileWL) close() {}

func (w *compileWL) layers(r *result, st loopStats, tr *tracer) error {
	if st.firstErr != nil {
		r.note("compile: first failure: %v", st.firstErr)
	}
	tot := tr.totals()
	compiles := float64(tot["core"].calls)
	per := func(name string) float64 { return ms(tot[name].self) / compiles }
	r.set("parser.ms_per_compile", per("parser"), "ms", fmt.Sprintf("wall self time, %d compiles", int(compiles)))
	for _, ps := range phaseSpans {
		r.set(ps.metric, per(ps.span), "ms", "")
	}
	r.set("core.other_ms_per_compile", per("core"), "ms", "CompileProgram span minus its phases")
	r.note("analysis includes the certificate checks it runs inline, which certify counts too, so core.other reads low by that overlap")
	c := w.counts
	note := fmt.Sprintf("total over one pass of %d programs", w.counted)
	r.set("codegen.collision_checks_elided", float64(c.CollisionChecksElided), "count", note)
	r.set("codegen.empties_checks_elided", float64(c.EmptiesChecksElided), "count", note)
	r.set("core.thunkless_share", float64(c.ThunksAvoided)/float64(c.ThunksAvoided+c.ThunkedDefs), "ratio", note)
	r.set("loopir.loops_fused", float64(c.LoopsFused), "count", note)
	for _, k := range []string{"sequential", "shard", "tile", "wavefront", "chains"} {
		r.set("loopir.schedules."+k, float64(c.SchedulesByKind[k]), "count", note)
	}
	r.set("certify.claims", float64(c.ClaimsCertified), "count", note)
	r.set("certify.claims_skipped", float64(c.ClaimsSkipped), "count", note)
	r.set("idxprop.claims", float64(c.IdxClaims), "count", note)
	r.set("idxprop.claims_static", float64(c.IdxClaimsStatic), "count", note)
	return nil
}
