package loopir

import (
	"fmt"

	"arraycomp/internal/runtime"
)

// Stream stages: a stream-legal program (BuildStreamPlan) compiled by
// the same closure compiler as Compile, for chunk-by-chunk execution
// in a pipeline (internal/stream). Each top-level loop runs through its
// range kernel over the iterations whose write position falls in the
// chunk, so a stage stores exactly the values, in exactly the order,
// that the materialized program stores.
//
// Every array slot is compiled in one of two access modes, fixed here
// from the pipeline's shape and not selectable by callers:
//
//   - a materialized slot holds the whole array (a resident caller
//     input) and is read at its row-major offset, as in Compile;
//   - a window slot (the stage's own output, and every array that
//     arrives from an upstream stage) holds only a sliding window of
//     positions. It is read and written at the row-major offset minus
//     the window's slide, which the run updates once per chunk.

// Stage is one compiled stream stage. It is immutable and safe for
// concurrent runs; each run executes through its own StageRun.
type Stage struct {
	prog           *Program
	tops           []stageTop
	nInts, nFloats int
	slots          map[string]int
	window         []bool
}

// stageTop is one top-level statement of a stage: a scalar set that
// re-runs every chunk, a point assign that runs in the chunk holding
// its write position, or a loop whose range kernel runs over the
// iterations writing inside the chunk.
type stageTop struct {
	run  stmtFn // scalar set or point assign; nil for loops
	loop *cLoop
	// first..last is the loop variable's range (the write position of
	// a point assign); the write position is the variable plus cw.
	first, last, cw int64
	always          bool // a scalar set
}

// CompileStage compiles p, which BuildStreamPlan accepted with plan
// sp, as one stream stage. streamed reports the arrays p reads from an
// upstream stage; they and the output become window slots, every other
// array a materialized slot.
func CompileStage(p *Program, sp *StreamPlan, streamed func(name string) bool) (st *Stage, err error) {
	defer catchExec(&err)
	c := newCompiler(p)
	c.window = make([]bool, len(p.Arrays))
	for i, d := range p.Arrays {
		if d.B.Rank() != 1 {
			c.fail("array %s has rank %d; stages handle rank 1", d.Name, d.B.Rank())
		}
		c.window[i] = d.Name == sp.Out || streamed(d.Name)
	}
	st = &Stage{prog: p, slots: c.arraySlots, window: c.window}
	for _, s := range p.Stmts {
		switch x := s.(type) {
		case *SetScalar:
			st.tops = append(st.tops, stageTop{run: c.compileStmt(x), always: true})
		case *Loop:
			cw, n, err := (&streamChecker{out: sp.Out}).writeOffset(x.Body, x.Var)
			if err != nil || n == 0 || x.Step != 1 {
				c.fail("loop over %s is not a stream loop", x.Var)
			}
			st.tops = append(st.tops, stageTop{loop: c.compileLoop(x), first: x.From, last: x.To, cw: cw})
		case *Assign:
			w, ok := streamConstInt(x.Subs[0])
			if !ok {
				c.fail("top-level assign to %s has a non-constant subscript", x.Array)
			}
			st.tops = append(st.tops, stageTop{run: c.compileAssign(x), first: w, last: w})
		default:
			c.fail("top-level %T is not streamable", s)
		}
	}
	st.nInts, st.nFloats = len(c.intSlots), len(c.floatSlots)
	return st, nil
}

// StageRun is the execution state of one run of a stage: its register
// frame and the storage bound to each array slot.
type StageRun struct {
	st *Stage
	f  *frame
}

// NewRun returns fresh run state with no storage bound.
func (st *Stage) NewRun() *StageRun {
	n := len(st.prog.Arrays)
	return &StageRun{st: st, f: &frame{
		ints:    make([]int64, st.nInts),
		floats:  make([]float64, st.nFloats),
		arrays:  make([]*runtime.Strict, n),
		shift:   make([]int64, n),
		workers: 1,
	}}
}

// Bind attaches storage to the named array: data[k] holds the element
// at position base+k. A materialized slot takes the whole array; a
// window slot takes its window buffer, moved later with Slide. The
// returned slot identifies the array to Slide.
func (r *StageRun) Bind(name string, data []float64, base int64) (int, error) {
	slot, ok := r.st.slots[name]
	if !ok {
		return 0, fmt.Errorf("stage %s declares no array %s", r.st.prog.Name, name)
	}
	b := r.st.prog.Arrays[slot].B
	if !r.st.window[slot] && (base != b.Lo[0] || int64(len(data)) != b.Size()) {
		return 0, fmt.Errorf("stage %s: %s is materialized and needs the whole array", r.st.prog.Name, name)
	}
	r.f.arrays[slot] = &runtime.Strict{B: b}
	r.Slide(slot, data, base)
	return slot, nil
}

// Slide records that the window of a bound slot is now data, whose
// first element is position base.
func (r *StageRun) Slide(slot int, data []float64, base int64) {
	r.f.arrays[slot].Data = data
	r.f.shift[slot] = base - r.st.prog.Arrays[slot].B.Lo[0]
}

// Chunk runs the stage's top-level statements in program order,
// restricted to the write positions lo..hi.
func (r *StageRun) Chunk(lo, hi int64) (err error) {
	defer catchExec(&err)
	for _, t := range r.st.tops {
		if t.always {
			t.run(r.f)
			continue
		}
		a, b := max(t.first, lo-t.cw), min(t.last, hi-t.cw)
		switch {
		case a > b:
		case t.loop != nil:
			t.loop.run(r.f, a-t.first, b-a+1)
		default:
			t.run(r.f)
		}
	}
	return nil
}
