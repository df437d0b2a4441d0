// Package stream is the bounded-memory streaming execution engine:
// it runs a pipeline of stream-legal loop-IR programs (see
// loopir.BuildStreamPlan) as chunked producer/consumer stages
// connected by bounded channels, holding O(d)-sized sliding windows
// per array instead of materialized O(n) arrays.
//
// Execution model. The union of the pipeline's output ranges is cut
// into fixed chunks. Every stage walks the same chunk grid: for chunk
// c it first drains its input channels until each upstream window
// covers the chunk plus that edge's forward lookahead, then executes
// its loops restricted to the write positions inside the chunk, then
// hands its own window to every consumer (and the collector, for the
// result stage) as an immutable chunk. Windows slide by one chunk per
// step, retaining exactly the backward history the stream plan proved
// sufficient.
//
// Bitwise identity with the materialized path is by construction, not
// by tolerance: each stage is compiled by the loop-IR interpreter's own
// closure compiler (loopir.CompileStage), so every element is computed
// once (the compiler proved writes collision-free) by the very range
// kernel the materialized run uses, reading operands that the window
// invariants prove are the same values the materialized order would
// observe. The oracle's `stream` ablation arm cross-checks this
// bit-for-bit on generated programs.
//
// Memory accounting has two figures. BoundBytes is static: Build
// derives it from the window sizes, channel capacities and chunk size,
// so it is the same on every host and every run, and it is the figure
// to gate. PeakBytes is observed: an accountant charges every live
// buffer (resident inputs, each running stage's upstream windows,
// every own window a stage has made, whether in use, in flight or
// parked for reuse, and the materialized result when collecting) and
// records the high-water mark, which depends on how the stages'
// goroutines interleave but never exceeds BoundBytes.
package stream

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
)

// DefaultChunkSize is the chunk grid pitch when the caller does not
// set one. It is raised automatically to the pipeline's max window
// distance so one chunk of lookahead always suffices.
const DefaultChunkSize = 4096

// defaultChanDepth is the bounded-channel capacity beyond the
// lookahead chunks a consumer holds unconsumed — the producer may run
// at most this many chunks ahead before blocking (back-pressure).
const defaultChanDepth = 2

// Def is one pipeline stage: a compiled definition with its stream
// plan. Name is the definition's array name — the name consumers
// declare as RoleIn when they read it.
type Def struct {
	Name string
	Prog *loopir.Program
	Plan *loopir.StreamPlan
}

// Config tunes pipeline construction.
type Config struct {
	// ChunkSize is the chunk grid pitch (0 = DefaultChunkSize). It is
	// raised to the pipeline's max window distance when smaller.
	ChunkSize int64
	// ChanDepth is the per-edge channel capacity beyond the lookahead
	// requirement (0 = defaultChanDepth).
	ChanDepth int
	// Workers bounds how many stages compute a chunk at once; 0 means
	// GOMAXPROCS, read when each run starts.
	Workers int
}

// Report is the outcome accounting of one pipeline run.
type Report struct {
	// PeakBytes is the observed high-water mark of live streaming
	// memory: resident inputs + upstream windows + the own windows the
	// stages made, in use, in flight or parked for reuse (+ the
	// materialized result when collecting). It varies with goroutine
	// interleaving.
	PeakBytes int64
	// BoundBytes is the static bound on PeakBytes, computed by Build
	// from window sizes, channel capacities and the chunk size (+ the
	// materialized result when collecting).
	BoundBytes int64
	// MaterializedBytes is what the interpreted pipeline would hold
	// live at its peak: every input plus every definition's output.
	MaterializedBytes int64
	// Chunks is the number of grid chunks each stage walked.
	Chunks int64
	// ChunkSize is the grid pitch used.
	ChunkSize int64
	// Stages is the stage count.
	Stages int
	// MaxDist is the largest window distance in the pipeline.
	MaxDist int64
	// Workers is the run's worker budget, and PeakComputing the
	// observed high-water mark of stages computing a chunk at once
	// (never above Workers).
	Workers, PeakComputing int
}

// Pipeline is a compiled streaming pipeline: per-stage compiled
// programs plus the edge topology. It is immutable after Build and
// safe for concurrent Runs.
type Pipeline struct {
	defs   []Def
	stages []*loopir.Stage
	result int // index of the result stage
	chunk  int64
	depth  int
	// workers is Config.Workers: 0 resolves to GOMAXPROCS per run.
	workers int
	nCh     int64 // grid chunk count
	gridLo  int64
	// edges[i] lists stage i's upstream edges.
	edges [][]edgeSpec
	// consumers[i] counts stage i's downstream readers (excluding the
	// collector).
	consumers []int
	// resident[i] lists the external inputs stage i holds whole.
	resident [][]string
	// residentNames is the deduplicated external input set with the
	// bounds each must have.
	residentNames map[string]runtime.Bounds
	maxDist       int64
	matBytes      int64 // materialized-path live bytes (inputs + outputs)
	boundBytes    int64 // static bound on live bytes, result excluded
	// outCap[i] is the largest capacity of stage i's out channels.
	outCap []int64
}

// edgeSpec is the Build-time description of one producer→consumer
// window.
type edgeSpec struct {
	from   int    // producer stage
	array  string // the producer's output, as the consumer names it
	back   int64
	fwd    int64
	kAhead int64 // lookahead chunks: ceil(fwd/chunk)
	srcLo  int64
}

// direct reports an edge whose reads never leave the chunk being
// written: no history, no lookahead. Its window is simply the
// producer's immutable chunk, read in place rather than copied.
func (es edgeSpec) direct() bool { return es.back == 0 && es.kAhead == 0 }

// Build compiles a pipeline from definitions in evaluation order.
// Every read of an earlier definition's output must be windowable
// (constant offsets); reads of external arrays are held resident.
func Build(defs []Def, result string, cfg Config) (*Pipeline, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("stream: empty pipeline")
	}
	p := &Pipeline{
		defs:          defs,
		chunk:         cfg.ChunkSize,
		depth:         cfg.ChanDepth,
		workers:       cfg.Workers,
		result:        -1,
		residentNames: map[string]runtime.Bounds{},
	}
	if p.chunk <= 0 {
		p.chunk = DefaultChunkSize
	}
	if p.depth <= 0 {
		p.depth = defaultChanDepth
	}
	prodIdx := map[string]int{}
	for i, d := range defs {
		if d.Prog == nil || d.Plan == nil {
			return nil, fmt.Errorf("stream: stage %s has no plan", d.Name)
		}
		if d.Plan.Out != d.Name {
			return nil, fmt.Errorf("stream: stage %s writes %s; stages must write their own name", d.Name, d.Plan.Out)
		}
		if _, dup := prodIdx[d.Name]; dup {
			return nil, fmt.Errorf("stream: duplicate stage %s", d.Name)
		}
		prodIdx[d.Name] = i
		if d.Name == result {
			p.result = i
		}
		if d.Plan.MaxDist > p.maxDist {
			p.maxDist = d.Plan.MaxDist
		}
	}
	if p.result < 0 {
		return nil, fmt.Errorf("stream: result %s is not a stage", result)
	}
	if p.chunk < p.maxDist {
		p.chunk = p.maxDist
	}
	// Grid and per-stage topology.
	gridLo, gridHi := defs[0].Plan.Lo, defs[0].Plan.Hi
	p.edges = make([][]edgeSpec, len(defs))
	p.consumers = make([]int, len(defs))
	p.resident = make([][]string, len(defs))
	p.stages = make([]*loopir.Stage, len(defs))
	for i, d := range defs {
		if d.Plan.Lo < gridLo {
			gridLo = d.Plan.Lo
		}
		if d.Plan.Hi > gridHi {
			gridHi = d.Plan.Hi
		}
		for _, w := range d.Plan.Reads {
			src, produced := prodIdx[w.Array]
			if !produced {
				decl := d.Prog.Decl(w.Array)
				if decl == nil {
					return nil, fmt.Errorf("stream: stage %s reads undeclared %s", d.Name, w.Array)
				}
				if have, seen := p.residentNames[w.Array]; seen && !have.Equal(decl.B) {
					return nil, fmt.Errorf("stream: input %s declared with two different bounds", w.Array)
				}
				p.residentNames[w.Array] = decl.B
				p.resident[i] = append(p.resident[i], w.Array)
				continue
			}
			if src >= i {
				return nil, fmt.Errorf("stream: stage %s reads %s out of evaluation order", d.Name, w.Array)
			}
			if !w.Windowable {
				return nil, fmt.Errorf("stream: stage %s needs %s resident, but it is a pipeline stage output", d.Name, w.Array)
			}
			sp := defs[src].Plan
			decl := d.Prog.Decl(w.Array)
			if decl == nil || decl.B.Rank() != 1 || decl.B.Lo[0] != sp.Lo || decl.B.Hi[0] != sp.Hi {
				return nil, fmt.Errorf("stream: stage %s declares %s with bounds differing from its producer", d.Name, w.Array)
			}
			kAhead := (w.Fwd + p.chunk - 1) / p.chunk
			p.edges[i] = append(p.edges[i], edgeSpec{from: src, array: w.Array, back: w.Back, fwd: w.Fwd, kAhead: kAhead, srcLo: sp.Lo})
			p.consumers[src]++
		}
		// Window slots are exactly the reads fed by an upstream edge.
		st, err := loopir.CompileStage(d.Prog, d.Plan, func(name string) bool {
			_, produced := prodIdx[name]
			return produced
		})
		if err != nil {
			return nil, fmt.Errorf("stream: stage %s: %w", d.Name, err)
		}
		p.stages[i] = st
	}
	p.gridLo = gridLo
	p.nCh = (gridHi-gridLo)/p.chunk + 1
	// Materialized-path live bytes: every external input plus every
	// definition's output stays in the interpreter's store for the
	// whole run.
	for _, b := range p.residentNames {
		p.matBytes += b.Size() * 8
	}
	for _, d := range defs {
		p.matBytes += (d.Plan.Hi - d.Plan.Lo + 1) * 8
	}
	p.outCap = make([]int64, len(defs))
	p.outCap[p.result] = int64(p.depth) // the collector's channel
	for i := range defs {
		for _, es := range p.edges[i] {
			p.outCap[es.from] = max(p.outCap[es.from], int64(p.depth)+es.kAhead)
		}
	}
	p.boundBytes = p.bound()
	return p, nil
}

// bound is the static bound on live bytes during a run, the collected
// result excluded: resident inputs, every stage's windows, and the
// chunks in flight or parked for reuse. A producer's unreleased chunks
// all lie between the oldest one some receiver has not released and
// the one it is sending now. Each receiver holds at most its channel's
// capacity queued, one being read and, while the producer is still
// sending, the current one, so a producer never has more than its
// largest out-channel capacity plus two chunks live, and it makes no
// more windows than that (runStage). A chunk is the producer's own
// window: C elements plus its self-read history.
func (p *Pipeline) bound() int64 {
	var b int64
	for _, rb := range p.residentNames {
		b += rb.Size() * 8
	}
	for i, d := range p.defs {
		own := (d.Plan.SelfBack + p.chunk) * 8
		b += own + p.edgeBytes(i)
		if i == p.result || p.consumers[i] > 0 {
			b += (p.outCap[i] + 2) * own
		}
	}
	return b
}

// edgeBytes is the size of stage i's upstream windows: each buffered
// edge's history, chunk and lookahead.
func (p *Pipeline) edgeBytes(i int) int64 {
	var n int64
	for _, es := range p.edges[i] {
		if !es.direct() {
			n += es.back + p.chunk + es.kAhead*p.chunk
		}
	}
	return n * 8
}

// ChunkSize reports the grid pitch the pipeline will run with.
func (p *Pipeline) ChunkSize() int64 { return p.chunk }

// MaxDist reports the pipeline's largest window distance.
func (p *Pipeline) MaxDist() int64 { return p.maxDist }

// Stages reports the stage count.
func (p *Pipeline) Stages() int { return len(p.defs) }

// MaterializedBytes reports the materialized path's live footprint.
func (p *Pipeline) MaterializedBytes() int64 { return p.matBytes }

// ResultBounds returns the rank-1 bounds of the streamed result.
func (p *Pipeline) ResultBounds() (lo, hi int64) {
	plan := p.defs[p.result].Plan
	return plan.Lo, plan.Hi
}

// Run executes the pipeline and materializes the result array.
func (p *Pipeline) Run(inputs map[string]*runtime.Strict) (*runtime.Strict, Report, error) {
	return p.run(inputs, nil, true)
}

// RunEmit executes the pipeline, delivering each non-empty result
// chunk to emit in position order without materializing the result.
// The data slice is only valid during the callback. A non-nil error
// from emit aborts the run.
func (p *Pipeline) RunEmit(inputs map[string]*runtime.Strict, emit func(lo int64, data []float64) error) (Report, error) {
	_, rep, err := p.run(inputs, emit, false)
	return rep, err
}

// --- run state ---

// accountant is the deterministic live-byte meter.
type accountant struct {
	cur, peak atomic.Int64
}

func (a *accountant) charge(b int64) {
	c := a.cur.Add(b)
	for {
		pk := a.peak.Load()
		if c <= pk || a.peak.CompareAndSwap(pk, c) {
			return
		}
	}
}

func (a *accountant) release(b int64) { a.cur.Add(-b) }

// gate bounds how many stages compute a chunk at once. A stage holds a
// token only while it runs a chunk's loops, never across a channel
// send or receive, so back-pressure cannot deadlock on the gate: every
// holder finishes its chunk and returns the token.
type gate struct {
	tokens     chan struct{}
	busy, peak atomic.Int64
}

func newGate(workers int) *gate { return &gate{tokens: make(chan struct{}, workers)} }

func (g *gate) enter() {
	g.tokens <- struct{}{}
	b := g.busy.Add(1)
	for {
		pk := g.peak.Load()
		if b <= pk || g.peak.CompareAndSwap(pk, b) {
			return
		}
	}
}

func (g *gate) exit() {
	g.busy.Add(-1)
	<-g.tokens
}

// chunkMsg is one emitted chunk: a read-only view of the producer's
// window over [start, start+len(data)), refcounted across receivers.
type chunkMsg struct {
	idx   int64
	start int64
	data  []float64
	refs  atomic.Int32
	// buf is the producer's whole window behind data; the last release
	// returns it to the producer's free list.
	buf  []float64
	free chan []float64
}

func (m *chunkMsg) release() {
	if m.refs.Add(-1) == 0 && m.buf != nil {
		m.free <- m.buf
	}
}

// runEdge is the per-run state of one upstream window.
type runEdge struct {
	spec    edgeSpec
	ch      chan *chunkMsg
	buf     []float64 // nil for a direct edge
	base    int64     // absolute position of buf[0]
	slot    int       // the consumer stage's handle for the window
	recvIdx int64     // last integrated chunk index
	held    *chunkMsg // a direct edge's chunk, released after the chunk runs
}

// run drives one execution. collect materializes the result; emit, if
// non-nil, receives result chunks in order.
func (p *Pipeline) run(inputs map[string]*runtime.Strict, emit func(int64, []float64) error, collect bool) (*runtime.Strict, Report, error) {
	acct := &accountant{}
	workers := p.workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	g := newGate(workers)
	rep := Report{
		Workers:           workers,
		BoundBytes:        p.boundBytes,
		MaterializedBytes: p.matBytes,
		Chunks:            p.nCh,
		ChunkSize:         p.chunk,
		Stages:            len(p.defs),
		MaxDist:           p.maxDist,
	}
	// Validate and charge resident inputs.
	for name, b := range p.residentNames {
		in, ok := inputs[name]
		if !ok {
			return nil, rep, fmt.Errorf("stream: missing input array %q", name)
		}
		if !in.B.Equal(b) {
			return nil, rep, fmt.Errorf("stream: input %s has bounds %v..%v, want %v..%v", name, in.B.Lo, in.B.Hi, b.Lo, b.Hi)
		}
		acct.charge(b.Size() * 8)
	}
	// Abort plumbing: first error wins, every blocked send/recv
	// unblocks on the closed channel.
	var abortOnce sync.Once
	abortCh := make(chan struct{})
	var abortErr error
	abort := func(err error) {
		abortOnce.Do(func() {
			abortErr = err
			close(abortCh)
		})
	}
	// Wire the edges: one channel per producer→consumer pair, plus the
	// collector channel off the result stage.
	chans := make([][]*runEdge, len(p.defs)) // consumer-side
	outs := make([][]chan *chunkMsg, len(p.defs))
	for i := range p.defs {
		for _, es := range p.edges[i] {
			e := &runEdge{
				spec:    es,
				ch:      make(chan *chunkMsg, int64(p.depth)+es.kAhead),
				recvIdx: -1,
			}
			if !es.direct() {
				e.buf = make([]float64, es.back+p.chunk+es.kAhead*p.chunk)
			}
			chans[i] = append(chans[i], e)
			outs[es.from] = append(outs[es.from], e.ch)
		}
	}
	collectCh := make(chan *chunkMsg, p.depth)
	outs[p.result] = append(outs[p.result], collectCh)

	var wg sync.WaitGroup
	for i := range p.defs {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			if err := p.runStage(si, inputs, chans[si], outs[si], acct, g, abortCh); err != nil {
				abort(err)
			}
		}(i)
	}
	// Collector: drain the result stage in chunk order.
	var out *runtime.Strict
	resPlan := p.defs[p.result].Plan
	if collect {
		out = runtime.NewStrict(runtime.NewBounds1(resPlan.Lo, resPlan.Hi))
		acct.charge(out.B.Size() * 8)
		rep.BoundBytes += out.B.Size() * 8
	}
	var collectErr error
collector:
	for got := int64(0); got < p.nCh; got++ {
		select {
		case m := <-collectCh:
			if len(m.data) > 0 {
				if emit != nil && collectErr == nil {
					if err := emit(m.start, m.data); err != nil {
						collectErr = err
						abort(fmt.Errorf("stream: emit: %w", err))
					}
				}
				if collect {
					copy(out.Data[m.start-resPlan.Lo:], m.data)
				}
			}
			m.release()
		case <-abortCh:
			break collector
		}
	}
	wg.Wait()
	rep.PeakBytes = acct.peak.Load()
	rep.PeakComputing = int(g.peak.Load())
	if abortErr != nil {
		return nil, rep, abortErr
	}
	return out, rep, nil
}

// runStage walks the chunk grid for one stage.
func (p *Pipeline) runStage(si int, inputs map[string]*runtime.Strict, edges []*runEdge, outs []chan *chunkMsg, acct *accountant, g *gate, abortCh <-chan struct{}) error {
	plan := p.defs[si].Plan
	C := p.chunk
	// Own output window: [clo-SelfBack, chi], zero-initialized like a
	// fresh materialized output.
	ownBuf := make([]float64, plan.SelfBack+C)
	ownBase := p.gridLo - plan.SelfBack
	// The upstream windows are live while the stage runs. Own windows
	// are charged when made and stay charged until the run ends, since
	// they outlive the stage in flight or parked.
	ownBytes, edgeBytes := int64(len(ownBuf))*8, p.edgeBytes(si)
	acct.charge(ownBytes + edgeBytes)
	defer acct.release(edgeBytes)
	// Bind every array the stage reads or writes: its own window, the
	// resident inputs whole, and each upstream window.
	run := p.stages[si].NewRun()
	own, err := run.Bind(plan.Out, ownBuf, ownBase)
	if err != nil {
		return err
	}
	for _, name := range p.resident[si] {
		in := inputs[name]
		if _, err := run.Bind(name, in.Data, in.B.Lo[0]); err != nil {
			return err
		}
	}
	for _, e := range edges {
		e.base = p.gridLo - e.spec.back
		if e.slot, err = run.Bind(e.spec.array, e.buf, e.base); err != nil {
			return err
		}
	}

	handedOff := false // ownBuf went downstream as the last chunk's message
	// Released windows come back on free for reuse. Besides its own, a
	// producer makes at most outCap+2 windows (the bound's in-flight
	// term). Once a chunk is sent at most outCap+1 are unreleased, so
	// when all have been made a release is always coming, and the stage
	// waits for it. free can hold every window the stage makes, so a
	// release never blocks.
	spare := p.outCap[si] + 2
	free := make(chan []float64, spare+1)
	for ci := int64(0); ci < p.nCh; ci++ {
		clo := p.gridLo + ci*C
		chi := clo + C - 1
		if ci > 0 {
			// Slide: retain the backward history in a zeroed own window
			// (fresh-array semantics). A window that went downstream
			// belongs to its receivers now, so the stage continues in a
			// released one, or a new one while none is free. The released
			// window may be ownBuf itself, so the history is copied (an
			// overlap-safe move) before anything is cleared.
			nb := ownBuf
			if handedOff {
				if spare > 0 && len(free) == 0 {
					spare--
					nb = make([]float64, len(ownBuf))
					acct.charge(ownBytes)
				} else {
					select {
					case nb = <-free:
					case <-abortCh:
						return nil
					}
				}
			}
			copy(nb[:plan.SelfBack], ownBuf[C:])
			clear(nb[plan.SelfBack:])
			ownBuf = nb
			ownBase += C
			run.Slide(own, ownBuf, ownBase)
			for _, e := range edges {
				if e.buf != nil {
					copy(e.buf[:int64(len(e.buf))-C], e.buf[C:])
					e.base += C
					run.Slide(e.slot, e.buf, e.base)
				}
			}
		}
		// Drain upstream until every window covers this chunk's reads
		// plus lookahead.
		for _, e := range edges {
			need := ci + e.spec.kAhead
			if need > p.nCh-1 {
				need = p.nCh - 1
			}
			for e.recvIdx < need {
				select {
				case m := <-e.ch:
					if e.buf == nil {
						e.held, e.recvIdx = m, m.idx
						run.Slide(e.slot, m.data, m.start)
						continue
					}
					if len(m.data) > 0 {
						dst := m.start - e.base
						if dst < 0 || dst+int64(len(m.data)) > int64(len(e.buf)) {
							m.release()
							return fmt.Errorf("stream: stage %s: chunk %d from %s outside window", p.defs[si].Name, m.idx, p.defs[e.spec.from].Name)
						}
						copy(e.buf[dst:], m.data)
					}
					e.recvIdx = m.idx
					m.release()
				case <-abortCh:
					return nil
				}
			}
		}
		// Execute the chunk: top-level statements in program order,
		// loops clamped to write positions inside [clo, chi].
		g.enter()
		err := run.Chunk(clo, chi)
		g.exit()
		if err != nil {
			return fmt.Errorf("stream: stage %s: %w", p.defs[si].Name, err)
		}
		for _, e := range edges {
			if e.held != nil {
				e.held.release()
				e.held = nil
			}
		}
		// Emit the chunk: the own window itself goes downstream and
		// stays untouched until its last receiver releases it, so the
		// message needs no copy. It keeps the window's history alive
		// too, and is charged for it.
		s, e := max(clo, plan.Lo), min(chi, plan.Hi)
		handedOff = s <= e && len(outs) > 0
		if len(outs) == 0 {
			continue
		}
		m := &chunkMsg{idx: ci, start: s, free: free}
		if handedOff {
			m.data, m.buf = ownBuf[s-ownBase:e-ownBase+1], ownBuf
		}
		m.refs.Store(int32(len(outs)))
		for _, ch := range outs {
			select {
			case ch <- m:
			case <-abortCh:
				return nil
			}
		}
	}
	return nil
}
