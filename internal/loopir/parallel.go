package loopir

// Parallel execution of scheduled loops (the paper's section 10
// extension, grown into a doacross engine). The scheduler guarantees
// which dependences a loop carries; the optimizer's planning pass (see
// plan.go) verifies the concrete distance vectors and attaches a
// ParSchedule; this file compiles those schedules to closures over the
// persistent worker pool (see pool.go). Each worker gets its own
// register frame from the Exec's frame pool — loop variables and
// scalars are thread-local, array storage and definedness bitmaps are
// shared.
//
// Every parallel executor reads the worker count from the frame at run
// time (Exec.SetWorkers / GOMAXPROCS), falls back to the sequential
// closure when only one worker is available, and reports the runtime
// error of the lowest iteration in the loop's sequential order, so a
// parallel run fails exactly like the sequential one would.

// workSaturated caps the work estimate: deeply nested loops with huge
// trip counts would overflow int64 under naive trip × body-cost
// multiplication, and an overflowed (negative) estimate would wrongly
// disqualify exactly the loops most worth parallelizing. Any estimate
// at the cap already clears every threshold, so precision beyond it is
// irrelevant.
const workSaturated = int64(1) << 50

func satAdd(a, b int64) int64 {
	if a > workSaturated-b {
		return workSaturated
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > workSaturated/b {
		return workSaturated
	}
	return a * b
}

// estimateWork statically estimates a statement list's cost in
// abstract operations: expression nodes count individually (an array
// access costs more than a scalar read), nested loops multiply by
// their trip counts. The estimate saturates at workSaturated instead
// of overflowing.
func estimateWork(stmts []Stmt) int64 {
	var total int64
	for _, s := range stmts {
		switch x := s.(type) {
		case *Loop:
			trip := tripCount(x.From, x.To, x.Step)
			total = satAdd(total, satAdd(1, satMul(trip, estimateWork(x.Body))))
		case *If:
			thenW := estimateWork(x.Then)
			elseW := estimateWork(x.Else)
			if elseW > thenW {
				thenW = elseW
			}
			total = satAdd(total, satAdd(1, thenW))
		case *Assign:
			total = satAdd(total, satAdd(2, vexprWork(x.Rhs)))
		case *SetScalar:
			total = satAdd(total, satAdd(1, vexprWork(x.Rhs)))
		default:
			total = satAdd(total, 1)
		}
	}
	return total
}

// vexprWork counts the operations of a value expression.
func vexprWork(e VExpr) int64 {
	switch x := e.(type) {
	case *ARef:
		return 2 // offset + load
	case *VFromInt:
		return 2
	case *VBin:
		return satAdd(1, satAdd(vexprWork(x.L), vexprWork(x.R)))
	case *VNeg:
		return satAdd(1, vexprWork(x.X))
	case *VCall:
		t := int64(4)
		for _, a := range x.Args {
			t = satAdd(t, vexprWork(a))
		}
		return t
	case *VCond:
		w := vexprWork(x.T)
		if e := vexprWork(x.E); e > w {
			w = e
		}
		return satAdd(2, w)
	}
	return 1
}

// tripSaturated is the trip-count cap: spans too wide for int64
// arithmetic clamp here instead of wrapping negative. A negative
// "trip" used to reach the cost model for loops like [−2^62 .. 2^62],
// where chooseTile would hand the tiled executors a zero (or negative)
// tile extent.
const tripSaturated = int64(1) << 62

func tripCount(from, to, step int64) int64 {
	if step == 0 {
		return 0
	}
	var span, mag uint64
	if step > 0 {
		if to < from {
			return 0
		}
		span = uint64(to) - uint64(from)
		mag = uint64(step)
	} else {
		if to > from {
			return 0
		}
		span = uint64(from) - uint64(to)
		mag = -uint64(step)
	}
	trips := span/mag + 1
	if trips >= uint64(tripSaturated) {
		return tripSaturated
	}
	return int64(trips)
}

// cInd is a compiled induction register: an entry-time base value and
// a constant per-iteration step. A range kernel starting at iteration
// t0 binds it to base + t0·step and then advances it in place, so a
// chunk, tile row or stream chunk needs no carry from the iterations
// before it.
type cInd struct {
	slot int
	init intFn
	step int64
}

// workersFor resolves the effective cohort size for this run: the
// frame's worker count (set from Options.Workers or GOMAXPROCS when the
// run started) capped by the schedulable parallelism.
func workersFor(f *frame, limit int64) int {
	w := f.workers
	if w < 1 {
		w = 1
	}
	if int64(w) > limit {
		w = int(limit)
	}
	return w
}

// recoverRank records a worker's runtime failure, ranked by rank, and
// swallows it; any other panic propagates. Deferred by every worker.
func recoverRank(perr *parError, rank func() int64) {
	if r := recover(); r != nil {
		ee, ok := r.(*ExecError)
		if !ok {
			panic(r)
		}
		perr.record(rank(), ee)
	}
}

// compileShardLoop splits a dependence-free loop's [0..trip) iteration
// space into one contiguous chunk per worker, each run by the loop's
// range kernel. seq is the sequential fallback used when the run has a
// single worker.
func (c *compiler) compileShardLoop(l *cLoop, seq stmtFn) stmtFn {
	fp := c.fp
	trip := l.trip
	return func(f *frame) {
		w := workersFor(f, trip)
		if w <= 1 {
			seq(f)
			return
		}
		chunk := (trip + int64(w) - 1) / int64(w)
		errs := make([]parError, w)
		runParallel(w, func(wi int) {
			lo := int64(wi) * chunk
			hi := min(lo+chunk, trip)
			if lo >= hi {
				return
			}
			wf := fp.get(f)
			defer fp.put(wf)
			// The rest of the chunk is skipped after a failure; its
			// iterations all follow the failing one, so that is the
			// chunk's first failure.
			defer recoverRank(&errs[wi], func() int64 { return l.rank(wf) })
			l.run(wf, lo, hi-lo)
		})
		raiseMin(errs)
	}
}

// compileMonoShardLoop shards a loop whose write subscript
// (Par.AlignOn, typically an indirect idx!(i) read) has been verified
// non-decreasing over the iteration space. Naive per-worker chunk
// boundaries are advanced to the next change of the subscript value, so
// a run of equal subscripts never straddles two chunks: each output
// element is written by exactly one worker, in sequential iteration
// order, and the parallel result is bitwise identical to the
// sequential left-to-right accumulation. Every worker computes the
// boundary adjustment with the same pure function, so adjacent workers
// agree on their shared boundary without communicating.
func (c *compiler) compileMonoShardLoop(x *Loop, l *cLoop, seq stmtFn) stmtFn {
	if x.Par.AlignOn == nil {
		return nil
	}
	align := c.compileInt(x.Par.AlignOn)
	fp := c.fp
	trip := l.trip
	return func(f *frame) {
		w := workersFor(f, trip)
		if w <= 1 {
			seq(f)
			return
		}
		chunk := (trip + int64(w) - 1) / int64(w)
		errs := make([]parError, w)
		runParallel(w, func(wi int) {
			wf := fp.get(f)
			defer fp.put(wf)
			// Probing binds the loop variable and registers at the probe
			// point, so a failing probe ranks there too.
			alignAt := func(p int64) int64 {
				l.bind(wf, p)
				return align(wf)
			}
			advance := func(p int64) int64 {
				for p > 0 && p < trip && alignAt(p) == alignAt(p-1) {
					p++
				}
				return p
			}
			defer recoverRank(&errs[wi], func() int64 { return l.rank(wf) })
			lo := advance(int64(wi) * chunk)
			hi := advance(min(int64(wi+1)*chunk, trip))
			if lo < hi {
				l.run(wf, lo, hi-lo)
			}
		})
		raiseMin(errs)
	}
}

// compileChainsLoop runs the g residue-class chains of a 1-D
// constant-distance recurrence concurrently: all carried distances are
// multiples of g, so iterations t and t' only depend on each other when
// t ≡ t' (mod g), and each chain is executed in order by one worker.
func (c *compiler) compileChainsLoop(l *cLoop, g int64, seq stmtFn) stmtFn {
	fp := c.fp
	return func(f *frame) {
		w := workersFor(f, g)
		if w <= 1 {
			seq(f)
			return
		}
		errs := make([]parError, w)
		runParallel(w, func(wi int) {
			wf := fp.get(f)
			defer fp.put(wf)
			for r := int64(wi); r < g; r += int64(w) {
				// A failure ends its chain (later links read the
				// failed element) but other chains are independent and
				// keep running, so the globally first failure is
				// always reached and recorded.
				func() {
					defer recoverRank(&errs[wi], func() int64 { return l.rank(wf) })
					for t := r; t < l.trip; t += g {
						l.run(wf, t, 1)
					}
				}()
			}
		})
		raiseMin(errs)
	}
}

// tiledNest is the compiled form of a 2-D nest scheduled as cache
// tiles: the outer loop, optional per-row prefix statements, and the
// inner loop whose range kernel runs each tile row. Both loops step by
// +1.
type tiledNest struct {
	fp     *framePool
	outer  *cLoop
	prefix []stmtFn
	inner  *cLoop
	tI, tJ int64
}

// runTile executes tile (bi,bj) on the worker frame wf: rows in order,
// the row prefix first when the tile is in column 0, then the row's
// inner chunk. Runtime failures are recorded (tagged with the
// iteration's rank in sequential order) and end the tile; later tiles
// of the same worker still run, which guarantees the globally first
// failure is reached regardless of tile-to-worker assignment.
func (tn *tiledNest) runTile(wf *frame, bi, bj int64, oBases []int64, perr *parError) {
	o, in := tn.outer, tn.inner
	iLo := bi * tn.tI
	iHi := min(iLo+tn.tI, o.trip)
	jLo := bj * tn.tJ
	jN := min(jLo+tn.tJ, in.trip) - jLo
	var i int64
	inPrefix := false
	// Rank iterations so a row's prefix sorts after the previous row's
	// last point and before the row's own points.
	defer recoverRank(perr, func() int64 {
		rank := i * (in.trip + 1)
		if !inPrefix {
			rank += 1 + in.rank(wf)
		}
		return rank
	})
	for i = iLo; i < iHi; i++ {
		wf.ints[o.slot] = o.from + i
		for r := range o.inds {
			wf.ints[o.inds[r].slot] = oBases[r] + i*o.inds[r].step
		}
		if bj == 0 && len(tn.prefix) > 0 {
			inPrefix = true
			runAll(tn.prefix, wf)
			inPrefix = false
		}
		in.run(wf, jLo, jN)
	}
}

// compileTiledNest compiles a ParTile or ParWavefront schedule. ParTile
// tiles are fully independent and distributed block-cyclically;
// ParWavefront walks tile anti-diagonals with a cohort barrier between
// diagonals, so every carried dependence (component-wise non-negative
// by the planner's legality check) crosses a completed diagonal.
// Returns nil when the nest shape is not the one the planner scheduled
// (defensive — the caller then falls back to sequential execution).
func (c *compiler) compileTiledNest(x *Loop, l *cLoop, seq stmtFn) stmtFn {
	if x.Step != 1 || len(x.Body) == 0 || l.body == nil {
		return nil
	}
	innerX, ok := x.Body[len(x.Body)-1].(*Loop)
	if !ok || innerX.Step != 1 {
		return nil
	}
	sched := x.Par
	if sched.TileI < 1 || sched.TileJ < 1 {
		return nil
	}
	tn := &tiledNest{
		fp:     c.fp,
		outer:  l,
		prefix: l.body[:len(l.body)-1],
		inner:  l.inner,
		tI:     sched.TileI,
		tJ:     sched.TileJ,
	}
	trip, iTrip := l.trip, tn.inner.trip
	nti := (trip + tn.tI - 1) / tn.tI
	ntj := (iTrip + tn.tJ - 1) / tn.tJ
	wavefront := sched.Kind == ParWavefront
	maxPar := nti * ntj
	if wavefront {
		maxPar = min(nti, ntj)
	}
	return func(f *frame) {
		w := workersFor(f, maxPar)
		if w <= 1 || trip == 0 || iTrip == 0 {
			seq(f)
			return
		}
		oBases := make([]int64, len(l.inds))
		for i := range l.inds {
			oBases[i] = l.inds[i].init(f)
		}
		errs := make([]parError, w)
		if wavefront {
			bar := newBarrier(w)
			runParallel(w, func(wi int) {
				wf := tn.fp.get(f)
				defer tn.fp.put(wf)
				for d := int64(0); d < nti+ntj-1; d++ {
					biLo := max(d-(ntj-1), 0)
					biHi := min(d, nti-1)
					for bi := biLo + int64(wi); bi <= biHi; bi += int64(w) {
						tn.runTile(wf, bi, d-bi, oBases, &errs[wi])
					}
					bar.await()
				}
			})
		} else {
			total := nti * ntj
			runParallel(w, func(wi int) {
				wf := tn.fp.get(f)
				defer tn.fp.put(wf)
				for tid := int64(wi); tid < total; tid += int64(w) {
					tn.runTile(wf, tid/ntj, tid%ntj, oBases, &errs[wi])
				}
			})
		}
		raiseMin(errs)
	}
}
