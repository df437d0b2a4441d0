package loopir

import (
	"strings"
	"sync"
	"testing"

	"arraycomp/internal/runtime"
)

// Tests for the worker-pool executors. GOMAXPROCS may be 1 in CI, so
// every test forces a multi-worker cohort with SetWorkers — the
// goroutine interleaving (and the race detector) still exercises the
// synchronization even on one CPU.

// stencil2D builds an n×n in-place nest a[i,j] = f(neighbours) with the
// given subscript offsets read on the rhs. Offsets are (di,dj) pairs
// relative to (i,j).
func stencil2D(n int64, doacross bool, reads [][2]int64) *Program {
	rhs := VExpr(&VConst{Value: 1})
	for _, r := range reads {
		ref := &ARef{Array: "a", Subs: []IntExpr{
			lin(r[0], term("i", 1)), lin(r[1], term("j", 1)),
		}}
		rhs = &VBin{Op: '+', L: rhs, R: ref}
	}
	return &Program{
		Name:   "stencil",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Doacross: doacross, Body: []Stmt{
				&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs:   &VBin{Op: '*', L: &VConst{Value: 0.5}, R: rhs},
					},
				}},
			}},
		},
	}
}

func seededMatrix(n int64) *runtime.Strict {
	m := runtime.NewStrict(runtime.NewBounds2(1, 1, n, n))
	for i := range m.Data {
		m.Data[i] = float64(i%17) * 0.25
	}
	return m
}

// ref2 reads array at (i+di, j+dj).
func ref2(array string, di, dj int64) *ARef {
	return &ARef{Array: array, Subs: []IntExpr{lin(di, term("i", 1)), lin(dj, term("j", 1))}}
}

// innerKernelSpecialized reports whether the inner loop of p's first
// nest compiles to a specialized range kernel (stencil row or copy)
// rather than the generic closure loop — the kernel the tile and
// wavefront workers then run on every tile row.
func innerKernelSpecialized(t *testing.T, p *Program) bool {
	t.Helper()
	inner := p.Stmts[0].(*Loop).Body[0].(*Loop)
	var l *cLoop
	var err error
	func() {
		defer catchExec(&err)
		l = newCompiler(p).compileLoop(inner)
	}()
	if err != nil {
		t.Fatal(err)
	}
	return l.body == nil
}

// runWorkers compiles (optionally optimizing) and runs with a fixed
// worker count.
func runWorkers(t *testing.T, p *Program, optimize bool, workers int, inputs map[string]*runtime.Strict) *runtime.Strict {
	t.Helper()
	if optimize {
		Optimize(p)
	}
	ex := mustCompile(t, p)
	ex.SetWorkers(workers)
	out, err := ex.RunResult(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// liv23Nest is the Livermore 23 shape: an in-place wavefront update of
// a from its four neighbours weighted by a coefficient array.
func liv23Nest(n int64, doacross bool) *Program {
	diff := func(di, dj int64) VExpr {
		return &VBin{Op: '-', L: ref2("a", di, dj), R: ref2("a", 0, 0)}
	}
	sum := VExpr(&VBin{Op: '*', L: ref2("z", 0, 0), R: diff(-1, 0)})
	for _, d := range [][2]int64{{0, -1}, {1, 0}, {0, 1}} {
		sum = &VBin{Op: '+', L: sum, R: &VBin{Op: '*', L: ref2("z", 0, 0), R: diff(d[0], d[1])}}
	}
	return &Program{
		Name: "liv23",
		Arrays: []ArrayDecl{
			{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut},
			{Name: "z", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
		},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Doacross: doacross, Body: []Stmt{
				&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs:   &VBin{Op: '+', L: ref2("a", 0, 0), R: &VBin{Op: '*', L: &VConst{Value: 0.175}, R: sum}},
					},
				}},
			}},
		},
	}
}

// TestWavefrontScheduleMatchesSequential runs stencil-shaped wavefront
// nests, whose tile rows execute the stencil row kernel, and checks
// them bitwise against unoptimized sequential execution.
func TestWavefrontScheduleMatchesSequential(t *testing.T) {
	n := int64(128)
	sor := func(doacross bool) *Program {
		return stencil2D(n, doacross, [][2]int64{{-1, 0}, {0, -1}, {1, 0}, {0, 1}})
	}
	for _, mk := range []func(bool) *Program{sor, func(d bool) *Program { return liv23Nest(n, d) }} {
		in := func() map[string]*runtime.Strict {
			return map[string]*runtime.Strict{"a": seededMatrix(n), "z": seededMatrix(n)}
		}
		ref := runWorkers(t, mk(false), false, 1, in())
		p := mk(true)
		Optimize(p)
		if d := p.Dump(); !strings.Contains(d, "[wavefront") || !strings.Contains(d, "[stencil") {
			t.Fatalf("planner did not pick a stencil wavefront schedule:\n%s", d)
		}
		if !innerKernelSpecialized(t, p) {
			t.Fatalf("%s: tile rows do not run the stencil row kernel", p.Name)
		}
		ex := mustCompile(t, p)
		for _, w := range []int{2, 3, 8} {
			ex.SetWorkers(w)
			got, err := ex.RunResult(in())
			if err != nil {
				t.Fatal(err)
			}
			if !ref.EqualWithin(got, 0) {
				t.Fatalf("%s: wavefront result differs from sequential at workers=%d", p.Name, w)
			}
		}
	}
}

// TestTileScheduleMatchesSequential tiles dependence-free nests — a
// two-point read and a five-point Jacobi stencil, whose tile rows run
// the stencil row kernel — and checks them against sequential runs.
func TestTileScheduleMatchesSequential(t *testing.T) {
	// Reads come from a separate input: the nest is dependence-free and
	// should tile without synchronization.
	n := int64(128)
	twoPoint := &VBin{Op: '+', L: ref2("b", -1, 0), R: ref2("b", 0, 1)}
	jacobi := VExpr(ref2("b", 0, 0))
	for _, d := range [][2]int64{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		jacobi = &VBin{Op: '+', L: jacobi, R: ref2("b", d[0], d[1])}
	}
	jacobi = &VBin{Op: '*', L: &VConst{Value: 0.2}, R: jacobi}
	for _, rhs := range []VExpr{twoPoint, jacobi} {
		mk := func(parallel bool) *Program {
			return &Program{
				Name: "jac",
				Arrays: []ArrayDecl{
					{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut},
					{Name: "b", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
				},
				Stmts: []Stmt{
					&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Parallel: parallel, Body: []Stmt{
						&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
							&Assign{
								Array: "a",
								Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
								Rhs:   rhs,
							},
						}},
					}},
				},
			}
		}
		in := map[string]*runtime.Strict{"b": seededMatrix(n)}
		ref := runWorkers(t, mk(false), false, 1, in)
		p := mk(true)
		Optimize(p)
		if d := p.Dump(); !strings.Contains(d, "[tile") {
			t.Fatalf("planner did not pick a tile schedule:\n%s", d)
		}
		if !innerKernelSpecialized(t, p) {
			t.Fatalf("tile rows do not run the stencil row kernel:\n%s", p.Dump())
		}
		for _, w := range []int{2, 4} {
			if got := runWorkers(t, p, false, w, in); !ref.EqualWithin(got, 0) {
				t.Fatalf("tiled result differs from sequential at workers=%d", w)
			}
		}
	}
}

func TestRowBandScheduleMatchesSequential(t *testing.T) {
	// Only an inner-carried dependence (a[i,j-1]): rows are independent,
	// the planner should pick full-width row bands (TileJ = nj).
	n := int64(128)
	reads := [][2]int64{{0, -1}}
	ref := runWorkers(t, stencil2D(n, false, reads), false, 1,
		map[string]*runtime.Strict{"a": seededMatrix(n)})
	p := stencil2D(n, true, reads)
	Optimize(p)
	outer, ok := p.Stmts[0].(*Loop)
	if !ok || outer.Par == nil || outer.Par.Kind != ParTile || outer.Par.TileJ != n-2 {
		t.Fatalf("want row-band tile schedule, got:\n%s", p.Dump())
	}
	got := runWorkers(t, p, false, 4, map[string]*runtime.Strict{"a": seededMatrix(n)})
	if !ref.EqualWithin(got, 0) {
		t.Fatal("row-band result differs from sequential")
	}
}

func TestChainsScheduleMatchesSequential(t *testing.T) {
	n := int64(8192)
	mk := func(doacross bool) *Program {
		return &Program{
			Name:   "rec3",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleInOut}},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 4, To: n, Step: 1, Doacross: doacross, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1))},
						Rhs: &VBin{Op: '+',
							L: &ARef{Array: "a", Subs: []IntExpr{lin(-3, term("i", 1))}},
							R: &VConst{Value: 1},
						},
					},
				}},
			},
		}
	}
	seed := func() *runtime.Strict {
		v := runtime.NewStrict(runtime.NewBounds1(1, n))
		for i := range v.Data {
			v.Data[i] = float64(i % 5)
		}
		return v
	}
	ref := runWorkers(t, mk(false), false, 1, map[string]*runtime.Strict{"a": seed()})
	p := mk(true)
	Optimize(p)
	outer, ok := p.Stmts[0].(*Loop)
	if !ok || outer.Par == nil || outer.Par.Kind != ParChains || outer.Par.Chains != 3 {
		t.Fatalf("want chains(3) schedule, got:\n%s", p.Dump())
	}
	got := runWorkers(t, p, false, 3, map[string]*runtime.Strict{"a": seed()})
	if !ref.EqualWithin(got, 0) {
		t.Fatal("chains result differs from sequential")
	}
}

func TestUnitDistanceRecurrenceStaysSequential(t *testing.T) {
	n := int64(8192)
	p := &Program{
		Name:   "rec1",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleInOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 2, To: n, Step: 1, Doacross: true, Body: []Stmt{
				&Assign{
					Array: "a",
					Subs:  []IntExpr{lin(0, term("i", 1))},
					Rhs: &VBin{Op: '+',
						L: &ARef{Array: "a", Subs: []IntExpr{lin(-1, term("i", 1))}},
						R: &VConst{Value: 1},
					},
				},
			}},
		},
	}
	st := Optimize(p)
	if outer := p.Stmts[0].(*Loop); outer.Par != nil || st.ParSchedules != 0 {
		t.Fatalf("unit-distance recurrence must stay sequential:\n%s", p.Dump())
	}
}

func TestNonUniformDependenceStaysSequential(t *testing.T) {
	// a[i,j] reads a[j,i]: conflicts exist at varying distances, no
	// uniform vector, so every tiled schedule must be refused.
	n := int64(128)
	p := &Program{
		Name:   "transp",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Doacross: true, Body: []Stmt{
				&Loop{Var: "j", From: 1, To: n, Step: 1, Body: []Stmt{
					&Assign{
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
						Rhs:   &ARef{Array: "a", Subs: []IntExpr{lin(0, term("j", 1)), lin(0, term("i", 1))}},
					},
				}},
			}},
		},
	}
	Optimize(p)
	if outer := p.Stmts[0].(*Loop); outer.Par != nil {
		t.Fatalf("non-uniform dependence wrongly scheduled: %s", outer.Par)
	}
}

// TestWavefrontPrefixRows exercises the per-row prefix statements of a
// tiled nest (the fused border-column case): the prefix must run once
// per row, before the row's first tile column.
func TestWavefrontPrefixRows(t *testing.T) {
	n := int64(128)
	mk := func(doacross bool) *Program {
		return &Program{
			Name:   "wf",
			Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut}},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 2, To: n, Step: 1, Doacross: doacross, Body: []Stmt{
					&Assign{ // border column 1, read by the first inner iteration
						Array: "a",
						Subs:  []IntExpr{lin(0, term("i", 1)), lin(1)},
						Rhs:   &VFromInt{X: &IVar{Name: "i"}},
					},
					&Loop{Var: "j", From: 2, To: n, Step: 1, Body: []Stmt{
						&Assign{
							Array: "a",
							Subs:  []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))},
							Rhs: &VBin{Op: '*',
								L: &VConst{Value: 0.25},
								R: &VBin{Op: '+',
									L: &ARef{Array: "a", Subs: []IntExpr{lin(-1, term("i", 1)), lin(0, term("j", 1))}},
									R: &ARef{Array: "a", Subs: []IntExpr{lin(0, term("i", 1)), lin(-1, term("j", 1))}},
								},
							},
						},
					}},
				}},
			},
		}
	}
	ref := runWorkers(t, mk(false), false, 1, map[string]*runtime.Strict{"a": seededMatrix(n)})
	p := mk(true)
	Optimize(p)
	if d := p.Dump(); !strings.Contains(d, "[wavefront") {
		t.Fatalf("planner did not pick a wavefront schedule:\n%s", d)
	}
	got := runWorkers(t, p, false, 5, map[string]*runtime.Strict{"a": seededMatrix(n)})
	if !ref.EqualWithin(got, 0) {
		t.Fatal("wavefront-with-prefix result differs from sequential")
	}
}

// sameErrorAtWorkers runs ex sequentially, which must fail, and then
// at each worker count, which must fail with the identical error.
func sameErrorAtWorkers(t *testing.T, ex *Exec, in map[string]*runtime.Strict, workers ...int) {
	t.Helper()
	ex.SetWorkers(1)
	_, err := ex.RunResult(in)
	if err == nil {
		t.Fatalf("%s: sequential run did not fail", ex.prog.Name)
	}
	seqErr := err.Error()
	for _, w := range workers {
		ex.SetWorkers(w)
		_, err := ex.RunResult(in)
		if err == nil || err.Error() != seqErr {
			t.Fatalf("%s: workers=%d: error %v, sequential %q", ex.prog.Name, w, err, seqErr)
		}
	}
}

// TestShardDeterministicError: several workers fail at different
// iterations — the reported error must be the sequentially-first one.
// Both bodies run through the generic range kernel, which reports the
// failing iteration through the loop-variable register.
func TestShardDeterministicError(t *testing.T) {
	n := int64(8192)
	bad := int64(3000) // first failing iteration: subscript exceeds n
	p := &Program{
		Name:   "perr",
		Arrays: []ArrayDecl{{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut}},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Parallel: true, Body: []Stmt{
				// i < bad: writes a[i]; i >= bad: writes a[i + n] — out of
				// bounds, so every iteration from bad on fails.
				&Assign{
					Array: "a",
					Subs: []IntExpr{&IBin{Op: '+',
						L: &IVar{Name: "i"},
						R: &IBin{Op: '*',
							L: &IConst{Value: n},
							R: &IBin{Op: '/', L: &IVar{Name: "i"}, R: &IConst{Value: bad}},
						},
					}},
					Rhs:         &VConst{Value: 1},
					CheckBounds: true,
				},
			}},
		},
	}
	sameErrorAtWorkers(t, mustCompile(t, p), nil, 2, 4, 7)

	// A three-point stencil over a temp whose definition stops short:
	// the first failure is the read of c[bad] at i = bad-1, and every
	// later chunk fails at its own first iteration, each naming a
	// different element.
	three := &Program{
		Name: "sterr",
		Arrays: []ArrayDecl{
			{Name: "a", B: runtime.NewBounds1(1, n), Role: RoleOut},
			{Name: "c", B: runtime.NewBounds1(1, n), Role: RoleTemp, TrackDefs: true},
		},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: bad - 1, Step: 1, Body: []Stmt{
				&Assign{Array: "c", Subs: []IntExpr{lin(0, term("i", 1))}, Rhs: &VConst{Value: 1}},
			}},
			&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Parallel: true, Body: []Stmt{
				&Assign{
					Array: "a",
					Subs:  []IntExpr{lin(0, term("i", 1))},
					Rhs: &VBin{Op: '+',
						L: &ARef{Array: "c", Subs: []IntExpr{lin(-1, term("i", 1))}, CheckDefined: true},
						R: &ARef{Array: "c", Subs: []IntExpr{lin(1, term("i", 1))}, CheckDefined: true},
					},
				},
			}},
		},
	}
	sameErrorAtWorkers(t, mustCompile(t, three), nil, 2, 3, 8)
}

// TestTileDeterministicError: the failing region spans many tiles; the
// row-major-first failure must win regardless of tile assignment.
func TestTileDeterministicError(t *testing.T) {
	n := int64(128)
	bad := int64(77)
	p := &Program{
		Name: "terr",
		Arrays: []ArrayDecl{
			{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut},
			{Name: "b", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
		},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Parallel: true, Body: []Stmt{
				&Loop{Var: "j", From: 1, To: n, Step: 1, Body: []Stmt{
					// Fails for every (i,j) with i >= bad: column subscript
					// j + n*(i/bad) leaves the bounds.
					&Assign{
						Array: "a",
						Subs: []IntExpr{
							lin(0, term("i", 1)),
							&IBin{Op: '+',
								L: &IVar{Name: "j"},
								R: &IBin{Op: '*',
									L: &IConst{Value: n},
									R: &IBin{Op: '/', L: &IVar{Name: "i"}, R: &IConst{Value: bad}},
								},
							},
						},
						Rhs:         &ARef{Array: "b", Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))}},
						CheckBounds: true,
					},
				}},
			}},
		},
	}
	// A five-point stencil over a temp defined only in its first bad-1
	// rows: the first failure is the read of c[bad,2] at (bad-1, 2),
	// and every other tile of that tile row fails at its own first
	// column, naming a different element, so the column part of the
	// rank decides the winner too.
	five := func() *Program {
		rhs := VExpr(ref2("c", 0, 0))
		for _, d := range [][2]int64{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			r := ref2("c", d[0], d[1])
			r.CheckDefined = true
			rhs = &VBin{Op: '+', L: rhs, R: r}
		}
		return &Program{
			Name: "sterr",
			Arrays: []ArrayDecl{
				{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut},
				{Name: "c", B: runtime.NewBounds2(1, 1, n, n), Role: RoleTemp, TrackDefs: true},
			},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 1, To: bad - 1, Step: 1, Body: []Stmt{
					&Loop{Var: "j", From: 1, To: n, Step: 1, Body: []Stmt{
						&Assign{Array: "c", Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))}, Rhs: &VConst{Value: 1}},
					}},
				}},
				&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Parallel: true, Body: []Stmt{
					&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
						&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))}, Rhs: rhs},
					}},
				}},
			},
		}
	}
	in := map[string]*runtime.Strict{"b": seededMatrix(n)}
	for _, p := range []*Program{p, five()} {
		Optimize(p)
		// Checked accesses keep the planner away (their subscripts are
		// not affine facts it may trust), so force a tile schedule by
		// hand to exercise the executor's error path.
		outer := p.Stmts[len(p.Stmts)-1].(*Loop)
		outer.Par = &ParSchedule{Kind: ParTile, TileI: 16, TileJ: 16}
		sameErrorAtWorkers(t, mustCompile(t, p), in, 2, 5)
	}
}

func TestSetWorkersBetweenRuns(t *testing.T) {
	n := int64(128)
	reads := [][2]int64{{-1, 0}, {0, -1}}
	p := stencil2D(n, true, reads)
	Optimize(p)
	ex := mustCompile(t, p)
	var ref *runtime.Strict
	for run, w := range []int{1, 6, 2, 0} {
		ex.SetWorkers(w)
		got, err := ex.RunResult(map[string]*runtime.Strict{"a": seededMatrix(n)})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			ref = got
		} else if !ref.EqualWithin(got, 0) {
			t.Fatalf("run with workers=%d differs", w)
		}
	}
}

func TestRunParallelPoolReuse(t *testing.T) {
	// Workers park back on the idle stack and are reused; repeated
	// cohorts must not leak or deadlock.
	for round := 0; round < 50; round++ {
		var mu sync.Mutex
		seen := map[int]bool{}
		runParallel(8, func(w int) {
			mu.Lock()
			seen[w] = true
			mu.Unlock()
		})
		if len(seen) != 8 {
			t.Fatalf("round %d: %d workers ran, want 8", round, len(seen))
		}
	}
	workerPool.mu.Lock()
	idle := len(workerPool.idle)
	workerPool.mu.Unlock()
	if idle == 0 || idle > maxIdleWorkers {
		t.Fatalf("idle pool size %d after reuse rounds", idle)
	}
}

func TestBarrierGenerations(t *testing.T) {
	const cohort = 6
	const phases = 25
	bar := newBarrier(cohort)
	counts := make([]int64, cohort)
	runParallel(cohort, func(w int) {
		for p := 0; p < phases; p++ {
			counts[w]++
			bar.await()
		}
	})
	for w, c := range counts {
		if c != phases {
			t.Fatalf("worker %d completed %d phases, want %d", w, c, phases)
		}
	}
}
