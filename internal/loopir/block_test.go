package loopir

import (
	"math"
	"slices"
	"strings"
	"testing"

	"arraycomp/internal/runtime"
)

// Differential tests for the block kernel: every case compiles the
// same program with block kernels on and off (noBlockKernels) and
// demands bitwise-identical results, and identical errors where the
// program fails.

// compileBlocks compiles p with block kernels on or off.
func compileBlocks(t *testing.T, p *Program, on bool) *Exec {
	t.Helper()
	noBlockKernels = !on
	defer func() { noBlockKernels = false }()
	return mustCompile(t, p)
}

// seededInputs fills every input array of p with values that make
// reordered arithmetic visible in the low bits.
func seededInputs(p *Program) map[string]*runtime.Strict {
	in := map[string]*runtime.Strict{}
	for _, d := range p.Arrays {
		if d.Role != RoleIn && d.Role != RoleInOut {
			continue
		}
		a := runtime.NewStrict(d.B)
		for i := range a.Data {
			a.Data[i] = math.Sin(float64(i+1)*0.7) + float64(len(d.Name))
		}
		in[d.Name] = a
	}
	return in
}

// blockVsElement runs mk's program with block kernels on and off at
// the given worker counts and checks every result bitwise against the
// element kernels run sequentially. It returns the program, for
// inspection of its block plans.
func blockVsElement(t *testing.T, mk func() *Program, optimize bool, workers ...int) *Program {
	t.Helper()
	build := func() *Program {
		p := mk()
		if optimize {
			Optimize(p)
		}
		return p
	}
	ref := compileBlocks(t, build(), false)
	ref.SetWorkers(1)
	p := build()
	want, err := ref.Run(seededInputs(p))
	if err != nil {
		t.Fatalf("element kernels: %v", err)
	}
	blk := compileBlocks(t, p, true)
	for _, w := range append([]int{1}, workers...) {
		blk.SetWorkers(w)
		got, err := blk.Run(seededInputs(p))
		if err != nil {
			t.Fatalf("block kernels, workers=%d: %v", w, err)
		}
		for name, a := range want {
			assertBitwise(t, got[name], a)
		}
	}
	return p
}

// hoistedIn returns the block plan of the first loop of p whose body
// is a single Assign, or nil.
func hoistedIn(p *Program) *blockPlan {
	var plan *blockPlan
	found := false
	WalkLoops(p.Stmts, func(l *Loop) {
		if found || len(l.Body) != 1 {
			return
		}
		if _, ok := l.Body[0].(*Assign); ok {
			found = true
			plan = planBlock(p, l)
		}
	})
	return plan
}

// hoists reports whether the plan hoists a subtree reading arr at
// subscript offset d from the loop variable.
func hoists(plan *blockPlan, arr string, d int64) bool {
	if plan == nil {
		return false
	}
	hit := false
	var walk func(e VExpr)
	walk = func(e VExpr) {
		switch x := e.(type) {
		case *ARef:
			if x.Array == arr && len(x.Subs) == 1 {
				if f := intLin(x.Subs[0]); f != nil && f.c == d {
					hit = true
				}
			}
		case *VBin:
			walk(x.L)
			walk(x.R)
		case *VNeg:
			walk(x.X)
		case *VCall:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	for _, h := range plan.hoisted {
		walk(h)
	}
	return hit
}

func ref1(arr string, d int64) *ARef {
	return &ARef{Array: arr, Subs: []IntExpr{lin(d, term("i", 1))}}
}

// selfRecurrence builds a[i] := 0.5*a[i-d] + b[i]*2 over i = from..to
// by step, a updated in place.
func selfRecurrence(n, from, to, step, d int64) func() *Program {
	return func() *Program {
		return selfRecurrenceOrder(n, from, to, step, d, false)
	}
}

// selfRecurrenceOrder builds selfRecurrence's program, with the sum's
// operands swapped (b[i]*2 + 0.5*a[i-d]) when swap is set: then the
// read of a runs after the block has evaluated the other operand.
func selfRecurrenceOrder(n, from, to, step, d int64, swap bool) *Program {
	carried := VExpr(&VBin{Op: '*', L: &VConst{Value: 0.5}, R: ref1("a", -d)})
	other := VExpr(&VBin{Op: '*', L: ref1("b", 0), R: &VConst{Value: 2}})
	if swap {
		carried, other = other, carried
	}
	return &Program{
		Name: "rec",
		Arrays: []ArrayDecl{
			{Name: "a", B: b1(1-blockLen-2, n+blockLen+2), Role: RoleInOut},
			{Name: "b", B: b1(1, n), Role: RoleIn},
		},
		Stmts: []Stmt{
			&Loop{Var: "i", From: from, To: to, Step: step, Body: []Stmt{
				&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))},
					Rhs: &VBin{Op: '+', L: carried, R: other}},
			}},
		},
	}
}

// TestBlockReadDistance pins the hoisting rule at its edges: a read of
// the stored array d iterations back is hoisted only when d ≤ 0 or
// d ≥ blockLen, and the result never changes.
func TestBlockReadDistance(t *testing.T) {
	n := int64(1000)
	for _, tc := range []struct {
		d     int64
		hoist bool
	}{
		{1, false}, {2, false}, {blockLen - 1, false},
		{blockLen, true}, {blockLen + 1, true}, {0, true}, {-1, true}, {-blockLen, true},
	} {
		for _, opt := range []bool{false, true} {
			for _, swap := range []bool{false, true} {
				mk := func() *Program { return selfRecurrenceOrder(n, 1, n, 1, tc.d, swap) }
				plan := hoistedIn(blockVsElement(t, mk, opt))
				if got := hoists(plan, "a", -tc.d); got != tc.hoist {
					t.Errorf("d=%d optimize=%v swap=%v: hoisted a[i-d] = %v, want %v", tc.d, opt, swap, got, tc.hoist)
				}
				if !hoists(plan, "b", 0) {
					t.Errorf("d=%d optimize=%v swap=%v: b[i]*2 not hoisted", tc.d, opt, swap)
				}
			}
		}
	}
	// A loop shorter than blockLen bounds the block: d = trip is safe.
	short := selfRecurrence(n, 1, 40, 1, 40)
	if !hoists(hoistedIn(blockVsElement(t, short, true)), "a", -40) {
		t.Error("d = trip: read not hoisted")
	}
	if hoists(hoistedIn(blockVsElement(t, selfRecurrence(n, 1, 41, 1, 40), true)), "a", -40) {
		t.Error("d = trip-1: read hoisted")
	}
}

// TestBlockTripCounts runs trip counts around minBlock and blockLen.
func TestBlockTripCounts(t *testing.T) {
	for _, n := range []int64{1, minBlock - 1, minBlock, blockLen - 1, blockLen, blockLen + 1, 2*blockLen + 17, 1000} {
		blockVsElement(t, selfRecurrence(1000, 1, n, 1, 0), true)
		blockVsElement(t, selfRecurrence(1000, 1, n, 1, 1), true)
	}
}

// TestBlockNegativeStep: walking down, a[i+1] was written one
// iteration earlier (carried, stays per element) while a[i-1] is
// written later (hoisted).
func TestBlockNegativeStep(t *testing.T) {
	n := int64(700)
	for _, opt := range []bool{false, true} {
		p := blockVsElement(t, selfRecurrence(n, n, 1, -1, -1), opt)
		if hoists(hoistedIn(p), "a", 1) {
			t.Errorf("optimize=%v: carried a[i+1] hoisted in a downward loop", opt)
		}
		p = blockVsElement(t, selfRecurrence(n, n, 1, -1, 1), opt)
		if !hoists(hoistedIn(p), "a", -1) {
			t.Errorf("optimize=%v: a[i-1] not hoisted in a downward loop", opt)
		}
		// Stride 2 downwards: strided leaves and a strided store.
		blockVsElement(t, selfRecurrence(n, n, 1, -2, -1), opt)
	}
}

// TestBlockAccumulate: a d = 0 accumulate reads the element it folds
// into; the read is hoisted, the fold stays per element.
func TestBlockAccumulate(t *testing.T) {
	n := int64(600)
	mk := func() *Program {
		comb, _ := runtime.Combiner("+")
		return &Program{
			Name:    "acc",
			AccumOp: "+",
			Arrays: []ArrayDecl{
				{Name: "a", B: b1(1, n), Role: RoleInOut},
				{Name: "b", B: b1(1, n), Role: RoleIn},
			},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
					&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))}, Accumulate: comb, HasAccum: true,
						Rhs: &VBin{Op: '+', L: &VBin{Op: '*', L: ref1("a", 0), R: &VConst{Value: 0.25}}, R: ref1("b", 0)}},
				}},
			},
		}
	}
	for _, opt := range []bool{false, true} {
		p := blockVsElement(t, mk, opt)
		if plan := hoistedIn(p); plan == nil || plan.hoisted[0] != plan.a.Rhs {
			t.Errorf("optimize=%v: d = 0 accumulate right-hand side not hoisted whole", opt)
		}
	}
}

// TestBlockIndirectStore: y[p[i]] := y[i]*2 + x[i]*3 may write any
// element of y, so no read of y is hoisted; x[i]*3 is.
func TestBlockIndirectStore(t *testing.T) {
	n := int64(500)
	mk := func() *Program {
		return &Program{
			Name: "ind",
			Arrays: []ArrayDecl{
				{Name: "y", B: b1(1, n), Role: RoleInOut},
				{Name: "x", B: b1(1, n), Role: RoleIn},
				{Name: "p", B: b1(1, n), Role: RoleIn},
			},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
					&Assign{Array: "y", Subs: []IntExpr{&IIdx{Array: "p", Subs: []IntExpr{lin(0, term("i", 1))}}},
						Rhs: &VBin{Op: '+',
							L: &VBin{Op: '*', L: ref1("y", 0), R: &VConst{Value: 2}},
							R: &VBin{Op: '*', L: ref1("x", 0), R: &VConst{Value: 3}}}},
				}},
			},
		}
	}
	// The permutation p reverses 1..n, so stores land ahead of and
	// behind the reads.
	perm := func(p *Program) map[string]*runtime.Strict {
		in := seededInputs(p)
		for i := range in["p"].Data {
			in["p"].Data[i] = float64(n - int64(i))
		}
		return in
	}
	for _, opt := range []bool{false, true} {
		p := mk()
		if opt {
			Optimize(p)
		}
		plan := hoistedIn(p)
		if hoists(plan, "y", 0) {
			t.Errorf("optimize=%v: read of y hoisted under an indirect store", opt)
		}
		if !hoists(plan, "x", 0) {
			t.Errorf("optimize=%v: x[i]*3 not hoisted", opt)
		}
		want, err := compileBlocks(t, p, false).Run(perm(p))
		if err != nil {
			t.Fatal(err)
		}
		got, err := compileBlocks(t, p, true).Run(perm(p))
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, got["y"], want["y"])
	}
}

// TestBlockTileRowsAndShardEdges: 64-wide tile rows of a tiled nest,
// and shard chunks that do not align with blockLen, at several worker
// counts.
func TestBlockTileRowsAndShardEdges(t *testing.T) {
	n := int64(130)
	rhs := func() VExpr {
		return &VBin{Op: '+',
			L: &VBin{Op: '*', L: &VConst{Value: 0.3}, R: ref2("b", -1, 0)},
			R: &VBin{Op: '*', L: ref2("b", 1, 1), R: ref2("b", 0, -1)}}
	}
	tiled := func() *Program {
		return &Program{
			Name: "tile",
			Arrays: []ArrayDecl{
				{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut},
				{Name: "b", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
			},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Parallel: true, Body: []Stmt{
					&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
						&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))}, Rhs: rhs()},
					}},
				}},
			},
		}
	}
	p := blockVsElement(t, tiled, true, 2, 4)
	if d := p.Dump(); !strings.Contains(d, "[tile") {
		t.Fatalf("no tile schedule:\n%s", d)
	}
	if plan := hoistedIn(p); plan == nil || plan.hoisted[0] != plan.a.Rhs {
		t.Fatal("tile row body not hoisted whole")
	}
	wave := func() *Program { return liv23Nest(n, true) }
	if d := blockVsElement(t, wave, true, 2, 3).Dump(); !strings.Contains(d, "[wavefront") {
		t.Fatalf("no wavefront schedule:\n%s", d)
	}
	shard := func() *Program {
		m := int64(10007)
		return &Program{
			Name: "shard",
			Arrays: []ArrayDecl{
				{Name: "a", B: b1(1, m), Role: RoleOut},
				{Name: "b", B: b1(0, m+1), Role: RoleIn},
			},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 1, To: m, Step: 1, Parallel: true, Body: []Stmt{
					&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))},
						Rhs: &VBin{Op: '/', L: &VBin{Op: '+', L: ref1("b", -1), R: ref1("b", 1)}, R: &VConst{Value: 3}}},
				}},
			},
		}
	}
	if d := blockVsElement(t, shard, true, 2, 3, 7).Dump(); !strings.Contains(d, "shard") {
		t.Fatalf("no shard schedule:\n%s", d)
	}
}

// TestBlockCheckedStoreFails: a bounds-checked store failing part-way
// through a block reports the sequential failure at every worker
// count.
func TestBlockCheckedStoreFails(t *testing.T) {
	n := int64(8000)
	bad := int64(3000) // a[i + n*(i/bad)] leaves the bounds from i = bad on
	p := &Program{
		Name: "chk",
		Arrays: []ArrayDecl{
			{Name: "a", B: b1(1, n), Role: RoleOut},
			{Name: "b", B: b1(1, n), Role: RoleIn},
		},
		Stmts: []Stmt{
			&Loop{Var: "i", From: 1, To: n, Step: 1, Parallel: true, Body: []Stmt{
				&Assign{Array: "a", CheckBounds: true,
					Subs: []IntExpr{&IBin{Op: '+', L: &IVar{Name: "i"},
						R: &IBin{Op: '*', L: &IConst{Value: n}, R: &IBin{Op: '/', L: &IVar{Name: "i"}, R: &IConst{Value: bad}}}}},
					Rhs: &VBin{Op: '*', L: ref1("b", 0), R: &VConst{Value: 2}}},
			}},
		},
	}
	if plan := hoistedIn(p); plan == nil || plan.hoisted[0] != plan.a.Rhs {
		t.Fatal("right-hand side not hoisted")
	}
	_, err := compileBlocks(t, p, false).Run(seededInputs(p))
	if err == nil {
		t.Fatal("element kernels did not fail")
	}
	sameErrorAtWorkers(t, compileBlocks(t, p, true), seededInputs(p), 2, 3, 4)
	ex := compileBlocks(t, p, true)
	ex.SetWorkers(1)
	if _, got := ex.Run(seededInputs(p)); got == nil || got.Error() != err.Error() {
		t.Fatalf("block kernel error %v, element kernel %v", got, err)
	}
}

// TestBlockStreamWindows runs a stage chunk by chunk over windows that
// slide by a chunk size that is not a multiple of blockLen: the spine's
// operands are window subslices at the current shift, and its carried
// read reaches back across the chunk boundary.
func TestBlockStreamWindows(t *testing.T) {
	n := int64(3000)
	mk := func() *Program {
		p := recurrenceProg(n)
		// out[i] = out[i-1]*0.5 + x[i] becomes
		// out[i] = out[i-1]*0.5 + (x[i-1] + x[i+1]) * 0.25.
		body := p.Stmts[len(p.Stmts)-1].(*Loop).Body[0].(*Assign)
		body.Rhs.(*VBin).R = &VBin{Op: '*', L: &VBin{Op: '+', L: ref1("x", -1), R: ref1("x", 1)}, R: &VConst{Value: 0.25}}
		last := p.Stmts[len(p.Stmts)-1].(*Loop)
		last.To = n - 1
		return p
	}
	for _, opt := range []bool{false, true} {
		run := func(on bool) []float64 {
			p := mk()
			if opt {
				Optimize(p)
			}
			sp, err := BuildStreamPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			noBlockKernels = !on
			st, err := CompileStage(p, sp, func(name string) bool { return name == "x" })
			noBlockKernels = false
			if err != nil {
				t.Fatal(err)
			}
			x := seededInputs(p)["x"].Data
			out := make([]float64, n)
			r := st.NewRun()
			const chunk = 300
			oSlot, err := r.Bind(sp.Out, out, 1)
			if err != nil {
				t.Fatal(err)
			}
			xSlot, err := r.Bind("x", x, 1)
			if err != nil {
				t.Fatal(err)
			}
			for lo := int64(1); lo <= n; lo += chunk {
				hi := min(lo+chunk-1, n)
				// Windows start one element before the chunk: shift
				// changes every chunk.
				base := max(lo-1, 1)
				r.Slide(oSlot, out[base-1:], base)
				r.Slide(xSlot, x[base-1:min(hi+1, n)], base)
				if err := r.Chunk(lo, hi); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		if sh := shapes(mk()); !slices.Contains(sh, ShapeSpine) {
			t.Fatalf("optimize=%v: the carried recurrence is no spine: %v", opt, sh)
		}
		want, got := run(false), run(true)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("optimize=%v: element %d: block %v, element %v", opt, i+1, got[i], want[i])
			}
		}
	}
}

// TestBlockGatherAndCall: an unchecked gather and builtin calls hoist
// into block operations.
func TestBlockGatherAndCall(t *testing.T) {
	n := int64(777)
	mk := func() *Program {
		return &Program{
			Name: "gat",
			Arrays: []ArrayDecl{
				{Name: "y", B: b1(1, n), Role: RoleOut},
				{Name: "x", B: b1(1, n), Role: RoleIn},
				{Name: "col", B: b1(1, n), Role: RoleIn},
			},
			Scalars: []string{"s"},
			Stmts: []Stmt{
				&SetScalar{Name: "s", Rhs: &VConst{Value: 1.5}},
				&Loop{Var: "i", From: 1, To: n, Step: 1, Body: []Stmt{
					&Assign{Array: "y", Subs: []IntExpr{lin(0, term("i", 1))},
						Rhs: &VCall{Fn: "max", Args: []VExpr{
							&VNeg{X: &VCall{Fn: "abs", Args: []VExpr{
								&ARef{Array: "x", Subs: []IntExpr{&IIdx{Array: "col", Subs: []IntExpr{lin(0, term("i", 1))}}}}}}},
							&VBin{Op: '-', L: &VBin{Op: '-', L: &VScalar{Name: "s"}, R: &VConst{Value: 0.25}}, R: ref1("x", 0)},
						}}},
				}},
			},
		}
	}
	cols := func(p *Program) map[string]*runtime.Strict {
		in := seededInputs(p)
		for i := range in["col"].Data {
			in["col"].Data[i] = float64(int64(i*37)%n + 1)
		}
		return in
	}
	for _, opt := range []bool{false, true} {
		p := mk()
		if opt {
			Optimize(p)
		}
		if plan := hoistedIn(p); plan == nil || plan.hoisted[0] != plan.a.Rhs {
			t.Fatalf("optimize=%v: gather and calls not hoisted whole", opt)
		}
		want, err := compileBlocks(t, p, false).Run(cols(p))
		if err != nil {
			t.Fatal(err)
		}
		got, err := compileBlocks(t, p, true).Run(cols(p))
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, got["y"], want["y"])
	}
}

// plansIn returns the block plans of every loop of p, in walk order.
func plansIn(p *Program) []*blockPlan {
	var out []*blockPlan
	WalkLoops(p.Stmts, func(l *Loop) {
		if plan := planBlock(p, l); plan != nil {
			out = append(out, plan)
		}
	})
	return out
}

// shapes lists the plan shapes of p's loops.
func shapes(p *Program) []string {
	var out []string
	for _, plan := range plansIn(p) {
		out = append(out, plan.shape)
	}
	return out
}

// jacobiNodeSplit is the §9 Jacobi step as node splitting lowers it:
// a row buffer holds the old row above, prev the old west neighbour,
// and cur the old element until its store.
func jacobiNodeSplit(n int64) *Program {
	ij := func(di, dj int64) []IntExpr { return []IntExpr{lin(di, term("i", 1)), lin(dj, term("j", 1))} }
	a := func(di, dj int64) *ARef { return &ARef{Array: "a", Subs: ij(di, dj)} }
	rb := func() *ARef { return &ARef{Array: "rowbuf", Subs: []IntExpr{lin(0, term("j", 1))}} }
	sum := &VBin{Op: '+', L: &VBin{Op: '+', L: &VBin{Op: '+', L: rb(), R: a(1, 0)}, R: &VScalar{Name: "prev"}}, R: a(0, 1)}
	return &Program{
		Name: "jacobi",
		Arrays: []ArrayDecl{
			{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleInOut},
			{Name: "rowbuf", B: b1(2, n-1), Role: RoleTemp},
		},
		Scalars: []string{"prev", "cur", "v"},
		Stmts: []Stmt{
			&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
				&Assign{Array: "rowbuf", Subs: []IntExpr{lin(0, term("j", 1))},
					Rhs: &ARef{Array: "a", Subs: []IntExpr{&IConst{Value: 1}, lin(0, term("j", 1))}}},
			}},
			&Loop{Var: "i", From: 2, To: n - 1, Step: 1, Body: []Stmt{
				&SetScalar{Name: "prev", Rhs: &ARef{Array: "a", Subs: []IntExpr{lin(0, term("i", 1)), &IConst{Value: 1}}}},
				&Loop{Var: "j", From: 2, To: n - 1, Step: 1, Body: []Stmt{
					&SetScalar{Name: "v", Rhs: &VBin{Op: '*', L: &VConst{Value: 0.25}, R: sum}},
					&Assign{Array: "rowbuf", Subs: []IntExpr{lin(0, term("j", 1))}, Rhs: a(0, 0)},
					&SetScalar{Name: "cur", Rhs: a(0, 0)},
					&Assign{Array: "a", Subs: ij(0, 0), Rhs: &VScalar{Name: "v"}},
					&SetScalar{Name: "prev", Rhs: &VScalar{Name: "cur"}},
				}},
			}},
		},
	}
}

// TestPhaseJacobi: the node-split Jacobi's inner body runs as a phase
// block at trip counts around minBlock and blockLen, with prev read as
// a carry of cur and cur aliasing the row it is stored over.
func TestPhaseJacobi(t *testing.T) {
	for _, n := range []int64{20, 130, 300} {
		for _, opt := range []bool{false, true} {
			p := blockVsElement(t, func() *Program { return jacobiNodeSplit(n) }, opt, 2)
			var inner *blockPlan
			for _, plan := range plansIn(p) {
				if len(plan.body) == 5 {
					inner = plan
				}
			}
			if inner == nil || inner.shape != ShapePhase {
				t.Fatalf("n=%d optimize=%v: inner body has no phase plan: %v", n, opt, shapes(p))
			}
			if !slices.Equal(inner.carry[0], []string{"prev"}) || len(inner.carry[4]) != 0 {
				t.Errorf("n=%d optimize=%v: carries %v", n, opt, inner.carry)
			}
		}
	}
}

// rowSwap builds the §9 LINPACK row interchange of rows r1 and r2 of a
// rows×cols matrix through a scalar.
func rowSwap(rows, cols, r1, r2 int64) *Program {
	row := func(r int64) []IntExpr { return []IntExpr{&IConst{Value: r}, lin(0, term("j", 1))} }
	return &Program{
		Name:    "swap",
		Arrays:  []ArrayDecl{{Name: "a", B: runtime.NewBounds2(1, 1, rows, cols), Role: RoleInOut}},
		Scalars: []string{"save"},
		Stmts: []Stmt{
			&Loop{Var: "j", From: 1, To: cols, Step: 1, Body: []Stmt{
				&SetScalar{Name: "save", Rhs: &ARef{Array: "a", Subs: row(r1)}},
				&Assign{Array: "a", Subs: row(r1), Rhs: &ARef{Array: "a", Subs: row(r2)}},
				&Assign{Array: "a", Subs: row(r2), Rhs: &VScalar{Name: "save"}},
			}},
		},
	}
}

// TestPhaseRowSwap: the row swap's stores are 4·cols iterations apart,
// never less than a block of the cols-iteration loop, so it is always a
// phase block; save aliases row r1, which phase 3 stores before save
// is consumed.
func TestPhaseRowSwap(t *testing.T) {
	for _, tc := range []struct {
		cols  int64
		phase bool
	}{{64, true}, {300, true}, {20, true}} {
		for _, opt := range []bool{false, true} {
			p := blockVsElement(t, func() *Program { return rowSwap(8, tc.cols, 3, 7) }, opt)
			if got := slices.Contains(shapes(p), ShapePhase); got != tc.phase {
				t.Errorf("cols=%d optimize=%v: phase plan %v, want %v", tc.cols, opt, got, tc.phase)
			}
		}
	}
}

// loop1 wraps a body in a loop over i = from..to by step.
func loop1(from, to, step int64, body ...Stmt) *Loop {
	return &Loop{Var: "i", From: from, To: to, Step: step, Body: body}
}

// store1 is arr[i+d] := rhs.
func store1(arr string, d int64, rhs VExpr) *Assign {
	return &Assign{Array: arr, Subs: []IntExpr{lin(d, term("i", 1))}, Rhs: rhs}
}

// phaseProg declares a, b, c over a margin wide enough for every test
// distance, and the scalars s and t, around the statements; each
// program gets its own, since the optimizer rewrites them.
func phaseProg(n int64, stmts func() []Stmt) func() *Program {
	return func() *Program {
		m := int64(2*blockLen + 4)
		return &Program{
			Name: "ph",
			Arrays: []ArrayDecl{
				{Name: "a", B: b1(1-m, n+m), Role: RoleInOut},
				{Name: "b", B: b1(1-m, n+m), Role: RoleIn},
				{Name: "c", B: b1(1-m, n+m), Role: RoleInOut},
			},
			Scalars: []string{"s", "t"},
			Stmts:   stmts(),
		}
	}
}

// TestPhaseCarriedScalarAfterLoop: s is read before its assignment (a
// carry) and its register is stored after the loop.
func TestPhaseCarriedScalarAfterLoop(t *testing.T) {
	n := int64(500)
	mk := phaseProg(n, func() []Stmt {
		return []Stmt{&SetScalar{Name: "s", Rhs: &VConst{Value: 0.125}},
			loop1(1, n, 1,
				store1("a", 0, &VBin{Op: '-', L: &VScalar{Name: "s"}, R: ref1("b", 1)}),
				&SetScalar{Name: "s", Rhs: &VBin{Op: '*', L: ref1("b", 0), R: &VConst{Value: 3}}},
				store1("c", 0, &VBin{Op: '/', L: &VScalar{Name: "s"}, R: &VConst{Value: 7}}),
			),
			&Assign{Array: "c", Subs: []IntExpr{&IConst{Value: 0}}, Rhs: &VScalar{Name: "s"}}}
	})
	for _, opt := range []bool{false, true} {
		p := blockVsElement(t, mk, opt)
		plans := plansIn(p)
		if len(plans) != 1 || plans[0].shape != ShapePhase || !slices.Equal(plans[0].carry[0], []string{"s"}) {
			t.Fatalf("optimize=%v: plans %v", opt, shapes(p))
		}
	}
}

// TestPhaseScalarRecurrence: s := s*0.5 + b[i] is a true recurrence;
// the loop keeps the element kernel.
func TestPhaseScalarRecurrence(t *testing.T) {
	n := int64(400)
	mk := phaseProg(n, func() []Stmt {
		return []Stmt{&SetScalar{Name: "s", Rhs: &VConst{Value: 1}},
			loop1(1, n, 1,
				&SetScalar{Name: "s", Rhs: &VBin{Op: '+', L: &VBin{Op: '*', L: &VScalar{Name: "s"}, R: &VConst{Value: 0.5}}, R: ref1("b", 0)}},
				store1("a", 0, &VScalar{Name: "s"}),
			)}
	})
	for _, opt := range []bool{false, true} {
		if p := blockVsElement(t, mk, opt); len(plansIn(p)) != 0 {
			t.Errorf("optimize=%v: scalar recurrence planned %v", opt, shapes(p))
		}
	}
}

// TestPhaseStorePairs: a[i] := b[i]; a[i+e] := c[i]. The second store
// writes at t−e the element the first writes at t, so a block would
// reverse them for 1 ≤ e < blockLen.
func TestPhaseStorePairs(t *testing.T) {
	n := int64(600)
	for _, tc := range []struct {
		e     int64
		phase bool
	}{{1, false}, {blockLen - 1, false}, {blockLen, true}, {blockLen + 1, true}, {0, true}, {-1, true}, {-blockLen, true}} {
		mk := phaseProg(n, func() []Stmt {
			return []Stmt{loop1(1, n, 1,
				store1("a", 0, &VBin{Op: '*', L: ref1("b", 0), R: &VConst{Value: 2}}),
				store1("a", tc.e, &VBin{Op: '+', L: ref1("c", 0), R: &VConst{Value: 1}}),
			)}
		})
		for _, opt := range []bool{false, true} {
			p := blockVsElement(t, mk, opt)
			if got := slices.Contains(shapes(p), ShapePhase); got != tc.phase {
				t.Errorf("e=%d optimize=%v: phase plan %v, want %v", tc.e, opt, got, tc.phase)
			}
		}
	}
}

// TestPhaseReadAfterStore: c[i] := a[i+d] after a[i] := b[i] reads the
// element the first statement stored d iterations earlier; d = 0 and
// 1 ≤ d < blockLen are rejected, and d = −1 is a read of the old
// value, which phase 3 must copy before a's store overwrites it.
func TestPhaseReadAfterStore(t *testing.T) {
	n := int64(500)
	for _, tc := range []struct {
		d     int64
		phase bool
	}{{0, false}, {1, false}, {blockLen - 1, false}, {blockLen, true}, {-1, true}, {-5, true}} {
		mk := phaseProg(n, func() []Stmt {
			return []Stmt{loop1(1, n, 1,
				store1("a", 0, &VBin{Op: '*', L: ref1("b", 0), R: &VConst{Value: 2}}),
				store1("c", 0, ref1("a", -tc.d)),
			)}
		})
		for _, opt := range []bool{false, true} {
			p := blockVsElement(t, mk, opt)
			if got := slices.Contains(shapes(p), ShapePhase); got != tc.phase {
				t.Errorf("d=%d optimize=%v: phase plan %v, want %v", tc.d, opt, got, tc.phase)
			}
		}
	}
}

// TestPhaseNegativeSteps runs a two-statement body with a carried
// scalar downwards at steps −1 and −2.
func TestPhaseNegativeSteps(t *testing.T) {
	n := int64(700)
	for _, step := range []int64{-1, -2} {
		mk := phaseProg(n, func() []Stmt {
			return []Stmt{&SetScalar{Name: "t", Rhs: &VConst{Value: 0.5}},
				loop1(n, 1, step,
					store1("a", 0, &VBin{Op: '+', L: ref1("a", -1), R: &VScalar{Name: "t"}}),
					&SetScalar{Name: "t", Rhs: &VBin{Op: '-', L: ref1("b", -1), R: ref1("a", -2)}},
				)}
		})
		for _, opt := range []bool{false, true} {
			if p := blockVsElement(t, mk, opt); !slices.Contains(shapes(p), ShapePhase) {
				t.Errorf("step=%d optimize=%v: no phase plan: %v", step, opt, shapes(p))
			}
		}
	}
}

// spineCases are right-hand sides over the carried read of a d
// iterations back: on the left and right of - and /, under VNeg and
// under two-argument builtins.
func spineCases(d int64) map[string]VExpr {
	c := func() VExpr { return ref1("a", -d) }
	b := func() VExpr { return &VBin{Op: '+', L: ref1("b", 0), R: &VConst{Value: 2}} }
	return map[string]VExpr{
		"c-b":      &VBin{Op: '-', L: c(), R: b()},
		"b-c":      &VBin{Op: '-', L: b(), R: &VBin{Op: '*', L: c(), R: &VConst{Value: 0.5}}},
		"c/b":      &VBin{Op: '/', L: c(), R: b()},
		"b/c":      &VBin{Op: '/', L: b(), R: &VBin{Op: '+', L: c(), R: &VConst{Value: 3}}},
		"neg":      &VBin{Op: '+', L: &VNeg{X: &VBin{Op: '*', L: c(), R: &VConst{Value: 0.5}}}, R: ref1("b", 1)},
		"max(c,b)": &VBin{Op: '*', L: &VCall{Fn: "max", Args: []VExpr{c(), b()}}, R: &VConst{Value: 0.75}},
		"pow(b,c)": &VCall{Fn: "pow", Args: []VExpr{&VConst{Value: 0.9}, &VBin{Op: '-', L: c(), R: ref1("b", -1)}}},
		"scalar":   &VBin{Op: '+', L: &VScalar{Name: "s"}, R: &VBin{Op: '*', L: c(), R: ref1("b", 0)}},
	}
}

// TestSpineDistances runs every spine case at d = 1, 2 and blockLen−1,
// upwards and downwards.
func TestSpineDistances(t *testing.T) {
	n := int64(700)
	for _, d := range []int64{1, 2, blockLen - 1} {
		for name := range spineCases(d) {
			for _, step := range []int64{1, -1, -2} {
				from, to, read := int64(1), n, -d
				if step < 0 {
					from, to, read = n, 1, d*-step
				}
				mk := phaseProg(n, func() []Stmt {
					return []Stmt{
						&SetScalar{Name: "s", Rhs: &VConst{Value: 0.25}},
						loop1(from, to, step, store1("a", 0, substRead(spineCases(d)[name], -d, read))),
					}
				})
				for _, opt := range []bool{false, true} {
					p := blockVsElement(t, mk, opt)
					if sh := shapes(p); !slices.Equal(sh, []string{ShapeSpine}) {
						t.Errorf("%s d=%d step=%d optimize=%v: shapes %v", name, d, step, opt, sh)
					}
				}
			}
		}
	}
}

// substRead rebuilds e with every read of a at i+from moved to i+to.
func substRead(e VExpr, from, to int64) VExpr {
	switch x := e.(type) {
	case *ARef:
		if f := intLin(x.Subs[0]); x.Array == "a" && f != nil && f.c == from {
			return ref1("a", to)
		}
	case *VBin:
		return &VBin{Op: x.Op, L: substRead(x.L, from, to), R: substRead(x.R, from, to)}
	case *VNeg:
		return &VNeg{X: substRead(x.X, from, to)}
	case *VCall:
		args := make([]VExpr, len(x.Args))
		for i, arg := range x.Args {
			args[i] = substRead(arg, from, to)
		}
		return &VCall{Fn: x.Fn, Args: args}
	}
	return e
}

// TestSpineRejects: two carried reads, or a carried read under a
// conditional, leave the single-store block shape.
func TestSpineRejects(t *testing.T) {
	n := int64(300)
	two := phaseProg(n, func() []Stmt {
		return []Stmt{loop1(1, n, 1, store1("a", 0, &VBin{Op: '+', L: ref1("a", -1), R: ref1("a", -2)}))}
	})
	if sh := shapes(blockVsElement(t, two, true)); slices.Contains(sh, ShapeSpine) {
		t.Errorf("two carried reads: %v", sh)
	}
	acc := phaseProg(n, func() []Stmt {
		return []Stmt{loop1(1, n, 1, &Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1))}, CheckBounds: true,
			Rhs: &VBin{Op: '+', L: ref1("a", -1), R: &VBin{Op: '*', L: ref1("b", 0), R: ref1("b", 1)}}})}
	})
	if sh := shapes(blockVsElement(t, acc, false)); !slices.Equal(sh, []string{ShapeBlock}) {
		t.Errorf("checked store: %v", sh)
	}
}

// TestShapesAcrossExecutors: tile rows, wavefront rows and shard
// chunks run phase and spine kernels at 1–7 workers.
func TestShapesAcrossExecutors(t *testing.T) {
	n := int64(130)
	wave := func() *Program { return liv23Nest(n, true) }
	p := blockVsElement(t, wave, true, 2, 3, 4, 5, 6, 7)
	if d := p.Dump(); !strings.Contains(d, "[wavefront") || !slices.Contains(shapes(p), ShapeSpine) {
		t.Fatalf("no wavefront of spines: %v\n%s", shapes(p), d)
	}
	tiled := func() *Program {
		return &Program{
			Name: "tile",
			Arrays: []ArrayDecl{
				{Name: "a", B: runtime.NewBounds2(1, 1, n, n), Role: RoleOut},
				{Name: "b", B: runtime.NewBounds2(1, 1, n, n), Role: RoleIn},
			},
			Stmts: []Stmt{
				&Loop{Var: "i", From: 1, To: n, Step: 1, Parallel: true, Body: []Stmt{
					&Loop{Var: "j", From: 1, To: n, Step: 1, Body: []Stmt{
						&Assign{Array: "a", Subs: []IntExpr{lin(0, term("i", 1)), lin(0, term("j", 1))}, Rhs: ref2("b", 0, 0)},
					}},
				}},
			},
		}
	}
	p = blockVsElement(t, tiled, true, 2, 3, 4, 5, 6, 7)
	if d := p.Dump(); !strings.Contains(d, "[tile") || !slices.Contains(shapes(p), ShapePhase) {
		t.Fatalf("no tile of phase blocks: %v\n%s", shapes(p), d)
	}
	m := int64(5003)
	shard := phaseProg(m, func() []Stmt {
		return []Stmt{&Loop{Var: "i", From: 1, To: m, Step: 1, Parallel: true, Body: []Stmt{
			store1("a", 0, &VBin{Op: '*', L: ref1("b", -1), R: ref1("b", 1)}),
			store1("c", 0, &VBin{Op: '-', L: ref1("b", 0), R: &VConst{Value: 1}}),
		}}}
	})
	p = blockVsElement(t, shard, true, 2, 3, 4, 5, 6, 7)
	if d := p.Dump(); !strings.Contains(d, "shard") || !slices.Contains(shapes(p), ShapePhase) {
		t.Fatalf("no shard of phase blocks: %v\n%s", shapes(p), d)
	}
}

// TestPhaseSharedReadNode: one read node shared by statements before
// and after a store of its element is judged per statement.
func TestPhaseSharedReadNode(t *testing.T) {
	n := int64(300)
	mk := phaseProg(n, func() []Stmt {
		shared := ref1("a", 0)
		return []Stmt{loop1(1, n, 1,
			store1("c", 0, shared),
			store1("a", 0, &VBin{Op: '*', L: ref1("b", 0), R: &VConst{Value: 2}}),
			&SetScalar{Name: "s", Rhs: shared},
			store1("c", -1, &VScalar{Name: "s"}),
		)}
	})
	for _, opt := range []bool{false, true} {
		if p := blockVsElement(t, mk, opt); len(plansIn(p)) != 0 {
			t.Errorf("optimize=%v: a d = 0 read after its store planned: %v", opt, shapes(p))
		}
	}
}
