package loopir

// Specialized range kernels. A loop's range kernel (compileLoop) takes
// one of five shapes, chosen by its body (planBlock, then the stencil
// recognizer):
//
//   - phase block: a straight-line body of SetScalar and plain affine
//     Assign statements whose every right-hand side can run a block of
//     up to blockLen iterations at a time. Each block runs in three
//     phases: every right-hand side as block operations over array
//     subslices and per-frame scratch (a scalar assigned in the body
//     becomes a vector, read in the same iteration or, before its
//     assignment, as a one-iteration carry); every body scalar's
//     register set to its last-iteration value; the stores, statement
//     by statement in body order. A fully hoisted single Assign is the
//     one-statement case; a unit-stride copy is one copy per block.
//   - single-store block: the body is one Assign whose store or
//     right-hand side cannot run whole (an accumulate, a checked or
//     indirect store, a carried read). Its maximal block-evaluable
//     subtrees run a block at a time; the residual runs per element
//     through the stencil row or generic closures, reading the block's
//     values from scratch.
//   - spine: the body is one plain affine Assign whose right-hand side
//     has exactly one leaf a block cannot evaluate, a read of the
//     stored array d iterations back (1 ≤ d < block), under a chain of
//     arithmetic and builtin nodes. The chain's other operands run a
//     block at a time; the chain itself runs as a flat op list, one
//     element after another, with the carried value in one local.
//   - stencil row: the body is one offset-form Assign over a single
//     unit-stride register; the closure tree takes the register as an
//     argument and skips all loop-variable bookkeeping.
//   - generic: the closure loop over the compiled body.
//
// An earlier revision compiled straight-line bodies to postfix tapes
// run by a small stack VM. It dispatched one instruction per IR node
// per element, with every operand passing through its stack, and that
// cost more than the closure tree it replaced. Block operations
// also interpret the tree, but dispatch once per node per block: each
// closure call runs a loop of up to blockLen element operations with
// no calls inside. The spine does dispatch per node per element, but
// it is a one-register machine: the carried value stays in a local,
// each op reads one operand from a block vector, and no closure is
// called, so an op costs a switch and a load where a closure node
// costs a call, a return and its children's calls.
//
// Results are bitwise identical to the element kernels: each element
// sees the same float operations on the same operands in the same
// order; only when an operation runs changes. The planner's distance
// rule guarantees that this cannot change a value read or a value left
// in memory, and CertifyBlocks replays each plan against element order.

import (
	"slices"

	"arraycomp/internal/runtime"
)

const (
	// blockLen is the iteration count of one block, and so the length
	// of every scratch slot (1 KiB each).
	blockLen = 128
	// minBlock is the shortest range run in blocks; shorter ranges
	// (chain links, narrow tile rows) take the element kernel.
	minBlock = 16
)

// Range-kernel shapes, as compile reports count them.
const (
	ShapePhase   = "phase"
	ShapeBlock   = "block"
	ShapeSpine   = "spine"
	ShapeStencil = "stencil"
	ShapeGeneric = "generic"
)

// noBlockKernels turns block kernels off at compile time. Only tests
// set it, to hold block kernels bitwise against the element kernels.
var noBlockKernels bool

// --- plans ---

// blockPlan is planBlock's verdict for a loop.
type blockPlan struct {
	shape string
	// a is the body's one Assign: always for block and spine plans,
	// and for a one-statement phase plan that stores.
	a *Assign
	// hoisted are the subtrees evaluated a block at a time: a block
	// plan's maximal hoistable subtrees in tree order, a spine's
	// operands from the carried leaf up, a phase plan's right-hand
	// sides in body order.
	hoisted []VExpr
	// spine is the path from a spine plan's right-hand side down to
	// its carried leaf, and rd the leaf's offset from the store's.
	spine []VExpr
	rd    int64
	// A phase plan's body; carry[k] names the body scalars statement k
	// reads as one-iteration carries, and order is phase 1's statement
	// order (every scalar's statement before its readers).
	body  []Stmt
	carry [][]string
	order []int
}

// blockStore is one store of a body, as the distance rule sees it: the
// statement, and for an affine store its row-major offset form and
// per-iteration stride, built on first use.
type blockStore struct {
	stmt     int
	array    string
	subs     []IntExpr
	indirect bool
	w        *linForm
	ws       int64
}

// form returns the store's offset form and stride, or nil for an
// indirect store.
func (bp *blockPlanner) form(s *blockStore) (*linForm, int64) {
	if s.w == nil && !s.indirect {
		d := bp.p.Decl(s.array)
		s.w, s.ws = flatAccess(d, s.subs), offsetStride(bp.x, d, s.subs, nil)
		s.indirect = s.w == nil
	}
	return s.w, s.ws
}

// blockPlanner carries one loop's analysis.
type blockPlanner struct {
	p      *Program
	x      *Loop
	stores []blockStore
	// k is the statement whose right-hand side is being analysed.
	k int
	// limit is the longest block a kernel call can run: blockLen, or
	// the trip count when that is shorter.
	limit int64
	// leaves, set for a one-statement body, remembers leafOK's
	// verdicts, so the single-Assign shapes re-walk the right-hand side
	// cheaply.
	leaves  []leafVerdict
	leafBuf [16]leafVerdict
}

// leafVerdict is a remembered leafOK verdict.
type leafVerdict struct {
	r  *ARef
	ok bool
}

// planBlock picks x's block kernel shape, or returns nil when x is too
// short to run a block, its body holds a conditional or a loop, or a
// block would evaluate nothing worth it.
//
// A subtree is block-evaluable when every leaf is a constant, a scalar,
// an affine integer converted to float, or an unchecked read whose
// offset is affine in the iteration (directly, or as an unchecked
// gather through such a read), with no conditional, checked access or
// integer division in it. A read of an array the body stores must see
// the state before the block: judged against every store with the
// distance d (how many iterations earlier the store writes the element
// read), it needs d < 0, d = 0 with the store made by the same or a
// later statement, d ≥ the longest block, or no iteration's store
// writing it at all.
func planBlock(p *Program, x *Loop) *blockPlan {
	trip := tripCount(x.From, x.To, x.Step)
	if trip < minBlock || len(x.Body) == 0 {
		return nil // every range runs the element kernel
	}
	for _, s := range x.Body {
		switch s.(type) {
		case *Assign, *SetScalar:
		default:
			return nil
		}
	}
	bp := &blockPlanner{p: p, x: x, limit: min(blockLen, trip)}
	if len(x.Body) == 1 {
		bp.leaves = bp.leafBuf[:0]
	}
	if plan := bp.phases(); plan != nil || len(x.Body) != 1 {
		return plan
	}
	a, ok := x.Body[0].(*Assign)
	if !ok {
		return nil
	}
	// phases recorded a's store unless a phase block cannot store it.
	if len(bp.stores) == 0 && !bp.addStore(0, a) {
		return nil
	}
	var out []VExpr
	if bp.collect(a.Rhs, &out) {
		// A lone leaf on the right only pays when the block stores it
		// without a per-element residual, which a phase plan would.
		if !worthHoisting(a.Rhs) {
			return nil
		}
		return &blockPlan{shape: ShapeBlock, a: a, hoisted: []VExpr{a.Rhs}}
	}
	if blockStores(p, a) {
		if plan := bp.spinePlan(a); plan != nil {
			return plan
		}
	}
	if len(out) == 0 {
		return nil
	}
	return &blockPlan{shape: ShapeBlock, a: a, hoisted: out}
}

// phases plans x's body as a phase block, or returns nil.
func (bp *blockPlanner) phases() *blockPlan {
	body := bp.x.Body
	var assigned map[string]int // body scalar → its statement
	for k, s := range body {
		switch st := s.(type) {
		case *SetScalar:
			if _, dup := assigned[st.Name]; dup || !slices.Contains(bp.p.Scalars, st.Name) {
				return nil
			}
			if assigned == nil {
				assigned = map[string]int{}
			}
			assigned[st.Name] = k
		case *Assign:
			if !blockStores(bp.p, st) || !bp.addStore(k, st) {
				return nil
			}
		}
	}
	if !bp.storesOrdered() {
		return nil
	}
	plan := &blockPlan{shape: ShapePhase, body: body, carry: make([][]string, len(body))}
	var deps [][]int
	if assigned != nil {
		deps = make([][]int, len(body))
	}
	for k, s := range body {
		bp.k = k
		rhs := stmtRhs(s)
		var out []VExpr
		if !bp.collect(rhs, &out) {
			return nil
		}
		plan.hoisted = append(plan.hoisted, rhs)
		if assigned == nil {
			continue
		}
		for _, name := range scalarReads(rhs, nil) {
			j, ok := assigned[name]
			if !ok {
				continue
			}
			deps[k] = append(deps[k], j)
			if j >= k {
				plan.carry[k] = append(plan.carry[k], name)
			}
		}
	}
	if deps == nil {
		plan.order = make([]int, len(body))
		for k := range plan.order {
			plan.order[k] = k
		}
	} else if order, ok := topoOrder(deps); ok {
		plan.order = order
	} else {
		return nil // a scalar recurrence stays per element
	}
	if a, isA := body[0].(*Assign); isA && len(body) == 1 {
		plan.a = a
	}
	return plan
}

// stmtRhs is a phase-plan statement's right-hand side.
func stmtRhs(s Stmt) VExpr {
	if a, ok := s.(*Assign); ok {
		return a.Rhs
	}
	return s.(*SetScalar).Rhs
}

// scalarReads appends the distinct scalars e reads to out.
func scalarReads(e VExpr, out []string) []string {
	switch x := e.(type) {
	case *VScalar:
		if !slices.Contains(out, x.Name) {
			out = append(out, x.Name)
		}
	case *VBin:
		out = scalarReads(x.R, scalarReads(x.L, out))
	case *VNeg:
		out = scalarReads(x.X, out)
	case *VCall:
		for _, arg := range x.Args {
			out = scalarReads(arg, out)
		}
	}
	return out
}

// topoOrder orders the statements so that every statement follows the
// ones it depends on, preferring body order; ok is false on a cycle.
func topoOrder(deps [][]int) (order []int, ok bool) {
	state := make([]uint8, len(deps)) // 0 new, 1 on the path, 2 done
	var visit func(k int) bool
	visit = func(k int) bool {
		switch state[k] {
		case 1:
			return false
		case 2:
			return true
		}
		state[k] = 1
		for _, j := range deps[k] {
			if !visit(j) {
				return false
			}
		}
		state[k] = 2
		order = append(order, k)
		return true
	}
	for k := range deps {
		if !visit(k) {
			return nil, false
		}
	}
	return order, true
}

// addStore records statement k's store; false when its array is not
// declared at the subscripts' rank.
func (bp *blockPlanner) addStore(k int, a *Assign) bool {
	d := bp.p.Decl(a.Array)
	if d == nil || len(a.Subs) != d.B.Rank() {
		return false
	}
	bp.stores = append(bp.stores, blockStore{stmt: k, array: a.Array, subs: a.Subs, indirect: !affine(nil, a.Subs...)})
	return true
}

// storesOrdered reports whether running each store for a whole block,
// in body order, leaves every element as element order does: for
// stores S_a before S_b of one array, S_b must never write at t − e,
// 1 ≤ e < limit, the element S_a writes at t.
func (bp *blockPlanner) storesOrdered() bool {
	for i := range bp.stores {
		sa := &bp.stores[i]
		for j := i + 1; j < len(bp.stores); j++ {
			sb := &bp.stores[j]
			if sa.array != sb.array {
				continue
			}
			wa, _ := bp.form(sa)
			wb, ws := bp.form(sb)
			if wa == nil || wb == nil {
				return false
			}
			e, never, ok := lag(wb, wa, ws)
			if !never && (!ok || e >= 1 && e < bp.limit) {
				return false
			}
		}
	}
	return true
}

// lag is how many iterations before the access r the store w (stride
// ws) writes r's element. never reports that no iteration's store
// writes it; ok is false when the lag is not one constant.
func lag(w, r *linForm, ws int64) (e int64, never, ok bool) {
	if w == nil || r == nil || len(r.t) != len(w.t) {
		return 0, false, false
	}
	for v, k := range w.t {
		if r.t[v] != k {
			return 0, false, false
		}
	}
	delta := r.c - w.c
	switch {
	case ws == 0:
		return 0, delta != 0, delta != 0
	case delta%ws != 0:
		return 0, true, true
	}
	return -delta / ws, false, true
}

// blockStores reports whether a block can perform a's store itself:
// a plain, unchecked, untracked store at an affine offset.
func blockStores(p *Program, a *Assign) bool {
	d := p.Decl(a.Array)
	return d != nil && a.Accumulate == nil && !a.CheckBounds && !a.CheckCollision &&
		(!d.TrackDefs || a.NoTrack) && affine(a.Off, a.Subs...)
}

// worthHoisting reports whether hoisting e alone saves per-element
// work: a lone constant, scalar or affine read costs the residual as
// much as the scratch read that would replace it.
func worthHoisting(e VExpr) bool {
	switch x := e.(type) {
	case *VConst, *VScalar:
		return false
	case *ARef:
		return gatherIndex(x) != nil
	}
	return true
}

// collect reports whether e can be evaluated a block at a time; when
// it cannot, the maximal hoistable subtrees under it that are worth
// hoisting are appended to out. Conditional arms are never entered: a
// read there may be in bounds only under its guard.
func (bp *blockPlanner) collect(e VExpr, out *[]VExpr) bool {
	var kids []VExpr
	switch x := e.(type) {
	case *VConst:
		return true
	case *VScalar:
		return slices.Contains(bp.p.Scalars, x.Name)
	case *VFromInt:
		return affine(nil, x.X)
	case *ARef:
		for _, v := range bp.leaves {
			if v.r == x {
				return v.ok
			}
		}
		ok := bp.leafOK(x)
		if bp.leaves != nil {
			bp.leaves = append(bp.leaves, leafVerdict{x, ok})
		}
		return ok
	case *VBin:
		kids = []VExpr{x.L, x.R}
	case *VNeg:
		kids = []VExpr{x.X}
	case *VCall:
		if b := runtime.LookupBuiltin(x.Fn); b == nil || len(x.Args) != b.Arity {
			return false
		}
		kids = x.Args
	default:
		return false
	}
	var ok [2]bool // builtins take at most two arguments
	all := true
	for i, k := range kids {
		ok[i] = bp.collect(k, out)
		all = all && ok[i]
	}
	if all {
		return true
	}
	for i, k := range kids {
		if ok[i] && worthHoisting(k) {
			*out = append(*out, k)
		}
	}
	return false
}

// hoistable reports whether e can be evaluated a block at a time.
func (bp *blockPlanner) hoistable(e VExpr) bool {
	var discard []VExpr
	return bp.collect(e, &discard)
}

// leafOK reports whether an array read can be a block leaf.
func (bp *blockPlanner) leafOK(r *ARef) bool {
	if r.CheckBounds || r.CheckDefined {
		return false
	}
	d := bp.p.Decl(r.Array)
	if d == nil || len(r.Subs) != d.B.Rank() {
		return false
	}
	if affine(r.Off, r.Subs...) {
		return bp.readOK(d, r.Subs)
	}
	g := gatherIndex(r)
	if g == nil || bp.stored(r.Array) {
		return false
	}
	gd := bp.p.Decl(g.Array)
	if gd == nil || len(g.Subs) != gd.B.Rank() || !affine(nil, g.Subs...) {
		return false
	}
	return bp.readOK(gd, g.Subs)
}

// stored reports whether the body stores arr.
func (bp *blockPlanner) stored(arr string) bool {
	return slices.ContainsFunc(bp.stores, func(s blockStore) bool { return s.array == arr })
}

// readOK applies the distance rule to an affine read of d at subs by
// statement bp.k.
func (bp *blockPlanner) readOK(d *ArrayDecl, subs []IntExpr) bool {
	var r *linForm
	for i := range bp.stores {
		s := &bp.stores[i]
		if s.array != d.Name {
			continue
		}
		w, ws := bp.form(s)
		if w == nil {
			return false // an indirect store may write anywhere
		}
		if r == nil {
			r = flatAccess(d, subs)
		}
		e, never, ok := lag(w, r, ws)
		switch {
		case never:
		case !ok:
			return false
		case e == 0 && s.stmt < bp.k, e > 0 && e < bp.limit:
			return false
		}
	}
	return true
}

// spinePlan plans a's spine: the right-hand side must reach exactly one
// leaf a block cannot evaluate, a carried read of the stored array,
// through arithmetic and builtin nodes whose other operands can.
func (bp *blockPlanner) spinePlan(a *Assign) *blockPlan {
	plan := &blockPlan{shape: ShapeSpine, a: a}
	for e := a.Rhs; ; {
		plan.spine = append(plan.spine, e)
		var kids []VExpr
		switch x := e.(type) {
		case *ARef:
			var ok bool
			if plan.rd, ok = bp.carried(x); !ok {
				return nil
			}
			slices.Reverse(plan.hoisted)
			return plan
		case *VBin:
			kids = []VExpr{x.L, x.R}
		case *VNeg:
			kids = []VExpr{x.X}
		case *VCall:
			if b := runtime.LookupBuiltin(x.Fn); b == nil || len(x.Args) != b.Arity {
				return nil
			}
			kids = x.Args
		default:
			return nil
		}
		next := -1
		for i, k := range kids {
			if !bp.hoistable(k) {
				if next >= 0 {
					return nil // two carried operands
				}
				next = i
			}
		}
		if next < 0 {
			return nil
		}
		for i, k := range kids {
			if i != next {
				plan.hoisted = append(plan.hoisted, k)
			}
		}
		e = kids[next]
	}
}

// carried reports whether r is a spine leaf, an unchecked affine read
// of the body's one store's element d iterations back, 1 ≤ d < limit,
// and returns its offset from the store's.
func (bp *blockPlanner) carried(r *ARef) (int64, bool) {
	s := &bp.stores[0]
	if r.Array != s.array || r.CheckBounds || r.CheckDefined || s.indirect || !affine(r.Off, r.Subs...) {
		return 0, false
	}
	w, ws := bp.form(s)
	rf := flatAccess(bp.p.Decl(r.Array), r.Subs)
	e, never, ok := lag(w, rf, ws)
	if !ok || never || e < 1 || e >= bp.limit {
		return 0, false
	}
	return rf.c - w.c, true
}

// affine reports that off (when not nil) and every subscript are
// affine forms, without building them. It rejects a product of two
// forms with variables even where the variables cancel, which intLin
// would accept: a rejected leaf merely stays per element.
func affine(off IntExpr, subs ...IntExpr) bool {
	if ok, _ := affineVars(off); off != nil && !ok {
		return false
	}
	for _, s := range subs {
		if ok, _ := affineVars(s); !ok {
			return false
		}
	}
	return true
}

// affineVars reports whether e is affine and whether it mentions a
// variable.
func affineVars(e IntExpr) (ok, vars bool) {
	switch x := e.(type) {
	case *IConst:
		return true, false
	case *IVar:
		return true, true
	case *ILin:
		return true, len(x.Terms) > 0
	case *IBin:
		lok, lv := affineVars(x.L)
		rok, rv := affineVars(x.R)
		switch {
		case !lok || !rok:
			return false, false
		case x.Op == '+' || x.Op == '-':
			return true, lv || rv
		case x.Op == '*':
			return !lv || !rv, lv || rv
		}
	}
	return false, false
}

// gatherIndex returns the index read of an unchecked rank-1 gather
// a!(idx!(…)), or nil.
func gatherIndex(r *ARef) *IIdx {
	if len(r.Subs) != 1 || r.CheckBounds || r.CheckDefined {
		return nil
	}
	g, ok := r.Subs[0].(*IIdx)
	if !ok || g.CheckBounds {
		return nil
	}
	return g
}

// flatAccess is the row-major offset of d at subs as an affine form,
// or nil when a subscript is not affine.
func flatAccess(d *ArrayDecl, subs []IntExpr) *linForm {
	out := &linForm{t: map[string]int64{}}
	for k, s := range subs {
		f := intLin(s)
		if f == nil {
			return nil
		}
		// out = out·extent + (f − lo)
		out.scale(d.B.Extent(k))
		out.c += f.c - d.B.Lo[k]
		for v, c := range f.t {
			out.addTerm(v, c)
		}
	}
	return out
}

// offsetStride is the change from one iteration of x to the next of
// the offset a compiled access evaluates: the strength-reduced off when
// present, else d's row-major offset at subs. Every form must be
// affine.
func offsetStride(x *Loop, d *ArrayDecl, subs []IntExpr, off IntExpr) int64 {
	if off != nil {
		return iterStride(x, off)
	}
	var s int64
	for k, sub := range subs {
		s = s*d.B.Extent(k) + iterStride(x, sub)
	}
	return s
}

// iterStride is the change of the affine e from one iteration of x to
// the next: the loop variable and x's induction registers advance,
// everything else is fixed for the duration of the loop.
func iterStride(x *Loop, e IntExpr) int64 {
	switch v := e.(type) {
	case *IVar:
		return varStep(x, v.Name)
	case *ILin:
		var s int64
		for _, t := range v.Terms {
			s += t.Coeff * varStep(x, t.Var)
		}
		return s
	case *IBin:
		switch v.Op {
		case '+':
			return iterStride(x, v.L) + iterStride(x, v.R)
		case '-':
			return iterStride(x, v.L) - iterStride(x, v.R)
		}
		// A product of affine forms has a variable-free factor.
		if _, vars := affineVars(v.L); !vars {
			return constValue(v.L) * iterStride(x, v.R)
		}
		return iterStride(x, v.L) * constValue(v.R)
	}
	return 0
}

func varStep(x *Loop, name string) int64 {
	if name == x.Var {
		return x.Step
	}
	for _, ind := range x.Inds {
		if ind.Name == name {
			return ind.Step
		}
	}
	return 0
}

// constValue evaluates a variable-free affine form.
func constValue(e IntExpr) int64 {
	switch v := e.(type) {
	case *IConst:
		return v.Value
	case *ILin:
		return v.Const
	case *IBin:
		l, r := constValue(v.L), constValue(v.R)
		switch v.Op {
		case '+':
			return l + r
		case '-':
			return l - r
		}
		return l * r
	}
	return 0
}

// readsArray reports whether any read under e touches arr.
func readsArray(e VExpr, arr string) bool {
	switch x := e.(type) {
	case *ARef:
		if x.Array == arr {
			return true
		}
		g := gatherIndex(x)
		return g != nil && g.Array == arr
	case *VBin:
		return readsArray(x.L, arr) || readsArray(x.R, arr)
	case *VNeg:
		return readsArray(x.X, arr)
	case *VCall:
		for _, arg := range x.Args {
			if readsArray(arg, arr) {
				return true
			}
		}
	}
	return false
}

// --- block evaluation ---

// bfn evaluates a hoisted subtree for the m iterations of the block
// whose registers are bound in f. It returns the m values, or a nil
// slice and the one value every iteration shares.
type bfn func(f *frame, m int) ([]float64, float64)

// blockVal is one value of the running block, as a bfn returns it.
type blockVal struct {
	v []float64
	s float64
}

// vScratch reads hoisted subtree values at the current block index
// (frame.bi). It appears only in the residual of a block kernel,
// never in a Program.
type vScratch struct{ slot int }

func (*vScratch) vexprNode() {}

// blockBuf is scratch slot k's first m elements; k < 0 names the
// destination slice of a block that stores its result directly.
func (f *frame) blockBuf(k, m int) []float64 {
	if k < 0 {
		return f.dst[:m]
	}
	return f.scratch[k*blockLen : k*blockLen+m]
}

// blockCompiler compiles one loop's block operations.
type blockCompiler struct {
	c     *compiler
	x     *Loop
	slots int // scratch slots used
	vals  int // frame.vals entries used
	// A phase plan's body scalars: the statement assigning each, the
	// scratch slot of each one read as a carry, and the carries of the
	// statement being compiled.
	scalars map[string]int
	carries map[string]int
	carried []string
}

// leafStride is the per-iteration stride of a leaf's compiled offset.
func (bc *blockCompiler) leafStride(arr string, subs []IntExpr, off IntExpr) int64 {
	return offsetStride(bc.x, bc.c.prog.Decl(arr), subs, off)
}

// bufferless reports whether e's block value never occupies a scratch
// slot of its own: constants, scalars (a body scalar's vector lives in
// its statement's slot or carry slot), and affine reads that are a
// subslice of their array or one element of it.
func (bc *blockCompiler) bufferless(e VExpr) bool {
	switch x := e.(type) {
	case *VConst, *VScalar:
		return true
	case *ARef:
		if gatherIndex(x) != nil {
			return false
		}
		s := bc.leafStride(x.Array, x.Subs, x.Off)
		return s == 0 || s == 1
	}
	return false
}

// expr compiles a hoisted subtree. A value that needs storage is
// written to slot out; slots from free up are available to subtrees.
// Every operation is elementwise, so an operand may share its
// result's slot.
func (bc *blockCompiler) expr(e VExpr, out, free int) bfn {
	c := bc.c
	switch x := e.(type) {
	case *VConst:
		v := x.Value
		return func(*frame, int) ([]float64, float64) { return nil, v }
	case *VScalar:
		if k, ok := bc.scalars[x.Name]; ok {
			if slices.Contains(bc.carried, x.Name) {
				slot := bc.carries[x.Name]
				return func(f *frame, m int) ([]float64, float64) { return f.blockBuf(slot, m), 0 }
			}
			return func(f *frame, m int) ([]float64, float64) {
				if v := f.vals[k]; v.v != nil {
					return v.v[:m], 0
				}
				return nil, f.vals[k].s
			}
		}
		slot := c.floatSlots[x.Name]
		return func(f *frame, _ int) ([]float64, float64) { return nil, f.floats[slot] }
	case *VFromInt:
		at, s := c.compileInt(x.X), iterStride(bc.x, x.X)
		if s == 0 {
			return func(f *frame, _ int) ([]float64, float64) { return nil, float64(at(f)) }
		}
		return func(f *frame, m int) ([]float64, float64) {
			v, dst := at(f), f.blockBuf(out, m)
			for i := range dst {
				dst[i] = float64(v)
				v += s
			}
			return dst, 0
		}
	case *ARef:
		return bc.leaf(x, out)
	case *VNeg:
		a := bc.expr(x.X, out, free)
		return func(f *frame, m int) ([]float64, float64) {
			v, s := a(f, m)
			if v == nil {
				return nil, -s
			}
			dst := f.blockBuf(out, m)
			for i, e := range v[:m] {
				dst[i] = -e
			}
			return dst, 0
		}
	case *VBin:
		ro, next := bc.operandSlots(x.L, x.R, out, free)
		l := bc.expr(x.L, out, next)
		r := bc.expr(x.R, ro, next)
		op := x.Op
		return func(f *frame, m int) ([]float64, float64) {
			lv, ls := l(f, m)
			rv, rs := r(f, m)
			if lv == nil && rv == nil {
				return nil, scalarOp(op, ls, rs)
			}
			dst := f.blockBuf(out, m)
			blockBin(op, dst, lv, rv, ls, rs)
			return dst, 0
		}
	case *VCall:
		fn := c.builtin(x).Apply
		if len(x.Args) == 1 {
			a := bc.expr(x.Args[0], out, free)
			return func(f *frame, m int) ([]float64, float64) {
				v, s := a(f, m)
				if v == nil {
					return nil, fn(s, 0)
				}
				dst := f.blockBuf(out, m)
				for i, e := range v[:m] {
					dst[i] = fn(e, 0)
				}
				return dst, 0
			}
		}
		ro, next := bc.operandSlots(x.Args[0], x.Args[1], out, free)
		l := bc.expr(x.Args[0], out, next)
		r := bc.expr(x.Args[1], ro, next)
		return func(f *frame, m int) ([]float64, float64) {
			lv, ls := l(f, m)
			rv, rs := r(f, m)
			if lv == nil && rv == nil {
				return nil, fn(ls, rs)
			}
			dst := f.blockBuf(out, m)
			for i := range dst {
				a, b := ls, rs
				if lv != nil {
					a = lv[i]
				}
				if rv != nil {
					b = rv[i]
				}
				dst[i] = fn(a, b)
			}
			return dst, 0
		}
	}
	c.fail("block kernel: unexpected %T", e)
	return nil
}

// operandSlots assigns a binary node's operand slots: the left operand
// shares the node's slot out, and so does the right one unless both
// need storage, when the right takes slot free. next is the first
// slot the operands' subtrees may use.
func (bc *blockCompiler) operandSlots(l, r VExpr, out, free int) (ro, next int) {
	if bc.bufferless(l) || bc.bufferless(r) {
		return out, free
	}
	bc.slots = max(bc.slots, free+1)
	return free, free + 1
}

// leaf compiles a hoisted array read: a subslice of the array (or of a
// stream slot's window) at unit stride, one element at stride 0, and
// a strided or gathered copy into slot out otherwise.
func (bc *blockCompiler) leaf(r *ARef, out int) bfn {
	c := bc.c
	if g := gatherIndex(r); g != nil {
		slot := c.arraySlot(r.Array)
		lo := c.prog.Arrays[slot].B.Lo[0]
		win := c.windowed(slot)
		iSlot, iOff := c.compileOffset(g.Array, g.Subs, nil, false)
		is := bc.leafStride(g.Array, g.Subs, nil)
		return func(f *frame, m int) ([]float64, float64) {
			data, idx := f.arrays[slot].Data, f.arrays[iSlot].Data
			base := lo
			if win {
				base += f.shift[slot]
			}
			o := iOff(f)
			dst := f.blockBuf(out, m)
			for i := range dst {
				dst[i] = data[int64(idx[o])-base]
				o += is
			}
			return dst, 0
		}
	}
	at := bc.offset(r.Array, r.Subs, r.Off)
	slot := c.arraySlot(r.Array)
	switch s := bc.leafStride(r.Array, r.Subs, r.Off); s {
	case 0:
		return func(f *frame, _ int) ([]float64, float64) { return nil, f.arrays[slot].Data[at(f)] }
	case 1:
		return func(f *frame, m int) ([]float64, float64) {
			o := at(f)
			return f.arrays[slot].Data[o : o+int64(m)], 0
		}
	default:
		return func(f *frame, m int) ([]float64, float64) {
			data, o := f.arrays[slot].Data, at(f)
			dst := f.blockBuf(out, m)
			for i := range dst {
				dst[i] = data[o]
				o += s
			}
			return dst, 0
		}
	}
}

// offset compiles an unchecked access's index into its slot's Data: the
// array offset, less the window's shift in a stream stage.
func (bc *blockCompiler) offset(arr string, subs []IntExpr, off IntExpr) intFn {
	slot, fn := bc.c.compileOffset(arr, subs, off, false)
	if bc.c.windowed(slot) {
		return func(f *frame) int64 { return fn(f) - f.shift[slot] }
	}
	return fn
}

func scalarOp(op byte, l, r float64) float64 {
	switch op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	}
	return l / r
}

// blockBin computes dst = l op r elementwise, where a nil operand
// slice stands for its scalar.
func blockBin(op byte, dst, l, r []float64, ls, rs float64) {
	n := len(dst)
	switch {
	case l != nil && r != nil:
		l, r = l[:n], r[:n]
		switch op {
		case '+':
			for i := range dst {
				dst[i] = l[i] + r[i]
			}
		case '-':
			for i := range dst {
				dst[i] = l[i] - r[i]
			}
		case '*':
			for i := range dst {
				dst[i] = l[i] * r[i]
			}
		default:
			for i := range dst {
				dst[i] = l[i] / r[i]
			}
		}
	case l != nil:
		l = l[:n]
		switch op {
		case '+':
			for i := range dst {
				dst[i] = l[i] + rs
			}
		case '-':
			for i := range dst {
				dst[i] = l[i] - rs
			}
		case '*':
			for i := range dst {
				dst[i] = l[i] * rs
			}
		default:
			for i := range dst {
				dst[i] = l[i] / rs
			}
		}
	default:
		r = r[:n]
		switch op {
		case '+':
			for i := range dst {
				dst[i] = ls + r[i]
			}
		case '-':
			for i := range dst {
				dst[i] = ls - r[i]
			}
		case '*':
			for i := range dst {
				dst[i] = ls * r[i]
			}
		default:
			for i := range dst {
				dst[i] = ls / r[i]
			}
		}
	}
}

// fillFrom stores a block value into dst unless it is already there.
// An overlapping source is read as it was before the store.
func fillFrom(dst, v []float64, s float64) {
	switch {
	case v == nil:
		for i := range dst {
			dst[i] = s
		}
	case &v[0] != &dst[0]:
		copy(dst, v)
	}
}

// storeTo stores a block value at o, o+ws, … of data.
func storeTo(data []float64, o, ws int64, v blockVal, m int) {
	if ws == 1 {
		fillFrom(data[o:o+int64(m)], v.v, v.s)
		return
	}
	for i := range m {
		s := v.s
		if v.v != nil {
			s = v.v[i]
		}
		data[o] = s
		o += ws
	}
}

// --- the block kernels ---

// compileBlockLoop compiles x's block kernel and names its shape, or
// returns nil when planBlock finds none. elem is x's element kernel,
// which runs ranges shorter than minBlock.
func (c *compiler) compileBlockLoop(x *Loop, l *cLoop, elem rangeFn) (rangeFn, string) {
	if noBlockKernels {
		return nil, ""
	}
	plan := planBlock(c.prog, x)
	if plan == nil {
		return nil, ""
	}
	bc := &blockCompiler{c: c, x: x}
	var block func(f *frame, m int)
	var resid rangeFn
	switch plan.shape {
	case ShapePhase:
		block = bc.phases(plan)
	case ShapeSpine:
		block = bc.spine(plan)
	default:
		block, resid = bc.hoisted(plan, l)
	}
	need, nvals := bc.slots*blockLen, bc.vals
	return func(f *frame, t0, n int64) {
		if n < minBlock {
			elem(f, t0, n)
			return
		}
		if len(f.scratch) < need {
			f.scratch = make([]float64, need)
		}
		if len(f.vals) < nvals {
			f.vals = make([]blockVal, nvals)
		}
		for n > 0 {
			m := min(n, blockLen)
			l.bind(f, t0)
			block(f, int(m))
			if resid != nil {
				resid(f, t0, m)
			}
			t0 += m
			n -= m
		}
		// Drop the array subslices the block held.
		clear(f.vals[:nvals])
		clear(f.spine)
	}, plan.shape
}

// phases compiles a phase plan's block: phase 1 evaluates every
// right-hand side into its statement's slot (or straight into the
// destination, or as a subslice of an array) and builds the carries,
// phase 2 sets the body scalars' registers, phase 3 runs the stores.
func (bc *blockCompiler) phases(plan *blockPlan) func(*frame, int) {
	c := bc.c
	body := plan.body
	nb := len(body)
	type stmt struct {
		eval  bfn
		reg   int   // float register of a SetScalar, or -1
		carry int   // scratch slot of its carry, or -1
		at    intFn // store offset of an Assign
		slot  int   // array slot of an Assign
		ws    int64
		store bool // the store runs in phase 3
		// direct evaluates into the destination in phase 1; copyOut
		// copies a value that may alias an array an earlier statement
		// stores into the statement's slot before phase 3.
		direct, copyOut bool
	}
	stmts := make([]stmt, nb)
	for k, s := range body {
		stmts[k].reg, stmts[k].carry = -1, -1
		if ss, ok := s.(*SetScalar); ok {
			if bc.scalars == nil {
				bc.scalars = map[string]int{}
			}
			bc.scalars[ss.Name] = k
			stmts[k].reg = c.floatSlots[ss.Name]
		}
	}
	// Statement k's value takes slot k; carries take the next slots,
	// in order of first use; subtrees share the slots after those.
	free := nb
	for _, names := range plan.carry {
		for _, name := range names {
			if _, ok := bc.carries[name]; !ok {
				if bc.carries == nil {
					bc.carries = map[string]int{}
				}
				bc.carries[name] = free
				stmts[bc.scalars[name]].carry = free
				free++
			}
		}
	}
	bc.slots, bc.vals = free, nb
	for k, s := range body {
		st := &stmts[k]
		out := k
		if x, ok := s.(*Assign); ok {
			if c.prog.Arrays[c.arraySlot(x.Array)].Role == RoleIn {
				c.fail("assignment to input array %q", x.Array)
			}
			st.slot = c.arraySlot(x.Array)
			st.at = bc.offset(x.Array, x.Subs, x.Off)
			st.ws = bc.leafStride(x.Array, x.Subs, x.Off)
			st.direct = st.ws == 1 && bc.soleAccess(plan, k, x.Array)
			st.store = !st.direct
			for _, prev := range body[:k] {
				if pa, ok := prev.(*Assign); ok && bc.mayAlias(plan, k, pa.Array) {
					st.copyOut = true
				}
			}
			if st.direct {
				out = -1
			}
		}
		bc.carried = plan.carry[k]
		st.eval = bc.expr(stmtRhs(s), out, free)
	}
	order := plan.order
	return func(f *frame, m int) {
		// Phase 1.
		for _, k := range order {
			st := &stmts[k]
			if st.direct {
				f.dst = f.arrays[st.slot].Data[st.at(f):]
				v, s := st.eval(f, m)
				fillFrom(f.dst[:m], v, s)
				f.dst = nil
				continue
			}
			v, s := st.eval(f, m)
			if st.copyOut && v != nil {
				buf := f.blockBuf(k, m)
				fillFrom(buf, v, 0)
				v = buf
			}
			f.vals[k] = blockVal{v, s}
			if st.carry >= 0 {
				buf := f.blockBuf(st.carry, m)
				buf[0] = f.floats[st.reg]
				if v == nil {
					fillFrom(buf[1:], nil, s)
				} else {
					copy(buf[1:], v[:m-1])
				}
			}
		}
		// Phase 2.
		for k := range stmts {
			if st := &stmts[k]; st.reg >= 0 {
				v := f.vals[k]
				if v.v != nil {
					v.s = v.v[m-1]
				}
				f.floats[st.reg] = v.s
			}
		}
		// Phase 3.
		for k := range stmts {
			if st := &stmts[k]; st.store {
				storeTo(f.arrays[st.slot].Data, st.at(f), st.ws, f.vals[k], m)
			}
		}
	}
}

// soleAccess reports whether statement k's store is the plan's only
// access to arr, so the block may write arr while it evaluates.
func (bc *blockCompiler) soleAccess(plan *blockPlan, k int, arr string) bool {
	for j, s := range plan.body {
		if a, ok := s.(*Assign); ok && j != k && a.Array == arr {
			return false
		}
		if readsArray(stmtRhs(s), arr) {
			return false
		}
	}
	return true
}

// mayAlias reports whether statement k's value may be a subslice of
// arr: a unit-stride read, directly or through same-iteration scalars.
func (bc *blockCompiler) mayAlias(plan *blockPlan, k int, arr string) bool {
	switch x := stmtRhs(plan.body[k]).(type) {
	case *ARef:
		return x.Array == arr && gatherIndex(x) == nil && bc.leafStride(x.Array, x.Subs, x.Off) == 1
	case *VScalar:
		j, ok := bc.scalars[x.Name]
		return ok && !slices.Contains(plan.carry[k], x.Name) && bc.mayAlias(plan, j, arr)
	}
	return false
}

// hoisted compiles a single-store block plan: the hoisted subtrees
// into scratch, and the residual store that reads them per element.
func (bc *blockCompiler) hoisted(plan *blockPlan, l *cLoop) (func(*frame, int), rangeFn) {
	c, a, x := bc.c, plan.a, bc.x
	n := len(plan.hoisted)
	bc.slots = n
	evals := make([]bfn, n)
	slots := make(map[VExpr]int, n)
	for k, h := range plan.hoisted {
		evals[k] = bc.expr(h, k, n)
		slots[h] = k
	}
	block := func(f *frame, m int) {
		for k, ev := range evals {
			v, s := ev(f, m)
			fillFrom(f.blockBuf(k, m), v, s)
		}
	}
	ra := *a
	ra.Rhs = substHoisted(a.Rhs, slots)
	resid := c.compileStencilLoop(x, l.inds, &ra)
	if resid == nil {
		resid = c.residualLoop(l, &ra)
	}
	return block, resid
}

// Spine op codes: the carried value v meets the operand x (a block
// vector) on the side the name says, so -L is x − v and -R is v − x.
const (
	spAddL uint8 = iota
	spAddR
	spSubL
	spSubR
	spMulL
	spMulR
	spDivL
	spDivR
	spNeg
	spCall1
	spCallL // fn(x, v)
	spCallR // fn(v, x)
)

// spineBin is the op code of a binary node whose operand is on the
// left or the right.
func spineBin(op byte, left bool) uint8 {
	code := spDivL
	switch op {
	case '+':
		code = spAddL
	case '-':
		code = spSubL
	case '*':
		code = spMulL
	}
	if !left {
		code++
	}
	return code
}

// spineOp is one node of a spine, from the carried leaf up. A frame's
// copy (frame.spine) holds the running block's operand vector in x.
type spineOp struct {
	code uint8
	arg  int // the operand's index in the spine's operand list, or -1
	fn   func(a, b float64) float64
	x    []float64
}

// spine compiles a spine plan's block: the operands a block at a time,
// then the op list element by element. When the carried read is one
// iteration back, the value just stored stays in the local register.
func (bc *blockCompiler) spine(plan *blockPlan) func(*frame, int) {
	c, a := bc.c, plan.a
	path := plan.spine
	var ops []spineOp
	var operands []VExpr
	operand := func(e VExpr) int {
		operands = append(operands, e)
		return len(operands) - 1
	}
	for i := len(path) - 2; i >= 0; i-- {
		child := path[i+1]
		switch x := path[i].(type) {
		case *VBin:
			left := x.R == child // the operand is the left one
			other := x.L
			if !left {
				other = x.R
			}
			ops = append(ops, spineOp{code: spineBin(x.Op, left), arg: operand(other)})
		case *VNeg:
			ops = append(ops, spineOp{code: spNeg, arg: -1})
		case *VCall:
			fn := c.builtin(x).Apply
			switch {
			case len(x.Args) == 1:
				ops = append(ops, spineOp{code: spCall1, arg: -1, fn: fn})
			case x.Args[1] == child:
				ops = append(ops, spineOp{code: spCallL, arg: operand(x.Args[0]), fn: fn})
			default:
				ops = append(ops, spineOp{code: spCallR, arg: operand(x.Args[1]), fn: fn})
			}
		}
	}
	n := len(operands)
	bc.slots = n
	evals := make([]bfn, n)
	for k, e := range operands {
		evals[k] = bc.expr(e, k, n)
	}
	rd := plan.rd
	slot := c.arraySlot(a.Array)
	at := bc.offset(a.Array, a.Subs, a.Off)
	ws := bc.leafStride(a.Array, a.Subs, a.Off)
	carry1 := rd == -ws
	return func(f *frame, m int) {
		f.spine = append(f.spine[:0], ops...)
		for j := range f.spine {
			op := &f.spine[j]
			if op.arg < 0 {
				continue
			}
			v, s := evals[op.arg](f, m)
			if v == nil {
				v = f.blockBuf(op.arg, m)
				fillFrom(v, nil, s)
			}
			op.x = v[:m]
		}
		ops := f.spine
		data, o := f.arrays[slot].Data, at(f)
		v := data[o+rd]
		for i := range m {
			if !carry1 {
				v = data[o+rd]
			}
			for j := range ops {
				op := &ops[j]
				switch op.code {
				case spAddL:
					v = op.x[i] + v
				case spAddR:
					v = v + op.x[i]
				case spSubL:
					v = op.x[i] - v
				case spSubR:
					v = v - op.x[i]
				case spMulL:
					v = op.x[i] * v
				case spMulR:
					v = v * op.x[i]
				case spDivL:
					v = op.x[i] / v
				case spDivR:
					v = v / op.x[i]
				case spNeg:
					v = -v
				case spCall1:
					v = op.fn(v, 0)
				case spCallL:
					v = op.fn(op.x[i], v)
				default:
					v = op.fn(v, op.x[i])
				}
			}
			data[o] = v
			o += ws
		}
	}
}

// residualLoop is the generic element loop over a block's residual
// store: registers bound at t0 by the block, the loop variable kept
// current (so a failure ranks), and frame.bi tracking the iteration's
// index in the block.
func (c *compiler) residualLoop(l *cLoop, ra *Assign) rangeFn {
	st := c.compileAssign(ra)
	slot, from, step, inds := l.slot, l.from, l.step, l.inds
	return func(f *frame, t0, m int64) {
		v := from + t0*step
		for i := range int(m) {
			f.ints[slot] = v
			f.bi = i
			st(f)
			v += step
			for r := range inds {
				f.ints[inds[r].slot] += inds[r].step
			}
		}
	}
}

// substHoisted rebuilds e with every hoisted subtree replaced by its
// scratch read.
func substHoisted(e VExpr, slots map[VExpr]int) VExpr {
	if k, ok := slots[e]; ok {
		return &vScratch{slot: k}
	}
	switch x := e.(type) {
	case *VBin:
		return &VBin{Op: x.Op, L: substHoisted(x.L, slots), R: substHoisted(x.R, slots)}
	case *VNeg:
		return &VNeg{X: substHoisted(x.X, slots)}
	case *VCall:
		args := make([]VExpr, len(x.Args))
		for i, arg := range x.Args {
			args[i] = substHoisted(arg, slots)
		}
		return &VCall{Fn: x.Fn, Args: args}
	}
	return e
}

// --- the stencil row kernel ---

// sfn evaluates a stencil body expression at offset o — the current
// value of the nest's shared unit-stride induction register. Every
// array access in a recognized stencil row is Data[o+const], so one
// register add replaces the whole per-access environment traffic of
// the generic closure path.
type sfn func(f *frame, o int64) float64

// compileStencilLoop compiles the interior row kernel of a recognized
// stencil loop (Loop.Sten, see stencil.go): a single unchecked
// offset-form assignment whose reads all hang off the same unit-stride
// register. The kernel hoists the register into a local, skips the
// loop-variable and register slot updates entirely (nothing in the
// body reads them — all accesses are offset-form and VFromInt is
// rejected), and evaluates the closure tree in the exact operation
// order of the generic path, so results are bitwise identical.
//
// resid, when non-nil, is a block kernel's residual of the body's
// Assign: the kernel then stores resid's right-hand side and keeps
// frame.bi at the iteration's index in the block.
func (c *compiler) compileStencilLoop(x *Loop, inds []cInd, resid *Assign) rangeFn {
	if x.Sten == nil || x.Step != 1 || len(x.Body) != 1 {
		return nil
	}
	a, ok := x.Body[0].(*Assign)
	if !ok || a.CheckBounds || a.CheckCollision || a.Accumulate != nil || a.Off == nil {
		return nil
	}
	dstSlot, ok := c.arraySlots[a.Array]
	if !ok || c.prog.Arrays[dstSlot].TrackDefs {
		return nil
	}
	dInit, dOff, ok := unitStrideOff(x, inds, a.Off)
	if !ok {
		return nil
	}
	rhs := a.Rhs
	if resid != nil {
		rhs = resid.Rhs
	}
	base := a.Off.(*ILin).Terms[0].Var
	body := c.compileStencilExpr(rhs, base)
	if body == nil {
		return nil
	}
	win := c.windowed(dstSlot)
	return func(f *frame, t0, n int64) {
		data := f.arrays[dstSlot].Data
		d := dOff
		if win {
			d -= f.shift[dstSlot]
		}
		o := dInit(f) + t0
		if resid != nil {
			for i := range int(n) {
				f.bi = i
				data[o+d] = body(f, o)
				o++
			}
			return
		}
		for ; n > 0; n-- {
			data[o+d] = body(f, o)
			o++
		}
	}
}

// compileStencilExpr compiles a stencil body expression to an sfn, or
// nil when a subexpression needs the generic path. Every ARef must be
// offset-form over the single base register; calls, conditionals, and
// int conversions (which could observe the unmaintained loop variable)
// are rejected.
func (c *compiler) compileStencilExpr(e VExpr, base string) sfn {
	switch x := e.(type) {
	case *VConst:
		v := x.Value
		return func(*frame, int64) float64 { return v }
	case *VScalar:
		slot, ok := c.floatSlots[x.Name]
		if !ok {
			return nil
		}
		return func(f *frame, _ int64) float64 { return f.floats[slot] }
	case *vScratch:
		k := x.slot * blockLen
		return func(f *frame, _ int64) float64 { return f.scratch[k+f.bi] }
	case *ARef:
		if x.CheckBounds || x.CheckDefined || x.Off == nil {
			return nil
		}
		lin, isLin := x.Off.(*ILin)
		if !isLin || len(lin.Terms) != 1 || lin.Terms[0].Coeff != 1 || lin.Terms[0].Var != base {
			return nil
		}
		slot, ok := c.arraySlots[x.Array]
		if !ok || c.prog.Arrays[slot].TrackDefs {
			return nil
		}
		d := lin.Const
		if c.windowed(slot) {
			return func(f *frame, o int64) float64 { return f.arrays[slot].Data[o+d-f.shift[slot]] }
		}
		return func(f *frame, o int64) float64 { return f.arrays[slot].Data[o+d] }
	case *VBin:
		l := c.compileStencilExpr(x.L, base)
		r := c.compileStencilExpr(x.R, base)
		if l == nil || r == nil {
			return nil
		}
		switch x.Op {
		case '+':
			return func(f *frame, o int64) float64 { return l(f, o) + r(f, o) }
		case '-':
			return func(f *frame, o int64) float64 { return l(f, o) - r(f, o) }
		case '*':
			return func(f *frame, o int64) float64 { return l(f, o) * r(f, o) }
		case '/':
			return func(f *frame, o int64) float64 { return l(f, o) / r(f, o) }
		}
		return nil
	case *VNeg:
		fn := c.compileStencilExpr(x.X, base)
		if fn == nil {
			return nil
		}
		return func(f *frame, o int64) float64 { return -fn(f, o) }
	}
	return nil
}

// unitStrideOff matches an offset expression of the form
// const + 1·reg where reg is one of the loop's induction registers
// advancing by exactly one per iteration, returning the register's
// compiled init and the constant.
func unitStrideOff(x *Loop, inds []cInd, off IntExpr) (init intFn, d int64, ok bool) {
	lin, isLin := off.(*ILin)
	if !isLin || len(lin.Terms) != 1 || lin.Terms[0].Coeff != 1 {
		return nil, 0, false
	}
	for i, ind := range x.Inds {
		if ind.Name == lin.Terms[0].Var {
			if ind.Step != 1 {
				return nil, 0, false
			}
			return inds[i].init, lin.Const, true
		}
	}
	return nil, 0, false
}
