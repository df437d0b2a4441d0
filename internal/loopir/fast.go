package loopir

// Specialized range kernels. A loop's range kernel (compileLoop) takes
// one of three shapes, chosen by its body:
//
//   - block: the body is one Assign and some right-hand-side subtrees
//     do not depend on values the loop itself writes nearby. Those
//     subtrees run a block of up to blockLen iterations at a time, as
//     tight loops over array subslices and per-frame scratch; what
//     remains runs per element and reads the block's results from
//     scratch. When nothing but the store remains, the block is
//     written straight into the destination slice (a unit-stride copy
//     is the degenerate case: one copy per block).
//   - stencil row: the body is one offset-form Assign over a single
//     unit-stride register; the closure tree takes the register as an
//     argument and skips all loop-variable bookkeeping.
//   - generic: the closure loop over the compiled body.
//
// An earlier revision compiled straight-line bodies to postfix tapes
// run by a small stack VM. It dispatched one instruction per IR node
// per element, and that dispatch cost more than the closure tree it
// replaced. The block kernel also interprets the tree, but it
// dispatches once per node per block: each closure call runs a loop
// of up to blockLen element operations with no calls inside, so the
// dispatch cost is divided by the block length instead of paid per
// element.
//
// Results are bitwise identical to the element kernels: each element
// sees the same float operations on the same operands in the same
// order; only when a hoisted subtree runs changes. The hoisting rule
// (planBlock) guarantees that this cannot change a value read: a
// hoisted read never touches an element the loop's own store writes
// earlier in the same block.

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

// noBlockKernels turns block kernels off at compile time. Only tests
// set it, to hold block kernels bitwise against the element kernels.
var noBlockKernels bool

// --- hoisting legality ---

// blockPlan is the block kernel's verdict for a loop whose body is one
// Assign: the maximal right-hand-side subtrees evaluated a block at a
// time, in tree order. When hoisted[0] is the whole right-hand side,
// nothing but the store runs per element.
type blockPlan struct {
	a       *Assign
	hoisted []VExpr
}

// blockPlanner carries one loop's hoisting analysis.
type blockPlanner struct {
	p *Program
	x *Loop
	a *Assign
	// w is the store's row-major offset as an affine form over the
	// loop variables when the right-hand side reads the stored array;
	// nil for an indirect store.
	w *linForm
	// limit is the longest block a kernel call can run: blockLen,
	// or the trip count when that is shorter.
	limit int64
}

// planBlock decides which subtrees of x's single Assign run a block at
// a time, or returns nil when the block kernel would hoist nothing
// worth a block or x is too short to run one. A subtree is hoistable when every leaf is a constant,
// a scalar, or an unchecked read whose offset is affine in the
// iteration (directly, or as an unchecked gather through such a read),
// with no conditional, checked access or integer division anywhere in
// it. A read of the stored array is hoistable only when the store is
// direct and the read lands on the element the store writes d
// iterations earlier with d ≤ 0 (not yet written) or d ≥ the longest
// block (written by an earlier block).
func planBlock(p *Program, x *Loop) *blockPlan {
	trip := tripCount(x.From, x.To, x.Step)
	if len(x.Body) != 1 || trip < minBlock {
		return nil // every range runs the element kernel
	}
	a, ok := x.Body[0].(*Assign)
	if !ok {
		return nil
	}
	d := p.Decl(a.Array)
	if d == nil || len(a.Subs) != d.B.Rank() {
		return nil
	}
	bp := &blockPlanner{p: p, x: x, a: a, limit: min(blockLen, trip)}
	if readsArray(a.Rhs, a.Array) {
		bp.w = flatAccess(d, a.Subs)
	}
	var out []VExpr
	if bp.collect(a.Rhs, &out) {
		// A lone leaf on the right only pays when the block stores it
		// without a per-element residual.
		if !worthHoisting(a.Rhs) && !blockStores(p, a) {
			return nil
		}
		out = []VExpr{a.Rhs}
	}
	if len(out) == 0 {
		return nil
	}
	return &blockPlan{a: a, hoisted: out}
}

// blockStores reports whether a block can perform a's store itself:
// a plain, unchecked, untracked store at an affine offset.
func blockStores(p *Program, a *Assign) bool {
	d := p.Decl(a.Array)
	return a.Accumulate == nil && !a.CheckBounds && !a.CheckCollision &&
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
	case *ARef:
		return bp.leafOK(x)
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
	if g == nil || r.Array == bp.a.Array {
		return false
	}
	gd := bp.p.Decl(g.Array)
	if gd == nil || len(g.Subs) != gd.B.Rank() || !affine(nil, g.Subs...) {
		return false
	}
	return bp.readOK(gd, g.Subs)
}

// readOK applies the distance rule to an affine read of d at subs.
func (bp *blockPlanner) readOK(d *ArrayDecl, subs []IntExpr) bool {
	if d.Name != bp.a.Array {
		return true
	}
	if bp.w == nil {
		return false // an indirect store may write anywhere
	}
	delta := flatAccess(d, subs)
	delta.c -= bp.w.c
	for v, k := range bp.w.t {
		delta.addTerm(v, -k)
	}
	if len(delta.t) != 0 {
		return false // the distance is not a constant
	}
	ws := offsetStride(bp.x, bp.p.Decl(bp.a.Array), bp.a.Subs, nil)
	if ws == 0 {
		return delta.c != 0
	}
	if delta.c%ws != 0 {
		return true // never the element of any iteration's store
	}
	dist := -delta.c / ws
	return dist <= 0 || dist >= bp.limit
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

// blockCompiler compiles one loop's hoisted subtrees.
type blockCompiler struct {
	c     *compiler
	x     *Loop
	slots int // scratch slots used
}

// leafStride is the per-iteration stride of a leaf's compiled offset.
func (bc *blockCompiler) leafStride(arr string, subs []IntExpr, off IntExpr) int64 {
	return offsetStride(bc.x, bc.c.prog.Decl(arr), subs, off)
}

// bufferless reports whether e's block value never occupies a scratch
// slot: constants, scalars, and affine reads that are a subslice of
// their array or one element of it.
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
		slot := c.floatSlots[x.Name]
		return func(f *frame, _ int) ([]float64, float64) { return nil, f.floats[slot] }
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
	slot, off := c.compileOffset(r.Array, r.Subs, r.Off, false)
	win := c.windowed(slot)
	at := func(f *frame) int64 {
		if win {
			return off(f) - f.shift[slot]
		}
		return off(f)
	}
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

// --- the block kernel ---

// compileBlockLoop compiles x's block kernel, or returns nil when
// planBlock hoists nothing. elem is x's element kernel, which runs
// ranges shorter than minBlock.
func (c *compiler) compileBlockLoop(x *Loop, l *cLoop, elem rangeFn) rangeFn {
	if noBlockKernels {
		return nil
	}
	plan := planBlock(c.prog, x)
	if plan == nil {
		return nil
	}
	a := plan.a
	bc := &blockCompiler{c: c, x: x}
	n := len(plan.hoisted)
	bc.slots = n
	rootOnly := plan.hoisted[0] == a.Rhs
	// A block that stores its own result writes it straight into the
	// destination when that is a unit-stride slice no hoisted read
	// sees; otherwise it goes through slot 0.
	var block func(f *frame, m int)
	var resid rangeFn
	if rootOnly && blockStores(c.prog, a) {
		dSlot, dOff := c.compileOffset(a.Array, a.Subs, a.Off, false)
		win := c.windowed(dSlot)
		ws := bc.leafStride(a.Array, a.Subs, a.Off)
		direct := ws == 1 && !readsArray(a.Rhs, a.Array)
		out := 0
		if direct {
			out = -1
		}
		root := bc.expr(a.Rhs, out, n)
		block = func(f *frame, m int) {
			data, o := f.arrays[dSlot].Data, dOff(f)
			if win {
				o -= f.shift[dSlot]
			}
			if direct {
				f.dst = data[o : o+int64(m)]
				v, s := root(f, m)
				fillFrom(f.dst, v, s)
				f.dst = nil
				return
			}
			v, s := root(f, m)
			for i := range m {
				if v != nil {
					s = v[i]
				}
				data[o] = s
				o += ws
			}
		}
	} else {
		evals := make([]bfn, n)
		slots := make(map[VExpr]int, n)
		for k, h := range plan.hoisted {
			evals[k] = bc.expr(h, k, n)
			slots[h] = k
		}
		block = func(f *frame, m int) {
			for k, ev := range evals {
				v, s := ev(f, m)
				fillFrom(f.blockBuf(k, m), v, s)
			}
		}
		ra := *a
		ra.Rhs = substHoisted(a.Rhs, slots)
		if resid = c.compileStencilLoop(x, l.inds, &ra); resid == nil {
			resid = c.residualLoop(l, &ra)
		}
	}
	need := bc.slots * blockLen
	return func(f *frame, t0, n int64) {
		if n < minBlock {
			elem(f, t0, n)
			return
		}
		if len(f.scratch) < need {
			f.scratch = make([]float64, need)
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
