package loopir

import (
	"fmt"

	"arraycomp/internal/idxprop"
	"arraycomp/internal/runtime"
)

// ExecError is a runtime failure of a compiled program (collision,
// empty read, bounds violation, explicit Fail).
type ExecError struct {
	Program string
	Msg     string
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("loopir: %s: %s", e.Program, e.Msg)
}

// frame is the runtime activation record of a compiled program.
type frame struct {
	ints   []int64
	floats []float64
	arrays []*runtime.Strict
	defs   [][]bool
	// shift holds, per window slot of a stream stage, how far the
	// window has slid: the window stores the array's materialized
	// offset off at index off-shift. Nil outside stream stages.
	shift []int64
	// workers is the parallel worker budget for this run, resolved at
	// Run time from Exec.SetWorkers (0 means GOMAXPROCS then).
	workers int
	// scratch holds the block kernels' per-block values, blockLen
	// elements per slot, grown on first use; bi is the running
	// iteration's index in its block, and dst the destination slice of
	// a block storing its result directly (see fast.go).
	scratch []float64
	bi      int
	dst     []float64
	// vals holds a phase block's statement values, and spine the
	// running spine's ops with their operand vectors.
	vals  []blockVal
	spine []spineOp
}

type (
	intFn   func(*frame) int64
	floatFn func(*frame) float64
	boolFn  func(*frame) bool
	stmtFn  func(*frame)
)

// compiler assigns slots and translates the IR to closures.
type compiler struct {
	prog       *Program
	intSlots   map[string]int
	floatSlots map[string]int
	arraySlots map[string]int
	// fp recycles per-worker frames across this program's parallel loop
	// executions; its New is bound once slot counts are final.
	fp *framePool
	// hook is shared between the compiled BVerify closures and the Exec
	// so SetVerifyHook (called after Compile) still reaches them.
	hook *verifyHookBox
	// window marks the array slots a stream stage reads and writes
	// through a sliding window (see stage.go); nil for whole programs.
	window []bool
	// shapes counts the compiled loops by range-kernel shape.
	shapes map[string]int
}

// verifyHookBox lets an observer record runtime verification verdicts.
// It is a box (not a plain field) because closures capture it at
// compile time while the hook itself is installed afterwards.
type verifyHookBox struct {
	fn func(claims idxprop.Claims, res idxprop.VerifyResult)
}

func (c *compiler) fail(format string, args ...any) {
	panic(&ExecError{Program: c.prog.Name, Msg: fmt.Sprintf(format, args...)})
}

// execFail raises a runtime error from compiled code.
func execFail(prog string, format string, args ...any) {
	panic(&ExecError{Program: prog, Msg: fmt.Sprintf(format, args...)})
}

// Exec is a compiled program ready to run.
type Exec struct {
	prog       *Program
	run        []stmtFn
	intSlots   map[string]int
	floatSlots map[string]int
	arraySlots map[string]int
	workers    int
	hook       *verifyHookBox
	shapes     map[string]int
}

// KernelShapes counts the program's compiled loops by range-kernel
// shape (ShapePhase, ShapeBlock, ShapeSpine, ShapeStencil,
// ShapeGeneric). The map is shared; callers must not modify it.
func (ex *Exec) KernelShapes() map[string]int { return ex.shapes }

// SetVerifyHook installs an observer called once per runtime
// index-property verification with the claims checked and the verdict.
// Pass nil to remove it. Not safe to change concurrently with Run.
func (ex *Exec) SetVerifyHook(fn func(claims idxprop.Claims, res idxprop.VerifyResult)) {
	ex.hook.fn = fn
}

// Compile translates the program to closures. It validates names and
// arities; invalid IR is reported as an error.
func Compile(p *Program) (ex *Exec, err error) {
	defer catchExec(&err)
	c := newCompiler(p)
	nInts, nFloats := len(c.intSlots), len(c.floatSlots)
	c.fp.p.New = func() any {
		return &frame{ints: make([]int64, nInts), floats: make([]float64, nFloats)}
	}
	fns := c.compileStmts(p.Stmts)
	return &Exec{
		prog:       p,
		run:        fns,
		intSlots:   c.intSlots,
		floatSlots: c.floatSlots,
		arraySlots: c.arraySlots,
		hook:       c.hook,
		shapes:     c.shapes,
	}, nil
}

// catchExec turns an ExecError panic — a compile-time rejection or a
// runtime failure — into err. Deferred; any other panic propagates.
func catchExec(err *error) {
	if r := recover(); r != nil {
		ee, ok := r.(*ExecError)
		if !ok {
			panic(r)
		}
		*err = ee
	}
}

// newCompiler assigns the program's array, scalar and register slots.
func newCompiler(p *Program) *compiler {
	c := &compiler{
		prog:       p,
		intSlots:   map[string]int{},
		floatSlots: map[string]int{},
		arraySlots: map[string]int{},
		fp:         &framePool{},
		hook:       &verifyHookBox{},
		shapes:     map[string]int{},
	}
	for i, d := range p.Arrays {
		if _, dup := c.arraySlots[d.Name]; dup {
			c.fail("duplicate array %q", d.Name)
		}
		c.arraySlots[d.Name] = i
	}
	for i, s := range p.Scalars {
		if _, dup := c.floatSlots[s]; dup {
			c.fail("duplicate scalar %q", s)
		}
		c.floatSlots[s] = i
	}
	c.collectLoopVars(p.Stmts)
	return c
}

func (c *compiler) collectLoopVars(stmts []Stmt) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *Loop:
			if _, ok := c.intSlots[x.Var]; !ok {
				c.intSlots[x.Var] = len(c.intSlots)
			}
			for _, ind := range x.Inds {
				if _, dup := c.intSlots[ind.Name]; dup {
					c.fail("duplicate induction register %q", ind.Name)
				}
				c.intSlots[ind.Name] = len(c.intSlots)
			}
			c.collectLoopVars(x.Body)
		case *If:
			c.collectLoopVars(x.Then)
			c.collectLoopVars(x.Else)
		}
	}
}

func (c *compiler) compileStmts(stmts []Stmt) []stmtFn {
	out := make([]stmtFn, 0, len(stmts))
	for _, s := range stmts {
		out = append(out, c.compileStmt(s))
	}
	return out
}

func runAll(fns []stmtFn, f *frame) {
	for _, fn := range fns {
		fn(f)
	}
}

func (c *compiler) compileStmt(s Stmt) stmtFn {
	switch x := s.(type) {
	case *Loop:
		return c.scheduleLoop(x, c.compileLoop(x))
	case *If:
		cond := c.compileBool(x.Cond)
		then := c.compileStmts(x.Then)
		els := c.compileStmts(x.Else)
		return func(f *frame) {
			if cond(f) {
				runAll(then, f)
			} else {
				runAll(els, f)
			}
		}
	case *Assign:
		return c.compileAssign(x)
	case *SetScalar:
		slot, ok := c.floatSlots[x.Name]
		if !ok {
			c.fail("assignment to undeclared scalar %q", x.Name)
		}
		rhs := c.compileFloat(x.Rhs)
		return func(f *frame) { f.floats[slot] = rhs(f) }
	case *CopyArray:
		dst := c.arraySlot(x.Dst)
		src := c.arraySlot(x.Src)
		if !c.prog.Arrays[dst].B.Equal(c.prog.Arrays[src].B) {
			c.fail("CopyArray %s <- %s: bounds differ", x.Dst, x.Src)
		}
		return func(f *frame) { copy(f.arrays[dst].Data, f.arrays[src].Data) }
	case *CheckFull:
		slot := c.arraySlot(x.Array)
		if !c.prog.Arrays[slot].TrackDefs {
			c.fail("CheckFull on %q requires TrackDefs", x.Array)
		}
		name, prog := x.Array, c.prog.Name
		b := c.prog.Arrays[slot].B
		return func(f *frame) {
			for off, ok := range f.defs[slot] {
				if !ok {
					execFail(prog, "array %s has an undefined element at %v (empty)", name, b.Unlinear(int64(off)))
				}
			}
		}
	case *Fail:
		msg, prog := x.Msg, c.prog.Name
		return func(*frame) { execFail(prog, "%s", msg) }
	case *Fill:
		slot := c.arraySlot(x.Array)
		if c.prog.Arrays[slot].Role == RoleIn {
			c.fail("fill of input array %q", x.Array)
		}
		v := x.Value
		return func(f *frame) {
			data := f.arrays[slot].Data
			for i := range data {
				data[i] = v
			}
		}
	}
	c.fail("unknown statement %T", s)
	return nil
}

// scheduleLoop wraps a compiled loop in the executor its schedule
// asks for: a parallel schedule over the loop's range kernel, or the
// kernel over the whole trip count.
func (c *compiler) scheduleLoop(x *Loop, l *cLoop) stmtFn {
	seq := func(f *frame) { l.run(f, 0, l.trip) }
	if x.Par != nil {
		var par stmtFn
		switch x.Par.Kind {
		case ParShard:
			par = c.compileShardLoop(l, seq)
		case ParMonoShard:
			par = c.compileMonoShardLoop(x, l, seq)
		case ParTile, ParWavefront:
			par = c.compileTiledNest(x, l, seq)
		case ParChains:
			if x.Par.Chains >= 2 {
				par = c.compileChainsLoop(l, x.Par.Chains, seq)
			}
		}
		if par != nil {
			return par
		}
		return seq
	}
	// Legacy gate: a dependence-free loop the planner did not
	// schedule (NoOptimize, or a nest shape it does not model)
	// still shards when the work warrants it.
	if x.Parallel && parWorthwhile(l.trip, estimateWork(x.Body)) {
		return c.compileShardLoop(l, seq)
	}
	return seq
}

// rangeFn is a loop's range kernel: it runs iterations t0 … t0+n-1 of
// the loop in sequential order, where iteration t binds the loop
// variable to From + t·Step. Every executor runs a loop through its one
// kernel — sequential execution, shard chunks, mono-shard ranges, tile
// rows and stream chunks alike.
type rangeFn func(f *frame, t0, n int64)

// cLoop is a compiled loop: its range kernel plus what the parallel
// executors need to split the iteration space and rank failures.
type cLoop struct {
	slot             int // loop-variable register
	from, step, trip int64
	inds             []cInd
	// body is the generic kernel's compiled body; nil when the kernel
	// is specialized. inner is the body's last loop, whose kernel a
	// tiled nest runs on each tile row.
	body  []stmtFn
	inner *cLoop
	run   rangeFn
}

// rank is the iteration a failing kernel call was running. Only the
// generic closure loops can fail (the generic kernel and a block
// kernel's generic residual), and they keep the loop-variable register
// current, so the rank is read back from there.
func (l *cLoop) rank(f *frame) int64 { return (f.ints[l.slot] - l.from) / l.step }

// bind sets the loop variable and every induction register to their
// values at iteration t.
func (l *cLoop) bind(f *frame, t int64) {
	f.ints[l.slot] = l.from + t*l.step
	for i := range l.inds {
		f.ints[l.inds[i].slot] = l.inds[i].init(f) + t*l.inds[i].step
	}
}

// compileLoop compiles a loop's body once into its range kernel,
// chosen by the body's shape: the block kernel, the stencil row
// kernel, or the generic closure loop (see fast.go). A block kernel
// runs short ranges through the stencil or generic kernel.
func (c *compiler) compileLoop(x *Loop) *cLoop {
	if x.Step == 0 {
		c.fail("loop over %q has zero step", x.Var)
	}
	l := &cLoop{slot: c.intSlots[x.Var], from: x.From, step: x.Step, trip: tripCount(x.From, x.To, x.Step)}
	l.inds = make([]cInd, len(x.Inds))
	for i, ind := range x.Inds {
		l.inds[i] = cInd{slot: c.intSlots[ind.Name], init: c.compileInt(ind.Init), step: ind.Step}
	}
	shape := ShapeStencil
	if l.run = c.compileStencilLoop(x, l.inds, nil); l.run == nil {
		l.run, shape = c.genericLoop(x, l), ShapeGeneric
	}
	if blk, s := c.compileBlockLoop(x, l, l.run); blk != nil {
		l.run, shape = blk, s
	}
	c.shapes[shape]++
	return l
}

// genericLoop compiles the generic kernel: the closure loop over the
// compiled body.
func (c *compiler) genericLoop(x *Loop, l *cLoop) rangeFn {
	l.body = make([]stmtFn, len(x.Body))
	for i, st := range x.Body {
		if in, ok := st.(*Loop); ok {
			l.inner = c.compileLoop(in)
			l.body[i] = c.scheduleLoop(in, l.inner)
		} else {
			l.body[i] = c.compileStmt(st)
		}
	}
	slot, from, step, inds, body := l.slot, l.from, l.step, l.inds, l.body
	return func(f *frame, t0, n int64) {
		l.bind(f, t0)
		v := from + t0*step
		for ; n > 0; n-- {
			f.ints[slot] = v
			runAll(body, f)
			v += step
			for i := range inds {
				f.ints[inds[i].slot] += inds[i].step
			}
		}
	}
}

// windowed reports whether an array slot is a stream stage's sliding
// window rather than a materialized array.
func (c *compiler) windowed(slot int) bool { return c.window != nil && c.window[slot] }

func (c *compiler) arraySlot(name string) int {
	slot, ok := c.arraySlots[name]
	if !ok {
		c.fail("reference to undeclared array %q", name)
	}
	return slot
}

// compileOffset builds the linear-offset computation for an array
// access: checked (range test), strength-reduced (the optimizer's
// precomputed linear offset over induction registers), or raw
// row-major arithmetic.
func (c *compiler) compileOffset(arrName string, subs []IntExpr, off IntExpr, checked bool) (int, intFn) {
	slot := c.arraySlot(arrName)
	b := c.prog.Arrays[slot].B
	if len(subs) != b.Rank() {
		c.fail("array %q: %d subscripts for rank %d", arrName, len(subs), b.Rank())
	}
	if off != nil && !checked {
		return slot, c.compileInt(off)
	}
	subFns := make([]intFn, len(subs))
	for i, s := range subs {
		subFns[i] = c.compileInt(s)
	}
	lo := append([]int64(nil), b.Lo...)
	hi := append([]int64(nil), b.Hi...)
	ext := make([]int64, b.Rank())
	for d := range ext {
		ext[d] = b.Extent(d)
	}
	prog := c.prog.Name
	if checked {
		return slot, func(f *frame) int64 {
			var off int64
			for d, fn := range subFns {
				s := fn(f)
				if s < lo[d] || s > hi[d] {
					execFail(prog, "array %s: subscript %d out of bounds [%d..%d] in dimension %d", arrName, s, lo[d], hi[d], d)
				}
				off = off*ext[d] + (s - lo[d])
			}
			return off
		}
	}
	if len(subFns) == 1 {
		fn := subFns[0]
		l := lo[0]
		return slot, func(f *frame) int64 { return fn(f) - l }
	}
	return slot, func(f *frame) int64 {
		var off int64
		for d, fn := range subFns {
			off = off*ext[d] + (fn(f) - lo[d])
		}
		return off
	}
}

func (c *compiler) compileAssign(x *Assign) stmtFn {
	slot, offFn := c.compileOffset(x.Array, x.Subs, x.Off, x.CheckBounds)
	decl := c.prog.Arrays[slot]
	if decl.Role == RoleIn {
		c.fail("assignment to input array %q", x.Array)
	}
	if x.CheckCollision && !decl.TrackDefs {
		c.fail("CheckCollision on %q requires TrackDefs", x.Array)
	}
	rhs := c.compileFloat(x.Rhs)
	prog := c.prog.Name
	name := x.Array
	b := decl.B
	track := decl.TrackDefs && !x.NoTrack
	if c.windowed(slot) {
		if x.Accumulate != nil || x.CheckCollision || track {
			c.fail("window slot %q takes plain stores only", x.Array)
		}
		return func(f *frame) {
			f.arrays[slot].Data[offFn(f)-f.shift[slot]] = rhs(f)
		}
	}
	switch {
	case x.Accumulate != nil:
		comb := x.Accumulate
		return func(f *frame) {
			off := offFn(f)
			data := f.arrays[slot].Data
			data[off] = comb(data[off], rhs(f))
			if track {
				f.defs[slot][off] = true
			}
		}
	case x.CheckCollision:
		return func(f *frame) {
			off := offFn(f)
			if f.defs[slot][off] {
				execFail(prog, "write collision on %s at %v", name, b.Unlinear(off))
			}
			f.defs[slot][off] = true
			f.arrays[slot].Data[off] = rhs(f)
		}
	case track:
		return func(f *frame) {
			off := offFn(f)
			f.defs[slot][off] = true
			f.arrays[slot].Data[off] = rhs(f)
		}
	default:
		return func(f *frame) {
			f.arrays[slot].Data[offFn(f)] = rhs(f)
		}
	}
}

// --- expressions ---

func (c *compiler) compileInt(e IntExpr) intFn {
	switch x := e.(type) {
	case *IConst:
		v := x.Value
		return func(*frame) int64 { return v }
	case *IVar:
		slot, ok := c.intSlots[x.Name]
		if !ok {
			c.fail("unknown integer variable %q", x.Name)
		}
		return func(f *frame) int64 { return f.ints[slot] }
	case *ILin:
		switch len(x.Terms) {
		case 0:
			v := x.Const
			return func(*frame) int64 { return v }
		case 1:
			s := c.intSlotOf(x.Terms[0].Var)
			k, c0 := x.Terms[0].Coeff, x.Const
			if k == 1 {
				return func(f *frame) int64 { return c0 + f.ints[s] }
			}
			return func(f *frame) int64 { return c0 + k*f.ints[s] }
		case 2:
			s1 := c.intSlotOf(x.Terms[0].Var)
			s2 := c.intSlotOf(x.Terms[1].Var)
			k1, k2, c0 := x.Terms[0].Coeff, x.Terms[1].Coeff, x.Const
			return func(f *frame) int64 { return c0 + k1*f.ints[s1] + k2*f.ints[s2] }
		default:
			slots := make([]int, len(x.Terms))
			coeffs := make([]int64, len(x.Terms))
			for i, t := range x.Terms {
				slots[i] = c.intSlotOf(t.Var)
				coeffs[i] = t.Coeff
			}
			c0 := x.Const
			return func(f *frame) int64 {
				v := c0
				for i, s := range slots {
					v += coeffs[i] * f.ints[s]
				}
				return v
			}
		}
	case *IIdx:
		slot, offFn := c.compileOffset(x.Array, x.Subs, nil, x.CheckBounds)
		if c.windowed(slot) {
			c.fail("subscripted subscript through window slot %q", x.Array)
		}
		prog, name := c.prog.Name, x.Array
		if x.CheckBounds {
			return func(f *frame) int64 {
				v := f.arrays[slot].Data[offFn(f)]
				iv := int64(v)
				if float64(iv) != v {
					execFail(prog, "array %s holds non-integral subscript value %v", name, v)
				}
				return iv
			}
		}
		// Unchecked: a verified range claim already proved every element
		// integral and in range.
		return func(f *frame) int64 {
			return int64(f.arrays[slot].Data[offFn(f)])
		}
	case *IBin:
		l := c.compileInt(x.L)
		r := c.compileInt(x.R)
		prog := c.prog.Name
		switch x.Op {
		case '+':
			return func(f *frame) int64 { return l(f) + r(f) }
		case '-':
			return func(f *frame) int64 { return l(f) - r(f) }
		case '*':
			return func(f *frame) int64 { return l(f) * r(f) }
		case '/':
			return func(f *frame) int64 {
				d := r(f)
				if d == 0 {
					execFail(prog, "integer division by zero")
				}
				return l(f) / d
			}
		case '%':
			return func(f *frame) int64 {
				d := r(f)
				if d == 0 {
					execFail(prog, "integer mod by zero")
				}
				return l(f) % d
			}
		}
		c.fail("unknown integer operator %q", string(x.Op))
	}
	c.fail("unknown integer expression %T", e)
	return nil
}

func (c *compiler) intSlotOf(name string) int {
	slot, ok := c.intSlots[name]
	if !ok {
		c.fail("unknown integer variable %q", name)
	}
	return slot
}

func (c *compiler) compileFloat(e VExpr) floatFn {
	switch x := e.(type) {
	case *VConst:
		v := x.Value
		return func(*frame) float64 { return v }
	case *VFromInt:
		fn := c.compileInt(x.X)
		return func(f *frame) float64 { return float64(fn(f)) }
	case *VScalar:
		slot, ok := c.floatSlots[x.Name]
		if !ok {
			c.fail("unknown scalar %q", x.Name)
		}
		return func(f *frame) float64 { return f.floats[slot] }
	case *ARef:
		slot, offFn := c.compileOffset(x.Array, x.Subs, x.Off, x.CheckBounds)
		if c.windowed(slot) {
			if x.CheckDefined {
				c.fail("window slot %q has no definedness bitmap", x.Array)
			}
			return func(f *frame) float64 { return f.arrays[slot].Data[offFn(f)-f.shift[slot]] }
		}
		if x.CheckDefined {
			if !c.prog.Arrays[slot].TrackDefs {
				c.fail("CheckDefined read of %q requires TrackDefs", x.Array)
			}
			prog, name := c.prog.Name, x.Array
			b := c.prog.Arrays[slot].B
			return func(f *frame) float64 {
				off := offFn(f)
				if !f.defs[slot][off] {
					execFail(prog, "read of undefined element %s%v (empty)", name, b.Unlinear(off))
				}
				return f.arrays[slot].Data[off]
			}
		}
		return func(f *frame) float64 { return f.arrays[slot].Data[offFn(f)] }
	case *VBin:
		l := c.compileFloat(x.L)
		r := c.compileFloat(x.R)
		switch x.Op {
		case '+':
			return func(f *frame) float64 { return l(f) + r(f) }
		case '-':
			return func(f *frame) float64 { return l(f) - r(f) }
		case '*':
			return func(f *frame) float64 { return l(f) * r(f) }
		case '/':
			return func(f *frame) float64 { return l(f) / r(f) }
		}
		c.fail("unknown float operator %q", string(x.Op))
	case *VNeg:
		fn := c.compileFloat(x.X)
		return func(f *frame) float64 { return -fn(f) }
	case *VCall:
		return c.compileCall(x)
	case *vScratch:
		k := x.slot * blockLen
		return func(f *frame) float64 { return f.scratch[k+f.bi] }
	case *VCond:
		cond := c.compileBool(x.C)
		th := c.compileFloat(x.T)
		el := c.compileFloat(x.E)
		return func(f *frame) float64 {
			if cond(f) {
				return th(f)
			}
			return el(f)
		}
	}
	c.fail("unknown value expression %T", e)
	return nil
}

func (c *compiler) compileCall(x *VCall) floatFn {
	b := c.builtin(x)
	fn := b.Apply
	a := c.compileFloat(x.Args[0])
	if b.Arity == 1 {
		return func(f *frame) float64 { return fn(a(f), 0) }
	}
	r := c.compileFloat(x.Args[1])
	return func(f *frame) float64 { return fn(a(f), r(f)) }
}

// builtin resolves a call's builtin and checks its arity.
func (c *compiler) builtin(x *VCall) *runtime.Builtin {
	b := runtime.LookupBuiltin(x.Fn)
	if b == nil {
		c.fail("unknown builtin %q", x.Fn)
	}
	if len(x.Args) != b.Arity {
		c.fail("builtin %s expects %d arguments, got %d", x.Fn, b.Arity, len(x.Args))
	}
	return b
}

func (c *compiler) compileBool(e BExpr) boolFn {
	switch x := e.(type) {
	case *BConst:
		v := x.Value
		return func(*frame) bool { return v }
	case *BCmpInt:
		l := c.compileInt(x.L)
		r := c.compileInt(x.R)
		switch x.Op {
		case "==":
			return func(f *frame) bool { return l(f) == r(f) }
		case "/=":
			return func(f *frame) bool { return l(f) != r(f) }
		case "<":
			return func(f *frame) bool { return l(f) < r(f) }
		case "<=":
			return func(f *frame) bool { return l(f) <= r(f) }
		case ">":
			return func(f *frame) bool { return l(f) > r(f) }
		case ">=":
			return func(f *frame) bool { return l(f) >= r(f) }
		}
		c.fail("unknown comparison %q", x.Op)
	case *BCmpFloat:
		l := c.compileFloat(x.L)
		r := c.compileFloat(x.R)
		switch x.Op {
		case "==":
			return func(f *frame) bool { return l(f) == r(f) }
		case "/=":
			return func(f *frame) bool { return l(f) != r(f) }
		case "<":
			return func(f *frame) bool { return l(f) < r(f) }
		case "<=":
			return func(f *frame) bool { return l(f) <= r(f) }
		case ">":
			return func(f *frame) bool { return l(f) > r(f) }
		case ">=":
			return func(f *frame) bool { return l(f) >= r(f) }
		}
		c.fail("unknown comparison %q", x.Op)
	case *BAnd:
		l := c.compileBool(x.L)
		r := c.compileBool(x.R)
		return func(f *frame) bool { return l(f) && r(f) }
	case *BOr:
		l := c.compileBool(x.L)
		r := c.compileBool(x.R)
		return func(f *frame) bool { return l(f) || r(f) }
	case *BNot:
		fn := c.compileBool(x.X)
		return func(f *frame) bool { return !fn(f) }
	case *BVerify:
		slot := c.arraySlot(x.Array)
		claims := x.Claims
		box := c.hook
		return func(f *frame) bool {
			r := idxprop.Verify(f.arrays[slot].Data, claims)
			if box.fn != nil {
				box.fn(claims, r)
			}
			return r.OK
		}
	}
	c.fail("unknown boolean expression %T", e)
	return nil
}
