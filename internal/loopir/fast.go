package loopir

// Interpreter specialization for strength-reduced loops. Most of the
// win from strength reduction comes from the generic closure path
// itself: an offset-form access (Assign.Off / ARef.Off) compiles to a
// single register load plus constant add instead of re-evaluating the
// subscript polynomial, which is what makes stencil reads and writes
// at constant deltas cheap (see compileOffset). One shape deserves
// more: a loop whose whole body is `dst@{r1} := src@{r2}` with both
// registers advancing by one is a unit-stride row copy, and lowering
// it to builtin copy turns the per-element interpreter loop into a
// single memmove. That shape is exactly what node splitting's row
// buffering produces (Jacobi's `rowbuf[j] := a[i-1,j]` pass).
//
// An earlier revision compiled arbitrary straight-line bodies to
// postfix tapes run by a small stack VM; measurement showed the
// dispatch overhead made it strictly slower than the closure tree on
// every workload, so only the copy specialization survives.

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
func (c *compiler) compileStencilLoop(x *Loop, inds []cInd) rangeFn {
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
	base := a.Off.(*ILin).Terms[0].Var
	body := c.compileStencilExpr(a.Rhs, base)
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

// compileFastLoop recognizes the unit-stride copy shape and returns a
// specialized kernel, or nil when the loop needs the generic path.
// inds are the loop's compiled induction registers, in x.Inds order.
func (c *compiler) compileFastLoop(x *Loop, inds []cInd) rangeFn {
	if len(x.Body) != 1 {
		return nil
	}
	a, ok := x.Body[0].(*Assign)
	if !ok || a.CheckBounds || a.CheckCollision || a.Accumulate != nil || a.Off == nil {
		return nil
	}
	src, ok := a.Rhs.(*ARef)
	if !ok || src.CheckBounds || src.CheckDefined || src.Off == nil || src.Array == a.Array {
		return nil
	}
	dstSlot, ok := c.arraySlots[a.Array]
	if !ok {
		return nil
	}
	srcSlot, ok := c.arraySlots[src.Array]
	if !ok {
		return nil
	}
	// Definedness tracking needs the per-element path.
	if c.prog.Arrays[dstSlot].TrackDefs {
		return nil
	}
	dInit, dOff, ok := unitStrideOff(x, inds, a.Off)
	if !ok {
		return nil
	}
	sInit, sOff, ok := unitStrideOff(x, inds, src.Off)
	if !ok {
		return nil
	}
	dWin, sWin := c.windowed(dstSlot), c.windowed(srcSlot)
	return func(f *frame, t0, n int64) {
		if n <= 0 {
			return
		}
		do := dInit(f) + dOff + t0
		so := sInit(f) + sOff + t0
		if dWin {
			do -= f.shift[dstSlot]
		}
		if sWin {
			so -= f.shift[srcSlot]
		}
		copy(f.arrays[dstSlot].Data[do:do+n], f.arrays[srcSlot].Data[so:so+n])
	}
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
