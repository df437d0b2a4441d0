package codegen

import (
	"fmt"
	"math"

	"arraycomp/internal/lang"
	"arraycomp/internal/runtime"
)

// evaluator is the reference tree-walking interpreter for surface
// expressions, used by the thunked fallback path (and, transitively,
// as the semantics oracle the compiled plans are tested against).
type evaluator struct {
	params map[string]int64
	// arrays resolves array selections; the closure for a non-strict
	// array forces the element.
	arrays map[string]func(subs []int64) (float64, error)
}

// scope is the local binding environment of one clause instance.
type scope struct {
	ints map[string]int64
	lets map[string]lang.Expr
}

func (s scope) withLets(binds []lang.Binding) scope {
	if len(binds) == 0 {
		return s
	}
	out := scope{ints: s.ints, lets: make(map[string]lang.Expr, len(s.lets)+len(binds))}
	for k, v := range s.lets {
		out.lets[k] = v
	}
	for _, b := range binds {
		out.lets[b.Name] = b.Rhs
	}
	return out
}

func (s scope) withoutLet(name string) scope {
	out := scope{ints: s.ints, lets: make(map[string]lang.Expr, len(s.lets))}
	for k, v := range s.lets {
		if k != name {
			out.lets[k] = v
		}
	}
	return out
}

func (ev *evaluator) evalInt(e lang.Expr, s scope) (int64, error) {
	switch n := e.(type) {
	case *lang.IntLit:
		return n.Value, nil
	case *lang.Var:
		if rhs, ok := s.lets[n.Name]; ok {
			return ev.evalInt(rhs, s.withoutLet(n.Name))
		}
		if v, ok := s.ints[n.Name]; ok {
			return v, nil
		}
		if v, ok := ev.params[n.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("eval: unbound integer variable %q at %s", n.Name, n.Pos())
	case *lang.UnOp:
		if n.Op != lang.OpNeg {
			return 0, fmt.Errorf("eval: %s in integer position", n.Op)
		}
		v, err := ev.evalInt(n.X, s)
		return -v, err
	case *lang.BinOp:
		l, err := ev.evalInt(n.L, s)
		if err != nil {
			return 0, err
		}
		r, err := ev.evalInt(n.R, s)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case lang.OpAdd:
			return l + r, nil
		case lang.OpSub:
			return l - r, nil
		case lang.OpMul:
			return l * r, nil
		case lang.OpMod:
			if r == 0 {
				return 0, fmt.Errorf("eval: mod by zero at %s", n.Pos())
			}
			return l % r, nil
		}
		return 0, fmt.Errorf("eval: %s in integer position at %s", n.Op, n.Pos())
	case *lang.Let:
		return ev.evalInt(n.Body, s.withLets(n.Binds))
	case *lang.Cond:
		c, err := ev.evalBool(n.C, s)
		if err != nil {
			return 0, err
		}
		if c {
			return ev.evalInt(n.T, s)
		}
		return ev.evalInt(n.E, s)
	case *lang.Index:
		// Subscripted subscript: an array element used as an index.
		// The element must hold an exact integer — a fractional
		// subscript has no sound integer reading, matching the compiled
		// plans' checked IIdx semantics.
		v, err := ev.evalFloat(e, s)
		if err != nil {
			return 0, err
		}
		if v != math.Trunc(v) || math.Abs(v) > 1<<53 {
			return 0, fmt.Errorf("eval: %s!(...) = %v is not an integral subscript at %s", n.Array, v, n.Pos())
		}
		return int64(v), nil
	}
	return 0, fmt.Errorf("eval: %T in integer position", e)
}

func (ev *evaluator) evalFloat(e lang.Expr, s scope) (float64, error) {
	switch n := e.(type) {
	case *lang.IntLit:
		return float64(n.Value), nil
	case *lang.FloatLit:
		return n.Value, nil
	case *lang.Var:
		if rhs, ok := s.lets[n.Name]; ok {
			return ev.evalFloat(rhs, s.withoutLet(n.Name))
		}
		if v, ok := s.ints[n.Name]; ok {
			return float64(v), nil
		}
		if v, ok := ev.params[n.Name]; ok {
			return float64(v), nil
		}
		return 0, fmt.Errorf("eval: unbound variable %q at %s", n.Name, n.Pos())
	case *lang.UnOp:
		if n.Op != lang.OpNeg {
			return 0, fmt.Errorf("eval: %s in value position", n.Op)
		}
		v, err := ev.evalFloat(n.X, s)
		return -v, err
	case *lang.BinOp:
		l, err := ev.evalFloat(n.L, s)
		if err != nil {
			return 0, err
		}
		r, err := ev.evalFloat(n.R, s)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case lang.OpAdd:
			return l + r, nil
		case lang.OpSub:
			return l - r, nil
		case lang.OpMul:
			return l * r, nil
		case lang.OpDiv:
			return l / r, nil
		case lang.OpMod:
			li, err := ev.evalInt(e, s)
			return float64(li), err
		}
		return 0, fmt.Errorf("eval: %s in value position at %s", n.Op, n.Pos())
	case *lang.Index:
		acc, ok := ev.arrays[n.Array]
		if !ok {
			return 0, fmt.Errorf("eval: unknown array %q at %s", n.Array, n.Pos())
		}
		subs := make([]int64, len(n.Subs))
		for i, se := range n.Subs {
			v, err := ev.evalInt(se, s)
			if err != nil {
				return 0, err
			}
			subs[i] = v
		}
		return acc(subs)
	case *lang.Call:
		args := make([]float64, len(n.Args))
		for i, a := range n.Args {
			v, err := ev.evalFloat(a, s)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return applyBuiltin(n.Fn, args, n.Pos())
	case *lang.Cond:
		c, err := ev.evalBool(n.C, s)
		if err != nil {
			return 0, err
		}
		if c {
			return ev.evalFloat(n.T, s)
		}
		return ev.evalFloat(n.E, s)
	case *lang.Let:
		return ev.evalFloat(n.Body, s.withLets(n.Binds))
	}
	return 0, fmt.Errorf("eval: %T in value position", e)
}

func applyBuiltin(fn string, args []float64, pos lang.Pos) (float64, error) {
	b := runtime.LookupBuiltin(fn)
	if b == nil {
		return 0, fmt.Errorf("eval: unknown builtin %q at %s", fn, pos)
	}
	if len(args) != b.Arity {
		return 0, fmt.Errorf("eval: %s expects %d arguments, got %d at %s", fn, b.Arity, len(args), pos)
	}
	y := 0.0
	if b.Arity == 2 {
		y = args[1]
	}
	return b.Apply(args[0], y), nil
}

func (ev *evaluator) evalBool(e lang.Expr, s scope) (bool, error) {
	switch n := e.(type) {
	case *lang.BinOp:
		if n.Op.IsComparison() {
			// Prefer exact integer comparison when both sides are
			// integral.
			li, lerr := ev.evalInt(n.L, s)
			ri, rerr := ev.evalInt(n.R, s)
			if lerr == nil && rerr == nil {
				return cmpInt(n.Op, li, ri), nil
			}
			lf, err := ev.evalFloat(n.L, s)
			if err != nil {
				return false, err
			}
			rf, err := ev.evalFloat(n.R, s)
			if err != nil {
				return false, err
			}
			return cmpFloat(n.Op, lf, rf), nil
		}
		switch n.Op {
		case lang.OpAnd, lang.OpOr:
			l, err := ev.evalBool(n.L, s)
			if err != nil {
				return false, err
			}
			r, err := ev.evalBool(n.R, s)
			if err != nil {
				return false, err
			}
			if n.Op == lang.OpAnd {
				return l && r, nil
			}
			return l || r, nil
		}
	case *lang.UnOp:
		if n.Op == lang.OpNot {
			v, err := ev.evalBool(n.X, s)
			return !v, err
		}
	case *lang.Let:
		return ev.evalBool(n.Body, s.withLets(n.Binds))
	}
	return false, fmt.Errorf("eval: %T in boolean position", e)
}

func cmpInt(op lang.Op, l, r int64) bool {
	switch op {
	case lang.OpEq:
		return l == r
	case lang.OpNe:
		return l != r
	case lang.OpLt:
		return l < r
	case lang.OpLe:
		return l <= r
	case lang.OpGt:
		return l > r
	case lang.OpGe:
		return l >= r
	}
	return false
}

func cmpFloat(op lang.Op, l, r float64) bool {
	switch op {
	case lang.OpEq:
		return l == r
	case lang.OpNe:
		return l != r
	case lang.OpLt:
		return l < r
	case lang.OpLe:
		return l <= r
	case lang.OpGt:
		return l > r
	case lang.OpGe:
		return l >= r
	}
	return false
}
