package runtime

import "math"

// Builtin is one scalar builtin function of the source language. Every
// back end reads this table: the thunked reference evaluator and the
// loop-IR interpreter call Apply, and the Go emitter writes Go as the
// callee of the emitted call, so a builtin's value semantics live here
// and nowhere else.
type Builtin struct {
	Name  string
	Arity int // 1 or 2
	// Apply computes the value; a unary builtin ignores y.
	Apply func(x, y float64) float64
	// Go is the Go function emitted code calls, e.g. "math.Abs".
	Go string
}

var builtins = map[string]*Builtin{}

func init() {
	for _, b := range []*Builtin{
		{Name: "abs", Arity: 1, Go: "math.Abs", Apply: func(x, _ float64) float64 { return math.Abs(x) }},
		{Name: "sqrt", Arity: 1, Go: "math.Sqrt", Apply: func(x, _ float64) float64 { return math.Sqrt(x) }},
		{Name: "exp", Arity: 1, Go: "math.Exp", Apply: func(x, _ float64) float64 { return math.Exp(x) }},
		{Name: "log", Arity: 1, Go: "math.Log", Apply: func(x, _ float64) float64 { return math.Log(x) }},
		{Name: "sin", Arity: 1, Go: "math.Sin", Apply: func(x, _ float64) float64 { return math.Sin(x) }},
		{Name: "cos", Arity: 1, Go: "math.Cos", Apply: func(x, _ float64) float64 { return math.Cos(x) }},
		{Name: "min", Arity: 2, Go: "math.Min", Apply: math.Min},
		{Name: "max", Arity: 2, Go: "math.Max", Apply: math.Max},
		{Name: "pow", Arity: 2, Go: "math.Pow", Apply: math.Pow},
	} {
		builtins[b.Name] = b
	}
}

// LookupBuiltin returns the named builtin, or nil when there is none.
func LookupBuiltin(name string) *Builtin { return builtins[name] }
