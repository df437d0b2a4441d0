package stream

import (
	"testing"

	"arraycomp/internal/loopir"
	"arraycomp/internal/runtime"
)

// TestReusedWindowKeepsHistory forces the ordering in which a stage's
// released window comes back to it before it slides: the window it is
// about to read its e!(i-1) history from. The stage sends each chunk to
// two unbuffered receivers; the first one copies the chunk and releases
// it for both while the stage is still blocked on the second send, so
// the window is on the free list when the stage slides. Every element
// must still match the materialized run.
func TestReusedWindowKeepsHistory(t *testing.T) {
	const lo, hi = 1, 257
	i := &loopir.IVar{Name: "i"}
	prev := &loopir.ILin{Const: -1, Terms: []loopir.ITerm{{Var: "i", Coeff: 1}}}
	ref := func(a string, s loopir.IntExpr) loopir.VExpr {
		return &loopir.ARef{Array: a, Subs: []loopir.IntExpr{s}}
	}
	// e[lo] = x[lo]; e[i] = e[i-1]*0.75 + x[i]*0.25.
	prog := &loopir.Program{
		Name: "e",
		Arrays: []loopir.ArrayDecl{
			{Name: "x", B: runtime.NewBounds1(lo, hi), Role: loopir.RoleIn},
			{Name: "e", B: runtime.NewBounds1(lo, hi), Role: loopir.RoleOut},
		},
		Stmts: []loopir.Stmt{
			&loopir.Loop{Var: "i", From: lo, To: lo, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: "e", Subs: []loopir.IntExpr{i}, Rhs: ref("x", i)},
			}},
			&loopir.Loop{Var: "i", From: lo + 1, To: hi, Step: 1, Body: []loopir.Stmt{
				&loopir.Assign{Array: "e", Subs: []loopir.IntExpr{i}, Rhs: &loopir.VBin{Op: '+',
					L: &loopir.VBin{Op: '*', L: ref("e", prev), R: &loopir.VConst{Value: 0.75}},
					R: &loopir.VBin{Op: '*', L: ref("x", i), R: &loopir.VConst{Value: 0.25}}}},
			}},
		},
	}
	x := runtime.NewStrict(runtime.NewBounds1(lo, hi))
	for k := range x.Data {
		x.Data[k] = float64(k%7) - 2.5
	}
	inputs := map[string]*runtime.Strict{"x": x}
	ex, err := loopir.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.RunResult(inputs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := loopir.BuildStreamPlan(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int64{1, 3, 16} {
		p, err := Build([]Def{{Name: "e", Prog: prog, Plan: plan}}, "e", Config{ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		first, second := make(chan *chunkMsg), make(chan *chunkMsg)
		done := make(chan error, 1)
		go func() {
			done <- p.runStage(0, inputs, nil, []chan *chunkMsg{first, second}, &accountant{}, newGate(1), make(chan struct{}))
		}()
		got := make([]float64, hi-lo+1)
		for range p.nCh {
			m := <-first
			copy(got[m.start-lo:], m.data)
			m.release()
			m.release()
			<-second
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		for k := range want.Data {
			if got[k] != want.Data[k] {
				t.Fatalf("chunk %d: element %d is %v, materialized %v", chunk, int64(k)+lo, got[k], want.Data[k])
			}
		}
	}
}
