package core

import (
	"bytes"
	"fmt"
	"math"
	goruntime "runtime"
	"strings"
	"testing"

	"arraycomp/internal/analysis"
	"arraycomp/internal/metrics"
	"arraycomp/internal/runtime"
)

// roundtrip certifies, compiles, snapshots, gob-encodes, decodes, and
// restores src, then checks the restored program's output is bitwise
// identical to the original's and that it paid zero compile-phase time.
func roundtrip(t *testing.T, src string, params map[string]int64, opts Options, inputs map[string]*runtime.Strict) *Program {
	t.Helper()
	opts.Certify = true
	p := compile(t, src, params, opts)
	want, err := p.Run(inputs)
	if err != nil {
		t.Fatalf("original run: %v\n%s", err, p.Report())
	}

	s, err := p.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v\n%s", err, p.Report())
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	r, err := RestoreSnapshot(dec, opts)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}

	got, err := r.Run(inputs)
	if err != nil {
		t.Fatalf("restored run: %v\n%s", err, r.Report())
	}
	if !got.EqualWithin(want, 0) {
		t.Fatalf("restored program output differs bitwise from original\n%s", r.Report())
	}
	for _, ph := range metrics.CompilePhases {
		if d := r.Stats.Phases[ph]; d != 0 {
			t.Errorf("restored program charged %v to compile phase %q; must be zero", d, ph)
		}
	}
	if r.Certs == nil || r.Certs.CertifiedCount != p.Certs.CertifiedCount {
		t.Errorf("restored certificate lost: got %+v, want %d certified claims", r.Certs, p.Certs.CertifiedCount)
	}
	return r
}

func TestSnapshotRoundtripSquares(t *testing.T) {
	r := roundtrip(t, `sq = array (1,n) [ i := i*i | i <- [1..n] ]`,
		map[string]int64{"n": 64}, Options{}, nil)
	if _, ok := r.Stats.Phases[metrics.PhaseLoad]; !ok {
		t.Error("restored program must charge the load phase")
	}
}

func TestSnapshotRoundtripWavefront(t *testing.T) {
	src := `a = array ((1,1),(n,n))
	  ([ (1,j) := 1.0 | j <- [1..n] ] ++
	   [ (i,1) := 1.0 | i <- [2..n] ] ++
	   [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
	     | i <- [2..n], j <- [2..n] ])`
	roundtrip(t, src, map[string]int64{"n": 16}, Options{}, nil)
}

func TestSnapshotRoundtripWavefrontParallel(t *testing.T) {
	src := `a = array ((1,1),(n,n))
	  ([ (1,j) := 1.0 | j <- [1..n] ] ++
	   [ (i,1) := 1.0 | i <- [2..n] ] ++
	   [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
	     | i <- [2..n], j <- [2..n] ])`
	roundtrip(t, src, map[string]int64{"n": 24}, Options{Parallel: true, Workers: 3}, nil)
}

func TestSnapshotRoundtripAccumArray(t *testing.T) {
	// The accumulating store's combiner is a closure gob cannot carry;
	// the HasAccum marker plus RebindAccum must restore it. The 'right'
	// combiner is order-sensitive, so a silently dropped accumulation
	// (plain store semantics) would still "work" for (+) histograms —
	// exercise both.
	roundtrip(t, `h = accumArray (+) 0.0 (0,9) [ (3*i) mod 10 := 1.0 | i <- [1..n] ]`,
		map[string]int64{"n": 30}, Options{}, nil)
	roundtrip(t, `h = accumArray right 0.0 (1,n)
	  ([ i := 1.0 | i <- [1..n] ] ++ [ i := 2.0 | i <- [1..n] ])`,
		map[string]int64{"n": 5}, Options{}, nil)
}

func TestSnapshotRoundtripInPlace(t *testing.T) {
	src := `param n;
	a2 = bigupd a
	  [* [ (i,j) := 0.25 * (a2!(i-1,j) + a2!(i,j-1) + a!(i+1,j) + a!(i,j+1)) ]
	   | i <- [2..n-1], j <- [2..n-1] *]`
	n := int64(12)
	opts := Options{InputBounds: map[string]analysis.ArrayBounds{"a": matBounds(n, n)}}
	in := makeMatrix(n, n, func(i, j int64) float64 { return float64((i*3+j*5)%7) + 0.25 })
	orig := in.Clone()
	roundtrip(t, src, map[string]int64{"n": n}, opts, map[string]*runtime.Strict{"a": in})
	// The restored in-place plan must still clone the caller's input.
	if !in.EqualWithin(orig, 0) {
		t.Error("restored in-place plan mutated the caller's input")
	}
}

func TestSnapshotRoundtripMultiDef(t *testing.T) {
	src := `letrec*
	  b = array (1,n) [ i := 2.0 * i | i <- [1..n] ];
	  c = array (1,n) [ i := b!i + 1.0 | i <- [1..n] ];
	  d = array (1,n) [ i := c!i * b!i | i <- [1..n] ]
	in d`
	roundtrip(t, src, map[string]int64{"n": 20}, Options{}, nil)
}

func TestSnapshotRefusesUncertified(t *testing.T) {
	p := compile(t, `sq = array (1,n) [ i := i*i | i <- [1..n] ]`,
		map[string]int64{"n": 8}, Options{})
	if _, err := p.Snapshot(); err == nil || !strings.Contains(err.Error(), "uncertified") {
		t.Fatalf("snapshot of uncertified program: err = %v, want uncertified refusal", err)
	}
}

func TestSnapshotRefusesThunked(t *testing.T) {
	src := `param n;
	a = array (1,2*n)
	  [* [ i := if i >= n - 1 then 1.0 else a!(n+i+2) + 1.0 ] ++
	     [ n + i := if i == 1 then 1.0 else a!(i-1) + 1.0 ]
	   | i <- [1..n] *]`
	p := compile(t, src, map[string]int64{"n": 6}, Options{Certify: true})
	if p.Defs["a"].Mode() != "thunked" {
		t.Fatalf("precondition: mode = %s, want thunked", p.Defs["a"].Mode())
	}
	if _, err := p.Snapshot(); err == nil || !strings.Contains(err.Error(), "thunkless") {
		t.Fatalf("snapshot of thunked program: err = %v, want thunkless refusal", err)
	}
}

func TestSnapshotCorruptAccumMarker(t *testing.T) {
	// A decoded snapshot whose accumulating store lost its combiner name
	// must refuse to restore rather than run with plain-store semantics.
	p := compile(t, `h = accumArray (+) 0.0 (0,9) [ i mod 10 := 1.0 | i <- [1..n] ]`,
		map[string]int64{"n": 10}, Options{Certify: true})
	s, err := p.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range dec.Defs {
		dec.Defs[i].IR.AccumOp = ""
	}
	if _, err := RestoreSnapshot(dec, Options{}); err == nil || !strings.Contains(err.Error(), "AccumOp") {
		t.Fatalf("restore with dropped combiner: err = %v, want AccumOp error", err)
	}
}

// TestSnapshotAcrossGOMAXPROCS writes snapshots of certified parallel
// programs whose loops run block kernels (the §3 wavefront, scheduled
// as a wavefront, and a streamed ten-stage chain) in a GOMAXPROCS=1
// process and restores them at GOMAXPROCS=4: the plans are identical
// to the written ones and to a fresh compile at 4, and the restored
// program's output, run on four workers, is bitwise identical.
func TestSnapshotAcrossGOMAXPROCS(t *testing.T) {
	var chain strings.Builder
	chain.WriteString("letrec* s1 = array (1,n) [ i := x!i + 1.0 | i <- [1..n] ]")
	for k := 2; k <= 10; k++ {
		s, prev := fmt.Sprintf("s%d", k), fmt.Sprintf("s%d", k-1)
		switch k % 3 {
		case 0:
			fmt.Fprintf(&chain, ";\n %[1]s = array (1,n) ([ 1 := %[2]s!1 ] ++ [ i := (%[2]s!(i-1) + %[2]s!i + %[2]s!(i+1)) / 3.0 | i <- [2..n-1] ] ++ [ n := %[2]s!n ])", s, prev)
		case 1:
			fmt.Fprintf(&chain, ";\n %[1]s = array (1,n) ([ 1 := %[2]s!1 ] ++ [ i := %[1]s!(i-1) * 0.75 + %[2]s!i * 0.25 | i <- [2..n] ])", s, prev)
		case 2:
			fmt.Fprintf(&chain, ";\n %s = array (1,n) [ i := %s!i * 0.5 + 0.25 | i <- [1..n] ]", s, prev)
		}
	}
	chain.WriteString("\nin s10")
	n := int64(20000)
	x := runtime.NewStrict(runtime.NewBounds1(1, n))
	for i := range x.Data {
		x.Data[i] = math.Sin(float64(i) * 0.3)
	}
	cases := []struct {
		name, src string
		params    map[string]int64
		opts      Options
		inputs    map[string]*runtime.Strict
		want      string
	}{
		{"wavefront", `a = array ((1,1),(n,n))
		  ([ (1,j) := 1.0 | j <- [1..n] ] ++
		   [ (i,1) := 1.0 | i <- [2..n] ] ++
		   [ (i,j) := 0.3 * a!(i-1,j) + 0.3 * a!(i,j-1) + 0.4 * a!(i-1,j-1)
		     | i <- [2..n], j <- [2..n] ])`,
			map[string]int64{"n": 200}, Options{Parallel: true}, nil, "wavefront"},
		{"chain", chain.String(), map[string]int64{"n": n},
			Options{Parallel: true, Stream: true,
				InputBounds: map[string]analysis.ArrayBounds{"x": {Lo: []int64{1}, Hi: []int64{n}}}},
			map[string]*runtime.Strict{"x": x}, "shard"},
	}
	dump := func(p *Program) string {
		var b strings.Builder
		for _, name := range p.Order {
			b.WriteString(p.Defs[name].Plan.Program.Dump())
		}
		return b.String()
	}
	bitwise := func(a, b *runtime.Strict) bool {
		if len(a.Data) != len(b.Data) {
			return false
		}
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				return false
			}
		}
		return true
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, tc := range cases {
		tc.opts.Certify = true
		goruntime.GOMAXPROCS(1)
		p := compile(t, tc.src, tc.params, tc.opts)
		want, err := p.Run(tc.inputs)
		if err != nil {
			t.Fatalf("%s: run at GOMAXPROCS=1: %v", tc.name, err)
		}
		s, err := p.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		written := dump(p)
		if !strings.Contains(written, tc.want) {
			t.Fatalf("%s: no %s schedule:\n%s", tc.name, tc.want, written)
		}

		goruntime.GOMAXPROCS(4)
		dec, err := DecodeSnapshot(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		r, err := RestoreSnapshot(dec, tc.opts)
		if err != nil {
			t.Fatalf("%s: restore at GOMAXPROCS=4: %v", tc.name, err)
		}
		if got := dump(r); got != written {
			t.Fatalf("%s: restored plan differs:\n%s\nwritten:\n%s", tc.name, got, written)
		}
		if fresh := dump(compile(t, tc.src, tc.params, tc.opts)); fresh != written {
			t.Fatalf("%s: plan compiled at GOMAXPROCS=4 differs:\n%s\nat 1:\n%s", tc.name, fresh, written)
		}
		if tc.opts.Stream && !r.StreamActive() {
			t.Fatalf("%s: restored program does not stream: %s", tc.name, r.StreamFallback())
		}
		got, err := r.Run(tc.inputs)
		if err != nil {
			t.Fatalf("%s: restored run at GOMAXPROCS=4: %v", tc.name, err)
		}
		if !bitwise(got, want) {
			t.Fatalf("%s: output restored at GOMAXPROCS=4 differs bitwise", tc.name)
		}
	}
}
