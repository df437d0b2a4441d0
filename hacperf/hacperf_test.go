package main

import (
	"math"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"arraycomp/internal/core"
	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {20, 50}, {19, 50}, {1, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := tailPercentile(c.n); c.n >= 20 && float64(c.n)*(100-q)/100 < 10 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", c.n, q)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if d := summarize(xs); d.p50 != 500 || d.tail != 990 || d.tailQ != 99 {
		t.Errorf("summarize(1..1000) = %+v, want p50 500, p99 990", d)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Start: 20 * ms, End: 50 * ms}, // overlaps span 1
		{ID: 3, Parent: 0, Start: 70 * ms, End: 80 * ms},
		{ID: 4, Parent: 3, Start: 75 * ms, End: 90 * ms}, // runs past its parent
		{ID: 5, Parent: -1, Start: 200 * ms, End: 210 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 30 * ms, 5 * ms, 15 * ms, 10 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestPhasesBecomeChildrenLaidEndToEnd(t *testing.T) {
	tr := newTracer()
	id := tr.begin("core")
	tr.end(id)
	tr.spans[id].End = tr.spans[id].Start + 10*time.Millisecond
	tr.phases(id, []string{"analysis", "certify"}, map[string]time.Duration{"analysis": 3 * time.Millisecond, "certify": 4 * time.Millisecond})
	tot := tr.totals()
	if tot["core"].self != 3*time.Millisecond || tot["analysis"].self != 3*time.Millisecond || tot["certify"].self != 4*time.Millisecond {
		t.Errorf("totals = %+v", tot)
	}
}

func TestOpenLoopScheduleIsDeterministic(t *testing.T) {
	a := schedule(7, 300, 2*time.Second, 48, 2)
	b := schedule(7, 300, 2*time.Second, 48, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if len(a) != 600 {
		t.Fatalf("%d requests, want 600", len(a))
	}
	if reflect.DeepEqual(a, schedule(8, 300, 2*time.Second, 48, 2)) {
		t.Error("another seed gave the same schedule")
	}
	for i, p := range a {
		if want := time.Duration(float64(i) / 300 * float64(time.Second)); p.at != want {
			t.Fatalf("request %d due at %v, want %v", i, p.at, want)
		}
		if p.replica != i%2 || p.batch != (i%batchEvery == batchEvery-1) || p.key < 0 || p.key >= 48 {
			t.Fatalf("request %d = %+v", i, p)
		}
	}
}

// TestChildCPUIsCounted runs a CPU-burning child process and checks
// that the process-tree clock counts its CPU while it runs and after
// it has been reaped.
func TestChildCPUIsCounted(t *testing.T) {
	const burn = 600 * time.Millisecond
	if os.Getenv("HACPERF_BURN") != "" {
		for selfCPU() < burn {
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestChildCPUIsCounted$")
	cmd.Env = append(os.Environ(), "HACPERF_BURN=1")
	c0, self0 := treeCPU(), selfCPU()
	others := func() time.Duration { return treeCPU() - c0 - (selfCPU() - self0) }
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// /proc reports a live process in 10 ms ticks; wait until it shows
	// a good part of the burn.
	live := time.Duration(0)
	for deadline := time.Now().Add(10 * time.Second); live < burn/3 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		live = others()
	}
	if live < burn/3 {
		t.Errorf("live child counted %v, want ≥ %v", live, burn/3)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	if reaped := others(); reaped < burn {
		t.Errorf("reaped child counted %v, want ≥ %v", reaped, burn)
	}
}

// flaky is a closed loop over one compiled kernel whose reference can
// be corrupted.
type flaky struct{ k *kernel }

func (f flaky) op(int, *tracer) (func() error, error) { return f.k.run(f.k.prog) }

func (f flaky) probe() {}

func (f flaky) probeRefMs() float64 { return 0 }

func TestWrongOutputCountsAsFailure(t *testing.T) {
	const n = 16
	k := &kernel{name: "wavefront", src: workloads.WavefrontSrc, params: map[string]int64{"n": n}, want: workloads.HandWavefront(n)}
	p, err := k.compile(core.Options{Parallel: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	k.prog = p
	if st := drive(flaky{k}, 0, 3, 1, nil); st.failed != 0 || st.ops != 3 {
		t.Fatalf("correct output: %d of %d failed (%v)", st.failed, st.ops, st.firstErr)
	}
	k.want = k.want.Clone()
	k.want.Data[n+3] += 1e-6
	st := drive(flaky{k}, 0, 3, 1, nil)
	if st.failed != 4 || st.ops != 4 {
		t.Fatalf("corrupted output: %d of %d failed, want every op and the warm-up", st.failed, st.ops)
	}
	r := newResult()
	st.endToEnd(r, []float64{1}, 1, config{nproc: 2})
	if r.failed != 4 || r.metrics["ok_ratio"].Value != 0 {
		t.Errorf("result counts %d failed, ok_ratio %v", r.failed, r.metrics["ok_ratio"].Value)
	}
}

func TestSameArrayRejectsNaNAndBounds(t *testing.T) {
	want := runtime.NewStrict(runtime.NewBounds1(1, 3))
	got := want.Clone()
	if err := sameArray(got, want); err != nil {
		t.Fatal(err)
	}
	got.Data[1] = math.NaN()
	if sameArray(got, want) == nil {
		t.Error("NaN accepted")
	}
	if sameArray(runtime.NewStrict(runtime.NewBounds1(0, 2)), want) == nil {
		t.Error("shifted bounds accepted")
	}
}

func TestChainHandMatchesCompiledChain(t *testing.T) {
	x := workloads.Vector(5000, 3)
	k := &kernel{name: "chain", src: chainSrc(10), params: map[string]int64{"n": 5000},
		inputs: map[string]*runtime.Strict{"x": x}, want: chainHand(x, 10), extra: core.Options{Stream: true}}
	p, err := k.compile(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.StreamActive() {
		t.Fatalf("chain did not stream: %s", p.StreamFallback())
	}
	check, err := k.run(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
}

func TestServeChecksEveryResult(t *testing.T) {
	k, err := buildKey("wavefront", 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := func(a *runtime.Strict) evalResult { return evalResult{Result: toJSON(a.Clone())} }
	var ns int64
	ok := serveResponse{evalResult: res(k.want[1])}
	if err := checkServe(k, planned{variant: 1}, ok, &ns); err != nil {
		t.Fatal(err)
	}
	bad := serveResponse{evalResult: res(k.want[1])}
	bad.Result.Data[9] *= 1.001
	if checkServe(k, planned{variant: 1}, bad, &ns) == nil {
		t.Error("a wrong /eval result passed")
	}
	batch := serveResponse{Results: []evalResult{res(k.want[0]), res(k.want[1]), res(k.want[2])}}
	if checkServe(k, planned{batch: true}, batch, &ns) == nil {
		t.Error("a short /evalbatch response passed")
	}
}
