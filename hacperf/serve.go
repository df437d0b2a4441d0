package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"arraycomp/internal/runtime"
	"arraycomp/internal/workloads"
)

// The serve workload: two haccd replicas form a -peers fleet with a
// disk tier, each holding fewer plans than there are distinct keys.
// One process generates an open-loop load at serveRate, round-robin
// across the replicas, over a seeded Zipf mix of (kernel, n) keys with
// explicit input arrays. Most requests are /eval; every batchEvery-th
// is an /evalbatch of all the key's input variants.
const (
	// serveRate is the offered load in requests per second, under half
	// of the ~800 a quiet 2-vCPU host sustains.
	serveRate    = 300
	replicas     = 2
	cacheEntries = 8 // per replica, against len(serveKernels)·len(serveSizes) keys
	variants     = 4 // input variants per key
	batchEvery   = 8
	zipfS        = 1.1
	// requestTimeout bounds one request; a request that takes longer
	// counts as failed.
	requestTimeout = 10 * time.Second
)

var (
	serveKernels = []string{"jacobi", "sor", "liv23", "wavefront", "recurrence", "spmv"}
	serveSizes   = []int64{8, 10, 12, 16, 20, 24, 28, 32}
)

// serveKey is one cache key: a kernel at one size with fixed options.
type serveKey struct {
	kernel string
	n      int64
	// evalBody[v] is the /eval request for input variant v; batchBody
	// carries all variants; want[v] is variant v's hand-loop result.
	evalBody  [][]byte
	batchBody []byte
	want      []*runtime.Strict
}

type arrayJSON struct {
	Lo   []int64   `json:"lo"`
	Hi   []int64   `json:"hi"`
	Data []float64 `json:"data"`
}

func toJSON(a *runtime.Strict) arrayJSON { return arrayJSON{Lo: a.B.Lo, Hi: a.B.Hi, Data: a.Data} }

// serveInputs builds one variant's inputs, parameters and reference.
func serveInputs(kernel string, n, seed int64) (map[string]int64, map[string]*runtime.Strict, *runtime.Strict) {
	p := map[string]int64{"n": n}
	switch kernel {
	case "jacobi", "sor":
		a := workloads.Mesh(n, seed)
		want := a.Clone()
		if kernel == "jacobi" {
			workloads.HandJacobi(want)
		} else {
			workloads.HandSOR(want)
		}
		return p, map[string]*runtime.Strict{"a": a}, want
	case "liv23":
		in := map[string]*runtime.Strict{}
		for i, name := range []string{"za", "zr", "zb", "zu", "zv"} {
			in[name] = workloads.Mesh(n, seed+int64(i))
		}
		want := in["za"].Clone()
		workloads.HandLivermore23(want, in["zr"], in["zb"], in["zu"], in["zv"])
		return p, in, want
	case "wavefront":
		return p, nil, workloads.HandWavefront(n)
	case "recurrence":
		return map[string]int64{"n": n * n}, nil, workloads.HandRecurrence(n * n)
	default: // spmv: n² rows of 4 entries, so nnz is fixed per key
		c := fixedCSR(n*n, 4, seed)
		return c.Params, c.Inputs, workloads.HandSpMV(c)
	}
}

// fixedCSR is a CSR matrix with exactly deg entries per row, so every
// variant of a key shares its nnz parameter and therefore its plan.
func fixedCSR(rows, deg, seed int64) workloads.SparseCase {
	rng := rand.New(rand.NewSource(seed))
	nnz := rows * deg
	row := runtime.NewStrict(runtime.NewBounds1(1, nnz))
	col := runtime.NewStrict(runtime.NewBounds1(1, nnz))
	v := runtime.NewStrict(runtime.NewBounds1(1, nnz))
	for k := int64(0); k < nnz; k++ {
		row.Data[k] = float64(k/deg + 1)
		col.Data[k] = float64(1 + rng.Int63n(rows))
		v.Data[k] = rng.Float64()
	}
	return workloads.SparseCase{
		Params: map[string]int64{"n": rows, "nnz": nnz},
		Inputs: map[string]*runtime.Strict{"row": row, "col": col, "v": v, "x": workloads.Vector(rows, seed+1)},
	}
}

var serveSrc = map[string]string{
	"jacobi": workloads.JacobiSrc, "sor": workloads.SORSrc, "liv23": workloads.Livermore23Src,
	"wavefront": workloads.WavefrontSrc, "recurrence": workloads.RecurrenceSrc, "spmv": workloads.SpMVSrc,
}

// buildKey encodes every request body of one key.
func buildKey(kernel string, n int64, seed int64, workers int) (*serveKey, error) {
	k := &serveKey{kernel: kernel, n: n}
	type evalCtx struct {
		Inputs map[string]arrayJSON `json:"inputs,omitempty"`
	}
	var params map[string]int64
	var bounds map[string]map[string][]int64
	var evals []evalCtx
	for v := 0; v < variants; v++ {
		p, in, want := serveInputs(kernel, n, seed*1000+int64(v)*10)
		params = p
		ctx := evalCtx{Inputs: map[string]arrayJSON{}}
		bounds = map[string]map[string][]int64{}
		for name, a := range in {
			ctx.Inputs[name] = toJSON(a)
			bounds[name] = map[string][]int64{"lo": a.B.Lo, "hi": a.B.Hi}
		}
		evals = append(evals, ctx)
		k.want = append(k.want, want)
	}
	base := map[string]any{
		"source": serveSrc[kernel],
		"params": params,
		// Certified plans are the ones the disk tier keeps.
		"options": map[string]any{"parallel": true, "workers": workers, "certify": true, "input_bounds": bounds},
	}
	for _, ctx := range evals {
		req := map[string]any{"inputs": ctx.Inputs}
		for key, val := range base {
			req[key] = val
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		k.evalBody = append(k.evalBody, b)
	}
	base["evals"] = evals
	b, err := json.Marshal(base)
	if err != nil {
		return nil, err
	}
	k.batchBody = b
	return k, nil
}

// planned is one scheduled request of the open loop.
type planned struct {
	at      time.Duration // send time, from the start of the timed phase
	key     int           // index into the rank-ordered keys
	variant int
	batch   bool
	replica int
}

// schedule is the deterministic open-loop plan for one seed: sends at
// a fixed rate, keys from a seeded Zipf law over the key ranks,
// round-robin over the replicas, every batchEvery-th an /evalbatch.
func schedule(seed int64, rate float64, d time.Duration, nkeys, nrep int) []planned {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(nkeys-1))
	n := int(rate * d.Seconds())
	out := make([]planned, n)
	for i := range out {
		out[i] = planned{
			at:      time.Duration(float64(i) / rate * float64(time.Second)),
			key:     int(z.Uint64()),
			variant: rng.Intn(variants),
			batch:   i%batchEvery == batchEvery-1,
			replica: i % nrep,
		}
	}
	return out
}

// record is what the client saw for one request.
type record struct {
	planned
	sent, done time.Duration // from the start of the timed phase
	err        error
	cache      string
	compileNs  int64
	evalNs     int64
	loadNs     int64
}

func (rc record) latencyMs() float64 {
	if rc.err != nil {
		return math.Inf(1) // a failed request misses every latency limit
	}
	return ms(rc.done - rc.at)
}

type replica struct {
	addr string
	cmd  *exec.Cmd
}

type serveWL struct {
	cfg    config
	keys   []*serveKey // in Zipf rank order
	fleet  []*replica
	dir    string // the fleet's disk caches
	client *http.Client
	setups int
	// last and lastMetrics are the records and the fleet's metric deltas
	// of the latest pass.
	last        []record
	lastMetrics promSample
}

func newServe(cfg config) workload {
	w := &serveWL{cfg: cfg}
	perHost := w.sendersPerReplica()
	w.client = &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: perHost, MaxIdleConnsPerHost: perHost, DisableCompression: true},
	}
	return w
}

// prepare encodes every request body and its reference result.
func (w *serveWL) prepare() error {
	// Rank r is kernel r mod 6 at size r div 6: the hot keys span every
	// kernel at its smallest sizes.
	for _, n := range serveSizes {
		for _, kname := range serveKernels {
			k, err := buildKey(kname, n, w.cfg.seed*7+n, w.cfg.nproc)
			if err != nil {
				return err
			}
			w.keys = append(w.keys, k)
		}
	}
	return nil
}

// setup starts a fresh fleet with empty caches.
func (w *serveWL) setup() error {
	w.stopFleet()
	w.setups++
	return w.startFleet(filepath.Join(w.cfg.workdir, fmt.Sprintf("serve-%d-%d", os.Getpid(), w.setups)))
}

// sendersPerReplica keeps the client at about nproc connections in
// all, and at least one per replica.
func (w *serveWL) sendersPerReplica() int { return max(1, w.cfg.nproc/replicas) }

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startFleet starts the replicas with their disk caches under dir and
// waits until each answers /healthz.
func (w *serveWL) startFleet(dir string) error {
	if w.cfg.haccd == "" {
		return fmt.Errorf("serve needs --haccd")
	}
	w.dir = dir
	var addrs []string
	for i := 0; i < replicas; i++ {
		a, err := freePort()
		if err != nil {
			return err
		}
		addrs = append(addrs, a)
	}
	for i, a := range addrs {
		cdir := filepath.Join(dir, strconv.Itoa(i))
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			return err
		}
		cmd := exec.Command(w.cfg.haccd, "-addr", a, "-cache-entries", strconv.Itoa(cacheEntries),
			"-cache-dir", cdir, "-peers", strings.Join(addrs, ","), "-self", a)
		cmd.Stderr = io.Discard
		cmd.Stdout = io.Discard
		// The replicas die with this process even if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start haccd: %w", err)
		}
		w.fleet = append(w.fleet, &replica{addr: a, cmd: cmd})
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, r := range w.fleet {
		for {
			resp, err := w.client.Get("http://" + r.addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("haccd at %s not healthy: %v", r.addr, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// stopFleet terminates the replicas and waits for them.
func (w *serveWL) stopFleet() {
	for _, r := range w.fleet {
		r.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { r.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			r.cmd.Process.Kill()
			<-done
		}
	}
	w.fleet = nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.client.CloseIdleConnections()
}

func (w *serveWL) close() {
	w.stopFleet()
}

func (w *serveWL) pids() []int {
	var out []int
	for _, r := range w.fleet {
		out = append(out, r.cmd.Process.Pid)
	}
	return out
}

// evalResult mirrors the fields of haccd's /eval and /evalbatch
// responses the client reads.
type evalResult struct {
	Result arrayJSON `json:"result"`
	EvalNs int64     `json:"eval_ns"`
	Error  string    `json:"error"`
}

type serveResponse struct {
	Cache     string           `json:"cache"`
	CompileNs int64            `json:"compile_ns"`
	PhasesNs  map[string]int64 `json:"phases_ns"`
	evalResult
	Results []evalResult `json:"results"`
	Error   string       `json:"error"`
}

// do sends one planned request and checks every result in the response
// against the hand-loop result of the inputs it carried.
func (w *serveWL) do(p planned, start time.Time) record {
	rc := record{planned: p, sent: time.Since(start)}
	k := w.keys[p.key]
	url, body := "http://"+w.fleet[p.replica].addr+"/eval", k.evalBody[p.variant]
	if p.batch {
		url, body = "http://"+w.fleet[p.replica].addr+"/evalbatch", k.batchBody
	}
	resp, err := w.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		rc.err, rc.done = err, time.Since(start)
		return rc
	}
	var sr serveResponse
	derr := json.NewDecoder(bufio.NewReader(resp.Body)).Decode(&sr)
	resp.Body.Close()
	rc.done = time.Since(start)
	switch {
	case resp.StatusCode != http.StatusOK:
		rc.err = fmt.Errorf("status %d: %s", resp.StatusCode, sr.Error)
	case derr != nil:
		rc.err = fmt.Errorf("decode: %w", derr)
	default:
		rc.cache, rc.compileNs, rc.loadNs = sr.Cache, sr.CompileNs, sr.PhasesNs["load"]
		rc.err = checkServe(k, p, sr, &rc.evalNs)
	}
	return rc
}

func checkServe(k *serveKey, p planned, sr serveResponse, evalNs *int64) error {
	results := []evalResult{sr.evalResult}
	wants := []*runtime.Strict{k.want[p.variant]}
	if p.batch {
		results, wants = sr.Results, k.want
		if len(results) != len(wants) {
			return fmt.Errorf("%d batch results, want %d", len(results), len(wants))
		}
	}
	for i, res := range results {
		if res.Error != "" {
			return fmt.Errorf("evaluation %d: %s", i, res.Error)
		}
		*evalNs += res.EvalNs
		got := runtime.NewStrict(runtime.Bounds{Lo: res.Result.Lo, Hi: res.Result.Hi})
		if len(got.Data) != len(res.Result.Data) {
			return fmt.Errorf("result bounds %v do not match %d elements", got.B, len(res.Result.Data))
		}
		copy(got.Data, res.Result.Data)
		if err := sameArray(got, wants[i]); err != nil {
			return fmt.Errorf("%s n=%d: %w", k.kernel, k.n, err)
		}
	}
	return nil
}

// pass runs the open loop for d. A request waits for its replica's
// sender when that is busy, and the wait counts in its latency.
func (w *serveWL) pass(d time.Duration, tr *tracer) (loopStats, error) {
	var st loopStats
	plan := schedule(w.cfg.seed, serveRate, d, len(w.keys), len(w.fleet))
	m0, err := w.scrape()
	if err != nil {
		return st, err
	}
	var ms0, ms1 memSample
	ms0.read()
	pids := w.pids()
	c0 := pidsCPU(pids)
	h0 := readHostCPU()
	// Each replica has its own queue and senders, so a stalled replica
	// holds up only the requests sent to it. Queues are sized to the
	// number of sends.
	queues := make([]chan planned, len(w.fleet))
	done := make(chan record, len(plan))
	start := time.Now()
	var base time.Duration
	if tr != nil {
		base = start.Sub(tr.epoch)
	}
	for i := range queues {
		queues[i] = make(chan planned, len(plan))
		for s := 0; s < w.sendersPerReplica(); s++ {
			go func(q chan planned) {
				for p := range q {
					done <- w.do(p, start)
				}
			}(queues[i])
		}
	}
	go func() {
		for _, p := range plan {
			if wait := p.at - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			queues[p.replica] <- p
		}
		for _, q := range queues {
			close(q)
		}
	}()
	recs := make([]record, 0, len(plan))
	for range plan {
		recs = append(recs, <-done)
	}
	st.wall = time.Since(start)
	st.cpuTotal = pidsCPU(pids) - c0
	st.steal = stealShare(h0, readHostCPU())
	ms1.read()
	m1, err := w.scrape()
	if err != nil {
		return st, err
	}
	w.last = recs
	w.lastMetrics = m1.minus(m0)
	st.ops, st.timed = len(recs), len(recs)
	for _, rc := range recs {
		st.lat = append(st.lat, rc.latencyMs())
		if rc.err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = rc.err
			}
		}
		w.spans(tr, rc, base)
	}
	st.latWhat = "wall latency from the scheduled send time"
	st.allocMB, st.numGC, st.gcCPU = ms1.minus(ms0)
	return st, nil
}

// spans records a finished request as client-side spans: the wait for
// a sender and connection, then the HTTP call with the compile and
// eval time the replica reported as its children.
func (w *serveWL) spans(tr *tracer, rc record, base time.Duration) {
	if tr == nil {
		return
	}
	tr.op = int(rc.at / time.Microsecond)
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: -1, Op: tr.op, Name: "client.wait", Start: base + rc.at, End: base + rc.sent})
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: -1, Op: tr.op, Name: "serve.request", Start: base + rc.sent, End: base + rc.done})
	tr.phases(id, []string{"serve.compile", "serve.eval"}, map[string]time.Duration{
		"serve.compile": time.Duration(rc.compileNs), "serve.eval": time.Duration(rc.evalNs)})
}

// promSample is a Prometheus text exposition summed over the fleet,
// keyed by series (name plus labels).
type promSample map[string]float64

// scrape reads /metrics from every replica.
func (w *serveWL) scrape() (promSample, error) {
	out := promSample{}
	for _, r := range w.fleet {
		resp, err := w.client.Get("http://" + r.addr + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", r.addr, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("scrape %s: %w", r.addr, err)
		}
	}
	return out, nil
}

func (p promSample) minus(prev promSample) promSample {
	out := promSample{}
	for k, v := range p {
		out[k] = v - prev[k]
	}
	return out
}

// sum adds every series of one metric family.
func (p promSample) sum(family string) float64 {
	var s float64
	for k, v := range p {
		if k == family || strings.HasPrefix(k, family+"{") {
			s += v
		}
	}
	return s
}

func (w *serveWL) layers(r *result, st loopStats, tr *tracer) error {
	if st.firstErr != nil {
		r.note("serve: first failure: %v", st.firstErr)
	}
	var eval, comp, other, late, load []float64
	cache := map[string]int{}
	ok := 0
	for _, rc := range w.last {
		late = append(late, ms(rc.sent-rc.at))
		if rc.err != nil {
			continue
		}
		ok++
		cache[rc.cache]++
		e, c := float64(rc.evalNs)/1e6, float64(rc.compileNs)/1e6
		eval, comp = append(eval, e), append(comp, c)
		other = append(other, rc.latencyMs()-e-c)
		if rc.cache == "disk" {
			load = append(load, float64(rc.loadNs)/1e6)
		}
	}
	for _, part := range []struct {
		name string
		xs   []float64
	}{{"eval", eval}, {"compile", comp}, {"other", other}} {
		d := summarize(part.xs)
		r.set("serve."+part.name+"_ms_p50", d.p50, "ms", fmt.Sprintf("n=%d", d.n))
		r.set("serve."+part.name+"_ms_p99", d.tail, "ms", fmt.Sprintf("at p%g, n=%d", d.tailQ, d.n))
	}
	for _, tier := range []string{"hit", "disk", "miss"} {
		r.set("cache."+tier+"_share", float64(cache[tier])/float64(ok), "ratio", fmt.Sprintf("%d of %d answered requests", cache[tier], ok))
	}
	m := w.lastMetrics
	r.set("cache.evictions", m.sum("haccd_cache_evictions_total"), "count", "summed over the fleet")
	r.set("cache.singleflight_waits", m.sum("haccd_cache_singleflight_waits_total"), "count", "summed over the fleet")
	if len(load) > 0 {
		r.set("cache.load_ms_p50", median(load), "ms", fmt.Sprintf("disk restores, n=%d", len(load)))
	} else {
		r.set("cache.load_ms_p50", nan, "ms", "no request was served from the disk tier")
	}
	r.set("shard.proxied_share", m[`haccd_proxy_total{outcome="forwarded"}`]/float64(len(w.last)), "ratio", "forwarded to the owning replica")
	r.set("shard.fallbacks", m[`haccd_proxy_total{outcome="fallback"}`], "count", "")
	r.set("serve.shed", m.sum("haccd_shed_total"), "count", "429 responses")
	d := summarize(late)
	r.set("client.late_ms_p99", d.tail, "ms", fmt.Sprintf("send time behind schedule at p%g, n=%d", d.tailQ, d.n))
	return nil
}
