package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one traffic mix. Set-up may run several times; the last
// set-up is the one measured.
type workload interface {
	// prepare fills caches users pay for once per host, untimed.
	prepare() error
	setup() error
	// pass runs the timed phase for d; tr is nil in untraced runs.
	pass(d time.Duration, tr *tracer) (loopStats, error)
	// pids lists the processes whose VmHWM is the workload's peak RSS.
	pids() []int
	// layers writes the per-layer metrics of a traced pass, running
	// any extra variants (the ladder) the metrics need.
	layers(r *result, st loopStats, tr *tracer) error
	close()
}

// registry maps each workload name to its constructor. Why each exists:
//
//   - kernels: the §9 stencils, a recurrence, irregular SpMV (valid and
//     violating index arrays) and a streamed chain, compiled once and
//     run in sweeps. The loop-IR executor, parallel schedules, the
//     idxprop verifier and the stream engine do the work; parsing,
//     analysis, the cache and HTTP do none.
//   - native: the same stencils promoted to the native tier, one
//     toolchain build per program inside set-up.
//   - compile: cold parse + compile + certify of a corpus; execution
//     does no work. This is what every haccd cache miss pays.
//   - serve: a two-replica haccd fleet under an open-loop Zipf mix of
//     small kernels, where per-request overhead, the plan cache, disk
//     restore and proxying dominate. Its wall latency follows the
//     host's steal from run to run, so BENCHMARK.json does not gate it;
//     every traced run still reports its layers.
var registry = map[string]func(cfg config) workload{
	"kernels": newKernels,
	"native":  newNative,
	"compile": newCompile,
	"serve":   newServe,
}

// traceOrder is the order a traced run visits the workloads in.
var traceOrder = []string{"kernels", "native", "compile", "serve"}

// otherPassSeconds is the traced-pass length of the workloads a traced
// run visits besides its own, whose layers it must still report.
const otherPassSeconds = 3

func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	r := newResult()
	d := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		w := registry[cfg.workload](cfg)
		defer w.close()
		if err := w.prepare(); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		setups, err := timedSetups(w)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		settle(r)
		st, err := w.pass(d, nil)
		if err != nil {
			return nil, err
		}
		st.endToEnd(r, setups, peakRSSMB(w.pids()), cfg)
		return r, nil
	}
	tr := newTracer()
	for _, name := range traceOrder {
		if err := tracedVisit(r, cfg, name, d, tr); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	r.note("spans written to %s", path)
	return r, nil
}

// tracedVisit sets up one workload and records its layers. The run's
// own workload also gets an untraced pass of the same length first,
// for the runtime, host and tracing-overhead metrics.
func tracedVisit(r *result, cfg config, name string, d time.Duration, tr *tracer) error {
	w := registry[name](cfg)
	defer w.close()
	if err := w.prepare(); err != nil {
		return err
	}
	if err := w.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if name != cfg.workload {
		st, err := w.pass(otherPassSeconds*time.Second, tr)
		if err != nil {
			return err
		}
		r.count(st.ops, st.failed)
		return w.layers(r, st, tr)
	}
	plain, err := w.pass(d/2, nil)
	if err != nil {
		return err
	}
	st, err := w.pass(d/2, tr)
	if err != nil {
		return err
	}
	r.count(plain.ops+st.ops, plain.failed+st.failed)
	if err := w.layers(r, st, tr); err != nil {
		return err
	}
	st.common(r, plain)
	r.lines = append(r.lines, hostLine(cfg, st.steal, ms(st.wall)/float64(st.timed)))
	return nil
}
