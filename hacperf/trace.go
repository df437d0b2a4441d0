package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. Spans are recorded
// by the benchmark around its calls into each module's public
// functions; phases a module times internally (core's per-phase
// CompileReport) become synthetic child spans laid end to end inside
// their caller's span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Op     int           `json:"op"`     // the operation the span belongs to
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
	// CPU is the tracer clock's CPU over the span; zero for synthetic
	// spans.
	CPU  time.Duration `json:"cpu_ns"`
	cpu0 time.Duration
}

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how the untraced runs that produce end-to-end metrics stay free of
// tracing cost.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	op    int
	// clock is the CPU clock spans read: this process by default, the
	// whole process tree where work runs in subprocesses.
	clock func() time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), clock: selfCPU} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.epoch), cpu0: t.clock()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	s.CPU = t.clock() - s.cpu0
	s.End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// child records a synthetic, already finished child of parent.
func (t *tracer) child(parent int, name string, start, end time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name, Start: start, End: end})
}

// phases lays durations end to end from the start of parent as its
// synthetic children, in the given order.
func (t *tracer) phases(parent int, names []string, durs map[string]time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	at := t.spans[parent].Start
	for _, n := range names {
		if d := durs[n]; d > 0 {
			t.child(parent, n, at, at+d)
			at += d
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range ks {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerTotals aggregates spans by name: summed self time, summed CPU and
// the number of calls.
type layerTotal struct {
	calls int
	self  time.Duration
	cpu   time.Duration
}

func (t *tracer) totals() map[string]layerTotal {
	out := map[string]layerTotal{}
	if t == nil {
		return out
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.calls++
		lt.self += self[i]
		lt.cpu += s.CPU
		out[s.Name] = lt
	}
	return out
}

// write dumps the spans as JSON, for reading a run after the fact.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
