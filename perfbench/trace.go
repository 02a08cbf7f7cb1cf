package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans nest: a
// repetition span parents the row, curve or window spans, which parent
// the calls made for them.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: no parent
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced repetitions run the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of enclosing span indices
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// since returns the host time elapsed since start and records it as a
// span named name under the innermost open span.
func (t *tracer) since(name string, start time.Time) time.Duration {
	end := time.Now()
	if t != nil {
		t.add(name, start, end)
	}
	return end.Sub(start)
}

func (t *tracer) add(name string, start, end time.Time) int {
	s := span{ID: len(t.spans) + 1, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// enter opens a parent span; the returned function closes it.
func (t *tracer) enter(name string) func() {
	if t == nil {
		return func() {}
	}
	now := time.Now()
	i := t.add(name, now, now)
	t.open = append(t.open, i)
	return func() {
		t.spans[i].End = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanMetric reduces the spans of one name to a per-layer figure.
type spanMetric struct {
	name, span, unit string
	// agg is "per_rep" (total per repetition), "median" or "max" (over
	// the individual spans).
	agg   string
	scale float64 // seconds → unit
}

var spanMetrics = []spanMetric{
	{"prog.assemble_s", "prog.assemble", "s", "per_rep", 1},
	{"platform.build_s", "platform.build", "s", "per_rep", 1},
	{"exp.ref_run_s", "exp.ref_run", "s", "per_rep", 1},
	{"core.translate_s", "core.translate", "s", "per_rep", 1},
	{"trace.write_s", "trace.write", "s", "per_rep", 1},
	{"platform.tg_run_s", "platform.tg_run", "s", "per_rep", 1},
	{"sweep.curve_med_s", "sweep.curve", "s", "median", 1},
	{"sweep.curve_max_s", "sweep.curve", "s", "max", 1},
	{"analytic.estimate_us", "analytic.estimate", "us", "median", 1e6},
	{"shard.advance_ms", "shard.advance", "ms", "median", 1e3},
}

func (t *tracer) metric(m spanMetric, reps int) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == m.span {
			ds = append(ds, float64(s.End-s.Start)/1e9)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	var v float64
	switch m.agg {
	case "per_rep":
		for _, d := range ds {
			v += d
		}
		v /= float64(reps)
	case "median":
		v = median(ds)
	case "max":
		sort.Float64s(ds)
		v = ds[len(ds)-1]
	}
	return v * m.scale
}

// countMetric is a deterministic count of modelled work, taken from
// registry snapshots or public fields after a repetition.
type countMetric struct{ name, unit string }

var countMetrics = []countMetric{
	{"noc.flits_routed", "count"},
	{"amba.grants", "count"},
	{"core.inst_ret", "count"},
	{"cpu.inst_ret", "count"},
	{"stochastic.transactions", "count"},
	{"trace.bytes", "bytes"},
	{"sweep.levels_simulated", "count"},
	{"sweep.levels_estimated", "count"},
}

// ratioMetrics divide one count by another; the operands are counts the
// workloads record but do not report on their own.
var ratioMetrics = []struct{ name, num, den string }{
	{"noc.flits_per_router_cycle", "noc.flits_routed", "noc.router_cycles"},
	{"amba.busy_frac", "amba.busy_cycles", "amba.cycles"},
	{"cache.miss_rate", "cache.misses", "cache.accesses"},
}
