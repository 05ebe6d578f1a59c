package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/num"
)

// span is one timed call into a layer, recorded by benchmark code around the
// layer's public functions. Times are nanoseconds since the tracer started.
type span struct {
	ID int `json:"id"`
	// Parent is the ID of the span that caused this one, 0 for a root.
	Parent int `json:"parent"`
	// Trace groups the spans of one request (the X-Simtune-Trace value on
	// fleet workloads) or of one pass.
	Trace string `json:"trace"`
	Name  string `json:"name"`
	// Node names the fleet node a dispatch or handler span belongs to.
	Node    string `json:"node,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// spanParent names, for every span recorded by the benchmark, the span that
// contains it. Parents are resolved after the run from this table, the trace
// id and time containment, because a handler on the far side of an HTTP hop
// cannot know the id of the span that called it.
var spanParent = map[string]string{
	"te.build":        "pass",
	"schedule.replay": "pass",
	"lower.build":     "pass",
	"lower.execute":   "pass",
	"sim.run":         "pass",
	"hw.execute":      "pass",
	"core.train":      "pass",
	"core.evaluate":   "pass",
	"core.tune":       "pass",
	"core.validate":   "pass",
	"runner.build":    "core.tune",
	"runner.run":      "core.tune",
	"predictor.score": "runner.run",
	"router.handler":  "client.roundtrip",
	"router.dispatch": "router.handler",
	"router.ingest":   "router.handler",
	"node.handler":    "router.dispatch",
	"node.ingest":     "router.ingest",
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one that
// is switched off, records nothing, so the same decorated fleet serves the
// untraced reference passes of a traced run.
type tracer struct {
	enabled atomic.Bool
	t0      time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// on reports whether spans are being recorded.
func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

// record stores one finished span.
func (t *tracer) record(name, trace, node string, start, end time.Time) {
	if !t.on() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Trace: trace, Name: name, Node: node,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

// finish resolves parents and returns the spans in recording order.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	linkSpans(t.spans)
	return t.spans
}

// linkSpans sets each span's Parent to the tightest span of the same trace
// that carries the parent name spanParent prescribes, contains it in time and,
// when both are tied to a fleet node, belongs to the same node.
func linkSpans(spans []span) {
	byTrace := make(map[string][]int)
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	for i := range spans {
		c := &spans[i]
		want, ok := spanParent[c.Name]
		if !ok {
			continue
		}
		best := -1
		for _, j := range byTrace[c.Trace] {
			p := &spans[j]
			if j == i || p.Name != want || p.StartNS > c.StartNS || p.EndNS < c.EndNS {
				continue
			}
			if p.Node != "" && c.Node != "" && p.Node != c.Node {
				continue
			}
			if best < 0 || p.dur() < spans[best].dur() {
				best = j
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
		}
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its direct children cover. Children may overlap each other (parallel
// dispatches), so the covered part is the union of their intervals.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanSummary is the per-name roll-up written beside the raw spans.
type spanSummary struct {
	Name        string  `json:"name"`
	Count       int     `json:"count"`
	TotalMS     float64 `json:"total_ms"`
	SelfTotalMS float64 `json:"self_total_ms"`
	MedianUS    float64 `json:"median_us"`
	SelfMedUS   float64 `json:"self_median_us"`
}

// spanStats indexes finished spans by name for the layer metrics.
type spanStats struct {
	durUS  map[string][]float64
	selfUS map[string][]float64
}

func newSpanStats(spans []span) *spanStats {
	st := &spanStats{durUS: map[string][]float64{}, selfUS: map[string][]float64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		st.durUS[s.Name] = append(st.durUS[s.Name], float64(s.dur())/1e3)
		st.selfUS[s.Name] = append(st.selfUS[s.Name], float64(self[s.ID])/1e3)
	}
	return st
}

func (st *spanStats) count(name string) int { return len(st.durUS[name]) }

func (st *spanStats) summary() []spanSummary {
	out := make([]spanSummary, 0, len(st.durUS))
	for _, n := range sortedKeys(st.durUS) {
		out = append(out, spanSummary{
			Name: n, Count: len(st.durUS[n]),
			TotalMS: sum(st.durUS[n]) / 1e3, SelfTotalMS: sum(st.selfUS[n]) / 1e3,
			MedianUS: num.Median(st.durUS[n]), SelfMedUS: num.Median(st.selfUS[n]),
		})
	}
	return out
}
