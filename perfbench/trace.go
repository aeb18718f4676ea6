package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/serving"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer's public functions. Times are host nanoseconds since the
// tracer's origin; parent is the index of the enclosing span (-1 = root).
type span struct {
	name       string
	layer      string
	start, end int64
	parent     int
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{origin: now()} }

func (t *tracer) ns() int64 { return int64(since(t.origin) * 1e9) }

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(layer, name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, layer: layer, start: t.ns(), end: -1, parent: parent})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	t.spans[i].end = t.ns()
	t.open = t.open[:len(t.open)-1]
}

// durations returns the durations, in microseconds, of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// spanWorkload is a pass-through serving.Workload that spans the interval
// from each Next call to the next one: the engine or cluster calls Next
// once at the start of every executed tick, so each span is one tick.
type spanWorkload struct {
	serving.Workload
	t     *tracer
	name  string
	layer string
	cur   int // open tick span, -1 before the first tick
}

func wrapTicks(w serving.Workload, t *tracer, layer string) *spanWorkload {
	return &spanWorkload{Workload: w, t: t, name: layer + ".tick", layer: layer, cur: -1}
}

func (w *spanWorkload) Next(tick int, finished []serving.Finished) []int {
	w.close()
	w.cur = w.t.begin(w.layer, w.name)
	return w.Workload.Next(tick, finished)
}

// close ends the open tick span, if any; the runner calls it after Run.
func (w *spanWorkload) close() {
	if w.cur >= 0 {
		w.t.end(w.cur)
		w.cur = -1
	}
}

// layerTime is one span name's aggregate: count, total and self time.
type layerTime struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it that its child spans cover (children of one span
// never overlap: the benchmark starts no goroutines of its own).
func selfTimes(spans []span) []layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	agg := map[string]*layerTime{}
	var names []string
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		lt, ok := agg[s.name]
		if !ok {
			lt = &layerTime{Name: s.name, Layer: s.layer}
			agg[s.name] = lt
			names = append(names, s.name)
		}
		lt.Count++
		lt.TotalS += float64(s.end-s.start) / 1e9
		lt.SelfS += float64(s.end-s.start-child[i]) / 1e9
	}
	out := make([]layerTime, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events on one thread, microsecond timestamps), loadable in Perfetto or
// chrome://tracing. Each event's args carry its index and parent index so
// self time can be recomputed from the file alone.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int{"id": i, "parent": s.parent},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	return nil
}
