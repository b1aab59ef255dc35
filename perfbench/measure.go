package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// samples is a list of timings (or other per-op values) in one unit.
type samples []float64

// quantile returns the q-quantile by linear interpolation between order
// statistics; NaN for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := slices.Clone(s)
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// tailOK reports whether at least ten samples lie beyond quantile q — the
// rule a reported tail percentile must satisfy.
func (s samples) tailOK(q float64) bool {
	return float64(len(s))*(1-q) >= 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call recorded by the traced run: a facade call, a
// per-rank call inside an SPMD world, or a probe. Rank is -1 for calls made
// by the benchmark driver itself.
type span struct {
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	Parent int // index of the enclosing span, -1 for a root
	Op     int // op id the span belongs to
	Rank   int
	N      int64 // work count the span covered (keys, leaves, iterations), 0 if none
}

func (s span) ms() float64 { return ms(s.End - s.Start) }

// tracer keeps spans in memory; it is written once when the run ends. A nil
// tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op, rank int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, Rank: rank})
	return len(t.spans) - 1
}

// end closes span id, recording the work count n it covered.
func (t *tracer) end(id int, n int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].N = n
}

// add records a span whose times were taken by the caller.
func (t *tracer) add(name string, start, end time.Time, parent, op, rank int, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin), Parent: parent, Op: op, Rank: rank, N: n})
}

// named returns the closed spans called name, grouped by op id in op order.
func (t *tracer) named(name string) [][]span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int][]span{}
	var ops []int
	for _, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		if _, ok := byOp[s.Op]; !ok {
			ops = append(ops, s.Op)
		}
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	slices.Sort(ops)
	out := make([][]span, len(ops))
	for i, op := range ops {
		out[i] = byOp[op]
	}
	return out
}

// perOp applies f to each op's spans called name and returns the values.
func (t *tracer) perOp(name string, f func([]span) float64) samples {
	var out samples
	for _, group := range t.named(name) {
		out = append(out, f(group))
	}
	return out
}

// slowest is the largest span duration of a group, in ms.
func slowest(g []span) float64 {
	var m float64
	for _, s := range g {
		m = math.Max(m, s.ms())
	}
	return m
}

// spread is the slowest minus the fastest span duration of a group, in ms:
// how long the fastest rank waited for the slowest one.
func spread(g []span) float64 {
	lo := math.Inf(1)
	for _, s := range g {
		lo = math.Min(lo, s.ms())
	}
	return slowest(g) - lo
}

// nsPerItem is the group's total duration over its total work count, in ns.
func nsPerItem(g []span) float64 {
	var d time.Duration
	var n int64
	for _, s := range g {
		d += s.End - s.Start
		n += s.N
	}
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// writeChrome writes the spans as Chrome trace-event JSON (viewable in
// chrome://tracing or Perfetto): one complete ("X") event per span, thread 0
// for the driver and thread r+1 for SPMD rank r.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Rank + 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "rank": s.Rank, "n": s.N},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// heapProbe reads the runtime's heap counters: the live heap as of the last
// GC, sampled at op boundaries, and cumulative bytes allocated.
type heapProbe struct {
	mu      sync.Mutex
	s       []metrics.Sample
	live    samples // MiB at each op boundary
	allocAt uint64
}

func newHeapProbe() *heapProbe {
	return &heapProbe{s: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// start clears the samples and marks the allocation counter; call it when
// the measured window opens.
func (h *heapProbe) start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.s)
	h.live = h.live[:0]
	h.allocAt = h.s[1].Value.Uint64()
}

// sample records the live heap at an op boundary.
func (h *heapProbe) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.s)
	h.live = append(h.live, float64(h.s[0].Value.Uint64())/(1<<20))
}

// allocated returns the bytes allocated since start.
func (h *heapProbe) allocated() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.s)
	return h.s[1].Value.Uint64() - h.allocAt
}

// peakMiB is the 95th percentile of the op-boundary samples: the peak live
// heap, robust to the one GC that happens to land on a transient high.
func (h *heapProbe) peakMiB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live.quantile(0.95)
}
