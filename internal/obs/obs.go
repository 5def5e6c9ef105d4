// Package obs is the pipeline observability layer: a lightweight,
// allocation-conscious metrics registry (counters, gauges, and duration
// histograms with p50/p95/max), stage-scoped spans that accumulate into a
// JSON-serializable Telemetry, progress events for streaming training
// state, and expvar export for live inspection alongside net/http/pprof.
//
// Every entry point is safe for concurrent use and nil-tolerant: a nil
// *Registry (the disabled state) turns every instrument into a no-op that
// performs zero allocations, so instrumentation can stay inline on hot
// paths — including the SVM SMO inner loop — at no cost when telemetry is
// off.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable integer metric. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. No-op on a nil gauge.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n. No-op on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histRing bounds the per-histogram sample memory: quantiles are computed
// over the most recent histRing observations (a sliding window), while
// count, sum, and max are exact over the histogram's lifetime.
const histRing = 1024

// Histogram records float64 observations and reports count, sum, max, and
// approximate p50/p95 over a sliding window of recent samples. Durations
// are recorded in seconds under a name ending in "seconds" (the CLI's
// -stats printer formats exactly those as durations); any other name
// holds plain values such as sizes, byte counts, or scores. A nil
// *Histogram is a no-op.
type Histogram struct {
	mu    sync.Mutex
	count int64
	sum   float64
	max   float64
	ring  [histRing]float64
	next  int // next ring slot to overwrite
}

// Observe records one sample. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.ring[h.next] = v
	h.next = (h.next + 1) % histRing
	h.mu.Unlock()
}

// ObserveDuration records a duration sample in seconds. No-op on nil.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramStats is a point-in-time summary of a histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
}

// Stats summarizes the histogram. Zero stats for nil.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	st := HistogramStats{Count: h.count, Sum: h.sum, Max: h.max}
	n := int(h.count)
	if n > histRing {
		n = histRing
	}
	window := make([]float64, n)
	copy(window, h.ring[:n])
	h.mu.Unlock()
	if n == 0 {
		return st
	}
	sort.Float64s(window)
	st.P50 = quantile(window, 0.50)
	st.P95 = quantile(window, 0.95)
	return st
}

// quantile reads the q-quantile from a sorted sample via the
// nearest-rank method.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Registry names and owns a set of instruments. The zero Registry is not
// usable; construct with NewRegistry. A nil *Registry is the disabled
// state: every lookup returns a nil instrument whose methods no-op without
// allocating.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument, ordered maps keyed
// by instrument name. It marshals deterministically (encoding/json sorts
// map keys).
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot captures the current state of the registry. Empty on nil.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramStats, len(hists))
		for k, v := range hists {
			s.Histograms[k] = v.Stats()
		}
	}
	return s
}

// CounterValues returns a copy of every counter's current value (nil map
// on a nil or counter-free registry). Handy for folding registry counts
// into a Telemetry.
func (r *Registry) CounterValues() map[string]int64 {
	return r.Snapshot().Counters
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
