// Package obs is the dependency-free metrics subsystem of the dynspread
// service tier: typed counters, gauges, and fixed-bucket histograms,
// registered by name (optionally with labels) in a Registry and exposed in
// Prometheus text format (see WriteTo). It exists because the paper's
// guarantees are amortized — messages-per-token and rounds bounds only show
// up over long executions — so operating a million-trial sweep requires
// live counters, not just terminal results.
//
// Hot-path cost is one atomic add: a Counter, Gauge, or Histogram handle is
// resolved once at registration (or once per label set via the Vec types)
// and updated lock-free afterwards. Registration panics on invalid or
// duplicate names — metric sets are static program structure, and a bad
// name is a bug, not an input error. Values that are cheaper to sample than
// to maintain (queue depth, jobs by state) register an OnScrape hook or a
// func-backed metric instead and are read at exposition time.
//
// The package deliberately has no dependencies (stdlib only) and no global
// default registry: every layer takes the *Registry it should report
// through, so a test can assert on a private registry and a daemon can
// merge service, cluster, and store metrics into one /v1/metrics page.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DurationBuckets are the default histogram buckets for durations in
// seconds, spanning sub-millisecond trials to multi-minute sweeps.
var DurationBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60}

// Counter is a monotonically increasing value. The zero value is unusable;
// obtain one from Registry.Counter or CounterVec.With.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n is ignored (counters are monotone by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds; an implicit +Inf bucket catches the rest. Observe is lock-free:
// one atomic add on the bucket plus a CAS loop on the float sum.
type Histogram struct {
	upper   []float64      // sorted, distinct upper bounds (no +Inf)
	counts  []atomic.Int64 // len(upper)+1; last is the +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the sum of observations
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, newBits) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// child is one labeled series of a family: exactly one of the metric
// pointers is set, matching the family's kind.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram families only

	// fn, when non-nil, makes this a func-backed single-series family
	// sampled at scrape time (no children).
	fn func() float64

	mu       sync.Mutex
	children map[string]*child // key: \xff-joined label values
}

// Registry holds metric families and writes them as Prometheus text. All
// methods are safe for concurrent use; registration methods panic on
// invalid or duplicate names (metric sets are static program structure).
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnScrape registers fn to run at the start of every WriteTo, before any
// family is written. Use it to refresh gauges that are cheaper to sample
// than to maintain (queue depth, jobs by state).
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabel(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validName(s)
}

// register creates a family, panicking on invalid or duplicate names.
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64, fn func() float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("obs: metric %q has invalid label name %q", name, l))
		}
	}
	if kind == kindHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("obs: histogram %q has no buckets", name))
		}
		for i := range buckets {
			if math.IsNaN(buckets[i]) || (i > 0 && buckets[i] <= buckets[i-1]) {
				panic(fmt.Sprintf("obs: histogram %q buckets must be sorted and distinct", name))
			}
		}
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  labels,
		buckets: buckets,
		fn:      fn,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.byName[name] = f
	return f
}

const labelSep = "\xff"

// get returns (creating if needed) the child for the given label values.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.children == nil {
		f.children = make(map[string]*child)
	}
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = &Histogram{
			upper:  f.buckets,
			counts: make([]atomic.Int64, len(f.buckets)+1),
		}
	}
	f.children[key] = c
	return c
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil, nil).get(nil).counter
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil, nil).get(nil).gauge
}

// Histogram registers and returns an unlabeled histogram over the given
// bucket upper bounds (sorted, distinct; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, buckets, nil).get(nil).hist
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time. fn must be monotone non-decreasing (it typically reads an existing
// atomic counter maintained elsewhere).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, nil, nil, fn)
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, nil, nil, fn)
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil, nil)}
}

// With returns the counter for the given label values, creating it on first
// use. Resolve once and keep the handle on hot paths.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).counter }

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil, nil)}
}

// With returns the gauge for the given label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).gauge }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, buckets, nil)}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).hist }
