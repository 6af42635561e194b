// Package telemetry is the repo's zero-dependency observability layer:
// a metrics registry rendered in Prometheus text exposition format, span
// tracing exportable as Chrome trace-event JSON, and structured-logging
// helpers that thread job/cell/lease correlation IDs through contexts —
// across the lease wire, so one grep reconstructs a cell's life whether
// it ran in-process or on a remote fiworker.
//
// The layer is provably inert: metrics are plain atomic counters that
// never touch result data, tracing and logging are off unless installed,
// and the differential suite (experiment's TestFigureJSONTelemetryEquivalence,
// finject's record-stream equivalence test) asserts that figure JSON and
// per-injection record streams are byte-identical with every observer
// running versus none.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a set of named metric families rendered together in
// Prometheus text exposition format. Registration is idempotent: asking
// for an existing name returns the existing metric, so package-level
// instrumentation and tests can share one default registry safely.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one registered metric family.
type family struct {
	name, help, typ string
	metric          sampler
}

// sampler renders a family's samples (everything below # HELP / # TYPE).
type sampler interface {
	samples(name string, w io.Writer)
}

// Default is the process-wide registry behind the standard metric
// catalog (catalog.go), GET /metrics and the fiworker sidecar listener.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the existing family for name (verifying its type) or
// creates it with the given constructor. Reusing a name with a different
// type or metric kind panics: that is a programming error, caught at
// init time because the catalog registers everything up front.
func (r *Registry) register(name, help, typ string, mk func() sampler) sampler {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, f.typ))
		}
		return f.metric
	}
	m := mk()
	r.families[name] = &family{name: name, help: help, typ: typ, metric: m}
	return m
}

// Counter returns the registered monotonically increasing counter,
// creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, "counter", func() sampler { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q is not a plain counter", name))
	}
	return c
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, "gauge", func() sampler { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q is not a plain gauge", name))
	}
	return g
}

// Histogram returns the registered fixed-bucket histogram, creating it
// on first use with the given upper bounds (ascending, +Inf implied).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	m := r.register(name, help, "histogram", func() sampler { return newHistogram(buckets) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q is not a plain histogram", name))
	}
	return h
}

// CounterVec returns the registered counter family keyed by one label,
// creating it on first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	m := r.register(name, help, "counter", func() sampler {
		return &CounterVec{label: label, m: make(map[string]*Counter)}
	})
	v, ok := m.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q is not a counter vec", name))
	}
	return v
}

// GaugeVec returns the registered gauge family keyed by one label,
// creating it on first use.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	m := r.register(name, help, "gauge", func() sampler {
		return &GaugeVec{label: label, m: make(map[string]*Gauge)}
	})
	v, ok := m.(*GaugeVec)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q is not a gauge vec", name))
	}
	return v
}

// HistogramVec returns the registered histogram family keyed by one
// label, creating it on first use.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	m := r.register(name, help, "histogram", func() sampler {
		return &HistogramVec{label: label, buckets: buckets, m: make(map[string]*Histogram)}
	})
	v, ok := m.(*HistogramVec)
	if !ok {
		panic(fmt.Sprintf("telemetry: metric %q is not a histogram vec", name))
	}
	return v
}

// WritePrometheus renders every family in text exposition format,
// sorted by name so equal registries render byte-identically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.metric.samples(f.name, bw)
	}
	return bw.Flush()
}

// Handler serves the Default registry as a Prometheus scrape target.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Default.WritePrometheus(w)
	})
}

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; all methods are safe for concurrent use and cost one
// atomic add — cheap enough for per-injection hot paths.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) samples(name string, w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", name, c.v.Load())
}

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) samples(name string, w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", name, g.v.Load())
}

// Histogram is a fixed-bucket distribution metric. Buckets are upper
// bounds in ascending order; the +Inf bucket is implicit. Observations
// are two atomic adds plus one CAS loop for the sum.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, the last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
}

// DefBuckets are the default latency buckets in seconds, spanning
// sub-millisecond handlers to multi-second streamed figure runs.
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 5, 30}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, or the +Inf slot
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) samples(name string, w io.Writer) {
	h.labeledSamples(name, "", w)
}

// labeledSamples renders the histogram's sample lines, with extra (an
// already-rendered `label="value"` pair) merged into every line.
func (h *Histogram) labeledSamples(name, extra string, w io.Writer) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, extra, formatBound(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, extra, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, wrapLabels(extra), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, wrapLabels(extra), h.count.Load())
}

// wrapLabels turns a trailing-comma label fragment into a braced label
// set, or nothing when the fragment is empty.
func wrapLabels(extra string) string {
	if extra == "" {
		return ""
	}
	return "{" + strings.TrimSuffix(extra, ",") + "}"
}

func formatBound(b float64) string { return formatFloat(b) }

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*Counter
}

// With returns the child counter for the label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.m[value]; !ok {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

func (v *CounterVec) samples(name string, w io.Writer) {
	v.mu.RLock()
	values := make([]string, 0, len(v.m))
	for val := range v.m {
		values = append(values, val)
	}
	sort.Strings(values)
	for _, val := range values {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, v.label, escapeLabel(val), v.m[val].Value())
	}
	v.mu.RUnlock()
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*Gauge
}

// With returns the child gauge for the label value, creating it on
// first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.RLock()
	g, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok = v.m[value]; !ok {
		g = &Gauge{}
		v.m[value] = g
	}
	return g
}

func (v *GaugeVec) samples(name string, w io.Writer) {
	v.mu.RLock()
	values := make([]string, 0, len(v.m))
	for val := range v.m {
		values = append(values, val)
	}
	sort.Strings(values)
	for _, val := range values {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, v.label, escapeLabel(val), v.m[val].Value())
	}
	v.mu.RUnlock()
}

// HistogramVec is a histogram family keyed by one label; children share
// the vec's bucket bounds.
type HistogramVec struct {
	label   string
	buckets []float64
	mu      sync.RWMutex
	m       map[string]*Histogram
}

// With returns the child histogram for the label value, creating it on
// first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.m[value]; !ok {
		h = newHistogram(v.buckets)
		v.m[value] = h
	}
	return h
}

func (v *HistogramVec) samples(name string, w io.Writer) {
	v.mu.RLock()
	values := make([]string, 0, len(v.m))
	for val := range v.m {
		values = append(values, val)
	}
	sort.Strings(values)
	for _, val := range values {
		extra := fmt.Sprintf("%s=%q,", v.label, escapeLabel(val))
		v.m[val].labeledSamples(name, extra, w)
	}
	v.mu.RUnlock()
}

// escapeLabel escapes a label value per the exposition format; %q in the
// callers then adds the quotes and escapes quotes and backslashes.
func escapeLabel(s string) string {
	return strings.ReplaceAll(s, "\n", `\n`)
}
