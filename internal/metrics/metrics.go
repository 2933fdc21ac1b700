// Package metrics is a minimal, dependency-free metrics registry for the
// serving layer: counters, gauges, and histograms that render in the
// Prometheus text exposition format (version 0.0.4). It exists so that
// placemond can expose a /metrics endpoint without pulling a client
// library into a stdlib-only reproduction.
//
// All types are safe for concurrent use. Metric identity is the metric
// name plus the (sorted) label pairs supplied at registration; registering
// the same identity twice returns the same instrument, so packages can
// look metrics up idempotently instead of threading instrument pointers
// around.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of named instruments and renders them as
// Prometheus text. The zero value is not usable; create with NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*family // by metric name
}

// family groups every labeled child of one metric name (one HELP/TYPE
// header, many series).
type family struct {
	name     string
	help     string
	kind     string                // "counter", "gauge", "histogram"
	children map[string]instrument // by rendered label string
}

type instrument interface {
	// write renders the series for this child; labels is the rendered
	// `{k="v",...}` string (empty when unlabeled).
	write(w io.Writer, name, labels string)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*family)}
}

// DefaultBuckets are the histogram buckets used when none are given:
// latency-shaped, from 100µs to ~100s in roughly ×2.5 steps (seconds).
var DefaultBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(c.Value()))
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by v (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(g.Value()))
}

// Histogram accumulates observations into cumulative buckets plus a sum
// and a count, the Prometheus histogram model.
type Histogram struct {
	mu         sync.Mutex
	upperBound []float64 // sorted, exclusive of +Inf
	counts     []uint64  // per finite bucket (non-cumulative)
	count      uint64
	sum        float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	// First bucket whose upper bound admits v.
	i := sort.SearchFloat64s(h.upperBound, v)
	if i < len(h.counts) {
		h.counts[i]++
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations so far.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	h.mu.Lock()
	bounds := h.upperBound
	counts := append([]uint64(nil), h.counts...)
	count, sum := h.count, h.sum
	h.mu.Unlock()

	cum := uint64(0)
	for i, ub := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, formatValue(ub)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
}

// bucketLabels splices le="bound" into an existing rendered label string.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return strings.TrimSuffix(labels, "}") + fmt.Sprintf(",le=%q}", le)
}

// Counter returns (registering on first use) the counter with the given
// name and label pairs. labels alternate key, value; it panics on an odd
// count, an invalid name, or a name already registered as another kind —
// all programmer errors.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	inst := r.lookup(name, help, "counter", labels, func() instrument { return &Counter{} })
	return inst.(*Counter)
}

// Gauge returns (registering on first use) the gauge with the given name
// and label pairs. Panics as Counter does.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	inst := r.lookup(name, help, "gauge", labels, func() instrument { return &Gauge{} })
	return inst.(*Gauge)
}

// Histogram returns (registering on first use) the histogram with the
// given name, buckets, and label pairs. A nil or empty bucket slice means
// DefaultBuckets. Buckets must be finite (no NaN or ±Inf — the +Inf
// overflow bucket is implicit) and strictly increasing; a bad slice
// panics at registration with the offending bucket named, instead of
// silently misbinning every later observation. Panics as Counter does,
// and additionally if the same series is re-requested with different
// buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if len(buckets) == 0 {
		buckets = DefaultBuckets
	}
	for i, b := range buckets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: %s: bucket %d is %v; buckets must be finite (+Inf is implicit)", name, i, b))
		}
		if i > 0 && b <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s: buckets not strictly increasing (bucket %d: %v ≤ %v)", name, i, b, buckets[i-1]))
		}
	}
	inst := r.lookup(name, help, "histogram", labels, func() instrument {
		return &Histogram{
			upperBound: append([]float64(nil), buckets...),
			counts:     make([]uint64, len(buckets)),
		}
	})
	h := inst.(*Histogram)
	if len(h.upperBound) != len(buckets) {
		panic(fmt.Sprintf("metrics: %s: conflicting bucket layouts", name))
	}
	for i := range buckets {
		if h.upperBound[i] != buckets[i] {
			panic(fmt.Sprintf("metrics: %s: conflicting bucket layouts", name))
		}
	}
	return h
}

func (r *Registry) lookup(name, help, kind string, labels []string, make func() instrument) instrument {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	key := renderLabels(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.metrics[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, children: map[string]instrument{}}
		r.metrics[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("metrics: %s already registered as a %s", name, fam.kind))
	}
	inst, ok := fam.children[key]
	if !ok {
		inst = make()
		fam.children[key] = inst
	}
	return inst
}

// WriteText renders every registered metric in the Prometheus text
// exposition format, families sorted by name and series sorted by label
// string, so output is deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.metrics[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, fam := range fams {
		if fam.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.kind)
		keys := make([]string, 0, len(fam.children))
		for k := range fam.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fam.children[k].write(&b, fam.name, k)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// renderLabels turns alternating key/value pairs into a canonical
// `{k="v",...}` string (keys sorted), or "" when there are none.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validLabelName(labels[i]) {
			panic(fmt.Sprintf("metrics: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
	}
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	return validName(s) && !strings.Contains(s, ":")
}
