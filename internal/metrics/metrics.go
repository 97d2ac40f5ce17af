// Package metrics is the repo's zero-dependency observability substrate: a
// process-local Registry of named counters, gauges, and fixed-bucket
// histograms with Prometheus text exposition (WritePrometheus) and a JSON /
// CSV snapshot surface. Every instrument is lock-free on the hot path —
// counters and gauges are single atomic words, a histogram observation is
// one bucket scan plus three atomic adds — so serving and training loops
// can stay instrumented without measurable overhead (the CI benchmark gate
// holds the instrumented fast path within 1.1x of the bare one).
//
// Metric names follow the contract pinned in DESIGN.md:
// gddr_<subsystem>_<name>_<unit>, validated at registration. Registration
// is idempotent: asking for an instrument that already exists (same name,
// same labels) returns the existing one, so independent subsystems can
// share one registry without coordinating construction order.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Instrument types as they appear in the Prometheus TYPE line and the JSON
// snapshot.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Label is one constant name=value pair attached to an instrument at
// registration. Values are escaped on exposition; names must be valid
// Prometheus label names.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored to keep the counter monotone.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge value (compare-and-swap loop; gauges are not
// expected on hot paths).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: cumulative-on-exposition bucket
// counts over the configured upper bounds, plus a running sum; the count is
// the buckets' total. Observe is safe for concurrent use and
// allocation-free.
type Histogram struct {
	bounds  []float64      // sorted upper bounds, +Inf excluded
	buckets []atomic.Int64 // one per bound, then +Inf
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (tens); a linear scan beats binary search at this size
	// and keeps the fast path branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid exponential buckets (start=%g factor=%g n=%d)", start, factor, n))
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LinearBuckets returns n linearly spaced bucket bounds starting at start.
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid linear buckets (width=%g n=%d)", width, n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// LatencyBuckets spans 1µs to ~8.4s in powers of two: wide enough to hold
// both the ~4µs cached serving fast path and an LP solve, narrow enough to
// separate them.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 24) }

// metricKey identifies one instrument within a family: the canonical
// (sorted, rendered) label string.
type metricKey string

// instrument is one registered time series.
type instrument struct {
	labels []Label
	key    metricKey

	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	histogram *Histogram
}

// family is all instruments sharing one metric name (and therefore one
// HELP/TYPE pair and one instrument type).
type family struct {
	name string
	help string
	typ  string

	mu    sync.Mutex
	order []*instrument             // guarded by mu
	byKey map[metricKey]*instrument // guarded by mu
}

// Registry holds named metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family // guarded by mu
	order    []string           // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName matches the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// renderLabels returns the canonical `{a="b",c="d"}` form (sorted by label
// name; empty string for no labels), used both as the instrument key and in
// the exposition.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// getFamily returns (creating if needed) the family for name, enforcing a
// consistent type and the naming contract.
func (r *Registry) getFamily(name, help, typ string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[metricKey]*instrument)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s already registered as %s, asked for %s", name, f.typ, typ))
	}
	return f
}

// get returns (creating if needed) the instrument for the label set within
// the family. build constructs a fresh instrument when none exists.
func (f *family) get(labels []Label, build func() *instrument) *instrument {
	for _, l := range labels {
		if !validName(l.Name) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l.Name, f.name))
		}
	}
	key := metricKey(renderLabels(labels))
	f.mu.Lock()
	defer f.mu.Unlock()
	if in, ok := f.byKey[key]; ok {
		return in
	}
	in := build()
	in.labels = append([]Label(nil), labels...)
	in.key = key
	f.byKey[key] = in
	f.order = append(f.order, in)
	return in
}

// Counter returns the counter for (name, labels), registering it on first
// use. help is recorded on first registration of the name.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.getFamily(name, help, TypeCounter)
	return f.get(labels, func() *instrument { return &instrument{counter: &Counter{}} }).counter
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.getFamily(name, help, TypeGauge)
	return f.get(labels, func() *instrument { return &instrument{gauge: &Gauge{}} }).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — for values another subsystem already owns (uptime, topology
// version, cache sizes). Re-registering the same (name, labels) replaces
// the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, TypeGauge)
	in := f.get(labels, func() *instrument { return &instrument{} })
	f.mu.Lock()
	in.gaugeFn = fn
	f.mu.Unlock()
}

// Histogram returns the histogram for (name, labels), registering it with
// the bucket upper bounds on first use (later calls reuse the existing
// buckets; bounds must be strictly increasing).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	f := r.getFamily(name, help, TypeHistogram)
	return f.get(labels, func() *instrument {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: %s bucket bounds not increasing at %d", name, i))
			}
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Int64, len(h.bounds)+1)
		return &instrument{histogram: h}
	}).histogram
}

// formatValue renders a sample value the way Prometheus clients do.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (families in registration order, instruments in
// registration order within a family).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		ins := append([]*instrument(nil), f.order...)
		f.mu.Unlock()
		if len(ins) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, in := range ins {
			if err := writeInstrument(w, f, in); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeInstrument(w io.Writer, f *family, in *instrument) error {
	switch {
	case in.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, in.key, in.counter.Value())
		return err
	case in.histogram != nil:
		h := in.histogram
		var cum int64
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			le := renderLabels(in.labels, L("le", formatValue(bound)))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum); err != nil {
				return err
			}
		}
		le := renderLabels(in.labels, L("le", "+Inf"))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, h.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, in.key, formatValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, in.key, h.Count())
		return err
	default:
		v := 0.0
		if in.gaugeFn != nil {
			v = in.gaugeFn()
		} else if in.gauge != nil {
			v = in.gauge.Value()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, in.key, formatValue(v))
		return err
	}
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// Point is one metric sample in a snapshot: a counter or gauge value, or a
// histogram's sum/count/buckets.
type Point struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"`
	Labels  []Label  `json:"labels,omitempty"`
	Value   float64  `json:"value"`
	Sum     float64  `json:"sum,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns a point-in-time copy of every registered metric, in
// exposition order. For histograms Value holds the observation count and
// Sum/Count/Buckets the full distribution.
func (r *Registry) Snapshot() []Point {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	var points []Point
	for _, f := range fams {
		f.mu.Lock()
		ins := append([]*instrument(nil), f.order...)
		f.mu.Unlock()
		for _, in := range ins {
			p := Point{Name: f.name, Type: f.typ, Labels: append([]Label(nil), in.labels...)}
			switch {
			case in.counter != nil:
				p.Value = float64(in.counter.Value())
			case in.histogram != nil:
				h := in.histogram
				p.Count = h.Count()
				p.Sum = h.Sum()
				p.Value = float64(p.Count)
				var cum int64
				for i, bound := range h.bounds {
					cum += h.buckets[i].Load()
					p.Buckets = append(p.Buckets, Bucket{UpperBound: bound, Count: cum})
				}
				p.Buckets = append(p.Buckets, Bucket{UpperBound: math.Inf(1), Count: p.Count})
			case in.gaugeFn != nil:
				p.Value = in.gaugeFn()
			case in.gauge != nil:
				p.Value = in.gauge.Value()
			}
			points = append(points, p)
		}
	}
	return points
}

// WriteJSON writes the snapshot as an indented JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Buckets carry +Inf bounds, which encoding/json rejects; strip them —
	// the count column already is the +Inf bucket.
	points := r.Snapshot()
	for i := range points {
		if n := len(points[i].Buckets); n > 0 && math.IsInf(points[i].Buckets[n-1].UpperBound, 1) {
			points[i].Buckets = points[i].Buckets[:n-1]
		}
	}
	return enc.Encode(points)
}

// WriteCSV writes the snapshot as name,labels,value,sum,count rows with a
// header — the flat form training scripts ingest.
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "name,labels,value,sum,count"); err != nil {
		return err
	}
	for _, p := range r.Snapshot() {
		labels := strings.Trim(renderLabels(p.Labels), "{}")
		if _, err := fmt.Fprintf(w, "%s,%q,%s,%s,%d\n",
			p.Name, labels, formatValue(p.Value), formatValue(p.Sum), p.Count); err != nil {
			return err
		}
	}
	return nil
}
