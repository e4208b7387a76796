package obs

import (
	"fmt"
	"strconv"
)

// MetricType classifies a registered metric family for exposition.
type MetricType int

const (
	CounterType MetricType = iota
	GaugeType
	HistogramType
)

// String implements fmt.Stringer in Prometheus TYPE vocabulary.
func (t MetricType) String() string {
	switch t {
	case CounterType:
		return "counter"
	case GaugeType:
		return "gauge"
	case HistogramType:
		return "histogram"
	default:
		return fmt.Sprintf("metrictype(%d)", int(t))
	}
}

// family is one registered metric family: either a single unlabeled
// instance or a dense vector indexed by one label (the per-class pattern;
// label values are pre-rendered at registration so exposition does no
// per-scrape formatting of its own).
type family struct {
	name, help string
	typ        MetricType
	label      string   // "" for unlabeled
	labelVals  []string // pre-rendered; len 1 with empty label when unlabeled

	// Exactly one of these is populated, matching typ (float decides
	// between counters and fcounters).
	counters  []Counter
	fcounters []FloatCounter
	gauges    []Gauge
	hists     []*Histogram
	isFloat   bool
}

// Registry holds an ordered set of metric families. Registration happens
// at setup time (and may allocate or panic on programmer error: duplicate
// or malformed names); the returned handles are then used lock-free on
// the hot path. Exposition walks families in registration order, so the
// output is deterministic.
type Registry struct {
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register validates and stores a new family, panicking on duplicate or
// invalid names — both are programmer errors caught by the first scrape
// in any test, never data-dependent.
func (r *Registry) register(f *family) {
	if !validMetricName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	if f.label != "" && !validMetricName(f.label) {
		panic(fmt.Sprintf("obs: invalid label name %q on %q", f.label, f.name))
	}
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", f.name))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

// validMetricName enforces the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// indexLabels pre-renders the 0..n-1 label values.
func indexLabels(n int) []string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = strconv.Itoa(i)
	}
	return vals
}

// Counter registers and returns an unlabeled int counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := &family{name: name, help: help, typ: CounterType, counters: make([]Counter, 1), labelVals: []string{""}}
	r.register(f)
	return &f.counters[0]
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := &family{name: name, help: help, typ: GaugeType, gauges: make([]Gauge, 1), labelVals: []string{""}}
	r.register(f)
	return &f.gauges[0]
}

// CounterVec is a dense vector of counters indexed by one label.
type CounterVec struct{ f *family }

// At returns the counter for label value i.
func (v *CounterVec) At(i int) *Counter { return &v.f.counters[i] }

// CounterVec registers a counter vector with label values 0..n-1.
func (r *Registry) CounterVec(name, help, label string, n int) *CounterVec {
	f := &family{name: name, help: help, typ: CounterType, label: label,
		labelVals: indexLabels(n), counters: make([]Counter, n)}
	r.register(f)
	return &CounterVec{f}
}

// FloatCounterVec is a dense vector of float counters indexed by one label.
type FloatCounterVec struct{ f *family }

// At returns the counter for label value i.
func (v *FloatCounterVec) At(i int) *FloatCounter { return &v.f.fcounters[i] }

// FloatCounterVec registers a float counter vector with label values 0..n-1.
func (r *Registry) FloatCounterVec(name, help, label string, n int) *FloatCounterVec {
	f := &family{name: name, help: help, typ: CounterType, isFloat: true, label: label,
		labelVals: indexLabels(n), fcounters: make([]FloatCounter, n)}
	r.register(f)
	return &FloatCounterVec{f}
}

// GaugeVec is a dense vector of gauges indexed by one label.
type GaugeVec struct{ f *family }

// At returns the gauge for label value i.
func (v *GaugeVec) At(i int) *Gauge { return &v.f.gauges[i] }

// GaugeVec registers a gauge vector with label values 0..n-1.
func (r *Registry) GaugeVec(name, help, label string, n int) *GaugeVec {
	f := &family{name: name, help: help, typ: GaugeType, label: label,
		labelVals: indexLabels(n), gauges: make([]Gauge, n)}
	r.register(f)
	return &GaugeVec{f}
}

// HistogramVec is a dense vector of histograms indexed by one label, all
// sharing one bucket layout.
type HistogramVec struct{ f *family }

// At returns the histogram for label value i.
func (v *HistogramVec) At(i int) *Histogram { return v.f.hists[i] }

// HistogramVec registers a histogram vector with label values 0..n-1 and
// buckets power-of-two buckets starting at 2^firstExp.
func (r *Registry) HistogramVec(name, help, label string, n, firstExp, buckets int) *HistogramVec {
	f := &family{name: name, help: help, typ: HistogramType, label: label,
		labelVals: indexLabels(n), hists: make([]*Histogram, n)}
	for i := range f.hists {
		h, err := NewHistogram(firstExp, buckets)
		if err != nil {
			panic(err.Error())
		}
		f.hists[i] = h
	}
	r.register(f)
	return &HistogramVec{f}
}

// Histogram registers and returns an unlabeled histogram.
func (r *Registry) Histogram(name, help string, firstExp, buckets int) *Histogram {
	h, err := NewHistogram(firstExp, buckets)
	if err != nil {
		panic(err.Error())
	}
	f := &family{name: name, help: help, typ: HistogramType,
		labelVals: []string{""}, hists: []*Histogram{h}}
	r.register(f)
	return h
}

// MetricNames returns every registered family name in registration order
// (the documentation-coverage check walks this).
func (r *Registry) MetricNames() []string {
	names := make([]string, len(r.families))
	for i, f := range r.families {
		names[i] = f.name
	}
	return names
}
