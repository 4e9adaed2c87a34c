// Package obs is the unified observability layer: an
// allocation-conscious metrics registry with Prometheus text exposition
// (served at GET /metrics by bumpd and bumpctl), and a per-job span
// recorder exporting Chrome trace-event JSON (served at
// GET /v1/jobs/{id}/trace).
//
// The registry holds two kinds of source. Histograms are registered
// once and observed on hot paths, which touch only atomics:
// Histogram.Observe never allocates and never takes the registry lock.
// Counters and gauges are not stored here: stats that already live
// elsewhere (PoolStats, WarmStats, WireStats, wal.Stats, ...) are
// adapted as Collectors — scrape-time callbacks that emit samples
// without duplicating state on the job path. The lock guards
// registration and scrape-time family assembly only.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's Prometheus type.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Histogram is a fixed-bucket cumulative histogram. Bounds are upper
// bucket edges (ascending); an implicit +Inf bucket catches the rest.
// Observe is lock-free: one binary search plus three atomic updates.
type Histogram struct {
	labels string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = +Inf overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= le
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DurationBuckets is the default phase-latency bucket layout, in
// seconds: 1ms to ~2min, roughly ×3 per step.
var DurationBuckets = []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 120}

// family groups every histogram sharing one name (any number of
// distinct label sets) under a single HELP/TYPE header.
type family struct {
	name  string
	help  string
	hists []*Histogram
}

// Registry holds metric families and scrape-time collectors.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []Collector
	conflicts  atomic.Uint64 // collector samples dropped over kind conflicts
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels turns alternating key/value pairs into a canonical
// `{k="v",...}` string (empty for no labels). Panics on an odd count:
// label sets are compile-time shapes, not data.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Histogram registers (or returns the existing) histogram with the
// given upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds must be strictly ascending", name))
		}
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help}
		r.families[name] = f
	}
	for _, h := range f.hists {
		if h.labels == ls {
			return h
		}
	}
	h := &Histogram{labels: ls, bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	f.hists = append(f.hists, h)
	return h
}

// Collector emits point-in-time samples at scrape time — the adapter
// hook for stats that already live elsewhere (PoolStats, wal.Stats,
// WireStats, ...). Collectors run under the registry lock and must not
// call back into the registry.
type Collector func(g *Gather)

// Collect registers a scrape-time collector.
func (r *Registry) Collect(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Conflicts returns how many collector samples were dropped because
// their name was already taken by a histogram or by an earlier sample
// of a different kind.
func (r *Registry) Conflicts() uint64 { return r.conflicts.Load() }

// sample is one collector-emitted value.
type sample struct {
	labels string
	value  float64
}

// gfamily is a scrape-time family of collector samples.
type gfamily struct {
	name    string
	help    string
	kind    Kind
	samples []sample
	seen    map[string]int // labels -> index, duplicates overwrite
}

// Gather accumulates collector samples during one scrape.
type Gather struct {
	reg  *Registry
	fams map[string]*gfamily
}

func (g *Gather) emit(name, help string, k Kind, v float64, labels []string) {
	// A collector may not reuse a registered histogram's name, nor an
	// earlier collector's under another kind: drop and count, never
	// corrupt the exposition.
	if _, ok := g.reg.families[name]; ok {
		g.reg.conflicts.Add(1)
		return
	}
	gf, ok := g.fams[name]
	if !ok {
		gf = &gfamily{name: name, help: help, kind: k, seen: make(map[string]int)}
		g.fams[name] = gf
	} else if gf.kind != k {
		g.reg.conflicts.Add(1)
		return
	}
	ls := renderLabels(labels)
	if i, dup := gf.seen[ls]; dup {
		gf.samples[i].value = v
		return
	}
	gf.seen[ls] = len(gf.samples)
	gf.samples = append(gf.samples, sample{labels: ls, value: v})
}

// Counter emits one counter sample.
func (g *Gather) Counter(name, help string, v float64, labels ...string) {
	g.emit(name, help, KindCounter, v, labels)
}

// Gauge emits one gauge sample.
func (g *Gather) Gauge(name, help string, v float64, labels ...string) {
	g.emit(name, help, KindGauge, v, labels)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the full registry — histograms plus collector
// samples — in the Prometheus text exposition format, families sorted
// by name for a deterministic scrape.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	gath := &Gather{reg: r, fams: make(map[string]*gfamily)}
	for _, c := range r.collectors {
		c(gath)
	}
	// emit keeps collector names apart from histogram names.
	names := make([]string, 0, len(r.families)+len(gath.fams))
	for n := range r.families {
		names = append(names, n)
	}
	for n := range gath.fams {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		if f, ok := r.families[n]; ok {
			writeHeader(&b, f.name, f.help, KindHistogram)
			for _, h := range f.hists {
				writeHistogram(&b, f.name, h)
			}
			continue
		}
		writeSamples(&b, gath.fams[n])
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, name, help string, k Kind) {
	if help != "" {
		b.WriteString("# HELP ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(help)
		b.WriteByte('\n')
	}
	b.WriteString("# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(k.String())
	b.WriteByte('\n')
}

// writeHistogram renders the cumulative _bucket series plus _sum and
// _count. The le label is appended to the histogram's own labels.
func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	withLE := func(le string) string {
		if h.labels == "" {
			return `{le="` + le + `"}`
		}
		return h.labels[:len(h.labels)-1] + `,le="` + le + `"}`
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b.WriteString(name)
		b.WriteString("_bucket")
		b.WriteString(withLE(formatFloat(bound)))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	b.WriteString(name)
	b.WriteString("_bucket")
	b.WriteString(withLE("+Inf"))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')

	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(h.labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(h.labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(h.Count(), 10))
	b.WriteByte('\n')
}

// writeSamples renders a collector family.
func writeSamples(b *strings.Builder, gf *gfamily) {
	writeHeader(b, gf.name, gf.help, gf.kind)
	for _, s := range gf.samples {
		b.WriteString(gf.name)
		b.WriteString(s.labels)
		b.WriteByte(' ')
		b.WriteString(formatFloat(s.value))
		b.WriteByte('\n')
	}
}
