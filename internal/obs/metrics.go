package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named counters, gauges and histograms. Handles are cheap
// to resolve and safe for concurrent use; resolve them once at component
// construction time, not on hot paths. The nil *Registry hands out nil
// handles, whose methods all no-op.
//
// The registry keeps a copy-on-write sorted index of its handles: every
// registration (rare — component construction time) rebuilds it under the
// mutex, and Snapshot/WriteText read it through an atomic pointer without
// taking any registry-wide lock, so a live /metrics scrape never contends
// with hot-path handle resolution or observation.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	idx      atomic.Pointer[regIndex]
}

// regIndex is the immutable, name-sorted view snapshots read lock-free.
type regIndex struct {
	counters []namedCounter
	gauges   []namedGauge
	hists    []namedHist
}

type namedCounter struct {
	name string
	c    *Counter
}

type namedGauge struct {
	name string
	g    *Gauge
}

type namedHist struct {
	name string
	h    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// reindex rebuilds the sorted copy-on-write index. Callers hold r.mu.
func (r *Registry) reindex() {
	ix := &regIndex{
		counters: make([]namedCounter, 0, len(r.counters)),
		gauges:   make([]namedGauge, 0, len(r.gauges)),
		hists:    make([]namedHist, 0, len(r.hists)),
	}
	for name, c := range r.counters {
		ix.counters = append(ix.counters, namedCounter{name, c})
	}
	for name, g := range r.gauges {
		ix.gauges = append(ix.gauges, namedGauge{name, g})
	}
	for name, h := range r.hists {
		ix.hists = append(ix.hists, namedHist{name, h})
	}
	sort.Slice(ix.counters, func(a, b int) bool { return ix.counters[a].name < ix.counters[b].name })
	sort.Slice(ix.gauges, func(a, b int) bool { return ix.gauges[a].name < ix.gauges[b].name })
	sort.Slice(ix.hists, func(a, b int) bool { return ix.hists[a].name < ix.hists[b].name })
	r.idx.Store(ix)
}

// Counter is a monotonically increasing integer metric. The nil *Counter
// no-ops, costing one pointer check.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float metric.
type Gauge struct {
	bits atomic.Uint64
	set  atomic.Bool
}

// Set records the value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Add shifts the value by d (an unset gauge counts as 0). Nil-safe. The
// CAS loop makes concurrent Adds lose no updates; mixing Add with Set is
// last-writer-wins on the Set.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			g.set.Store(true)
			return
		}
	}
}

// Value returns the last value and whether one was ever set.
func (g *Gauge) Value() (float64, bool) {
	if g == nil || !g.set.Load() {
		return 0, false
	}
	return math.Float64frombits(g.bits.Load()), true
}

// Histogram counts observations into caller-defined cumulative buckets
// (counts[i] covers values <= Bounds[i]; one implicit overflow bucket).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last = overflow
	n      int64
	sum    float64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.n++
	h.sum += v
	h.mu.Unlock()
}

// Snapshot returns the observation count, value sum and per-bucket counts.
func (h *Histogram) Snapshot() (n int64, sum float64, counts []int64) {
	if h == nil {
		return 0, 0, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n, h.sum, append([]int64(nil), h.counts...)
}

// Counter returns (creating if needed) the named counter. Nil-safe: a nil
// registry returns a nil handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.reindex()
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.reindex()
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The bounds of
// the first creation win; bounds must be sorted ascending. Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := append([]float64(nil), bounds...)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
		r.reindex()
	}
	return h
}

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string
	Value int64
}

// GaugeValue is one gauge in a Snapshot. Set reports whether the gauge was
// ever written.
type GaugeValue struct {
	Name  string
	Value float64
	Set   bool
}

// HistogramValue is one histogram in a Snapshot: the bucket bounds, the
// raw (non-cumulative) per-bucket counts with the overflow bucket last,
// the observation count and the value sum.
type HistogramValue struct {
	Name   string
	Bounds []float64
	Counts []int64 // len(Bounds)+1; last = overflow
	N      int64
	Sum    float64
}

// Quantile estimates the q-quantile (q in (0,1)) by linear interpolation
// inside the bucket holding the target rank, the same estimator Prometheus'
// histogram_quantile uses: values below the first bound interpolate from 0
// (or from the bound itself when it is non-positive), and ranks landing in
// the overflow bucket clamp to the highest finite bound. Returns NaN for an
// empty histogram.
func (h HistogramValue) Quantile(q float64) float64 {
	if h.N <= 0 || len(h.Bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(h.N)
	var cum int64
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		hi := h.Bounds[i]
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		} else if hi <= 0 {
			return hi
		}
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of a registry, with every section
// sorted by metric name.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot captures every metric without taking the registry lock: it
// reads the copy-on-write sorted index through an atomic pointer and then
// loads each counter/gauge atomically (histograms briefly take their own
// per-histogram mutex). Values observed mid-scrape on other goroutines land
// in this snapshot or the next; ordering is stable (sorted by name) either
// way. Nil-safe: a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	ix := r.idx.Load()
	if ix == nil {
		return Snapshot{}
	}
	var s Snapshot
	if len(ix.counters) > 0 {
		s.Counters = make([]CounterValue, len(ix.counters))
		for i, nc := range ix.counters {
			s.Counters[i] = CounterValue{Name: nc.name, Value: nc.c.Value()}
		}
	}
	if len(ix.gauges) > 0 {
		s.Gauges = make([]GaugeValue, len(ix.gauges))
		for i, ng := range ix.gauges {
			v, ok := ng.g.Value()
			s.Gauges[i] = GaugeValue{Name: ng.name, Value: v, Set: ok}
		}
	}
	if len(ix.hists) > 0 {
		s.Histograms = make([]HistogramValue, len(ix.hists))
		for i, nh := range ix.hists {
			n, sum, counts := nh.h.Snapshot()
			s.Histograms[i] = HistogramValue{
				Name: nh.name, Bounds: nh.h.bounds, Counts: counts, N: n, Sum: sum,
			}
		}
	}
	return s
}

// WriteText renders the registry as a deterministic text dump: sections for
// counters, gauges and histograms, each sorted by metric name. Histogram
// lines carry cumulative bucket counts plus p50/p95/p99 estimates from
// bucket interpolation (see HistogramValue.Quantile); both derive only from
// the deterministic bucket counts, so same-seed dumps stay byte-identical.
func (r *Registry) WriteText(w io.Writer) error {
	var b bytes.Buffer
	if r == nil {
		b.WriteString("# metrics: disabled\n")
		_, err := w.Write(b.Bytes())
		return err
	}
	s := r.Snapshot()
	b.WriteString("# counters\n")
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%s %d\n", c.Name, c.Value)
	}
	b.WriteString("# gauges\n")
	for _, g := range s.Gauges {
		if g.Set {
			fmt.Fprintf(&b, "%s %s\n", g.Name, formatFloat(g.Value))
		}
	}
	b.WriteString("# histograms\n")
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "%s count=%d sum=%s", h.Name, h.N, formatFloat(h.Sum))
		cum := int64(0)
		for i, c := range h.Counts {
			cum += c
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, " le%s=%d", formatFloat(h.Bounds[i]), cum)
			} else {
				fmt.Fprintf(&b, " inf=%d", cum)
			}
		}
		if h.N > 0 {
			fmt.Fprintf(&b, " p50=%s p95=%s p99=%s",
				formatFloat(h.Quantile(0.50)), formatFloat(h.Quantile(0.95)), formatFloat(h.Quantile(0.99)))
		}
		b.WriteString("\n")
	}
	_, err := w.Write(b.Bytes())
	return err
}

// formatFloat renders floats with the shortest round-trippable
// representation, keeping text dumps byte-stable across runs.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
