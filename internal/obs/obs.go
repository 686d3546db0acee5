// Package obs is the observability plane: a dependency-free metrics
// registry (atomic counters, gauges, fixed-bucket histograms), plain-data
// snapshots with one combination operator, a structured run-event
// journal, and live exposition (Prometheus text, JSON, journal tail,
// pprof) over an opt-in HTTP endpoint.
//
// Design constraints, in order:
//
//   - Hot-path increments are allocation-free and lock-free: callers hold
//     *Counter / *Gauge / *Histogram pointers obtained once at
//     construction; Inc/Add/Set/Observe are single atomic ops.
//   - Snapshots are plain data (maps of name → value), safe to ship in
//     cluster Status messages. A snapshot on the wire is always
//     cumulative — a worker's whole registry, which the receiver keeps in
//     place of the last one — so a lost message loses nothing the next
//     one does not carry. One operator, Merge (a cross-source sum,
//     associative and commutative), folds snapshots into the fleet view.
//   - Determinism: nothing in this package reads a clock or RNG on its
//     own. The Journal's clock is injectable so the lock-step sim can
//     stamp events with virtual tick time, making journals and metrics
//     bit-for-bit reproducible across identically-seeded runs.
//
// Subsystems that already keep their own atomic counter structs (e.g.
// solver.Stats) fold into snapshots through registered Source functions
// at collect time instead of double-counting on the hot path.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up or down).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of uint64 observations. Bucket i
// counts observations v ≤ bounds[i]; one implicit +Inf bucket catches the
// rest. Observe is lock-free; bounds are immutable after construction.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ExpBuckets returns n exponential bucket bounds: start, start*factor, …
func ExpBuckets(start, factor uint64, n int) []uint64 {
	b := make([]uint64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Source folds externally maintained atomic counters into a snapshot at
// collect time. Sources MUST read only atomics (or otherwise
// synchronized state): snapshots are taken from scrape goroutines
// concurrent with the owning thread.
type Source func(s *Snapshot)

// Registry owns named metrics and sources. Metric lookup by name takes a
// lock and is meant for construction time; hold the returned pointer for
// hot-path use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sources  []Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if new (bounds are ignored on reuse).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]uint64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		r.hists[name] = h
	}
	return h
}

// AddSource registers a collect-time source.
func (r *Registry) AddSource(f Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, f)
}

// Snapshot collects every metric and source into plain data. Safe to call
// from any goroutine, concurrent with hot-path increments.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]Hist, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		hist := Hist{
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Sum:    h.sum.Load(),
		}
		for i := range h.counts {
			hist.Counts[i] = h.counts[i].Load()
		}
		s.Hists[name] = hist
	}
	for _, f := range r.sources {
		f(&s)
	}
	return s
}

// Hist is the plain-data form of a Histogram.
type Hist struct {
	Bounds []uint64 `json:"bounds,omitempty"`
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum,omitempty"`
}

func (h Hist) clone() Hist {
	return Hist{
		Bounds: append([]uint64(nil), h.Bounds...),
		Counts: append([]uint64(nil), h.Counts...),
		Sum:    h.Sum,
	}
}

// Count returns the total number of observations.
func (h Hist) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Snapshot is a plain-data point-in-time view of a metric set. The zero
// value (nil maps) is a valid empty snapshot, and merging into one copies.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
	Hists    map[string]Hist   `json:"hists,omitempty"`
}

// Counter returns the named counter's value (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// PutCounter sets a counter value (used by Sources).
func (s *Snapshot) PutCounter(name string, v uint64) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	s.Counters[name] = v
}

// PutGauge sets a gauge value (used by Sources).
func (s *Snapshot) PutGauge(name string, v int64) {
	if s.Gauges == nil {
		s.Gauges = make(map[string]int64)
	}
	s.Gauges[name] = v
}

// Merge sums another source's snapshot into the receiver: counters,
// gauges, and histograms all add. Merge is associative and commutative,
// so a fleet view can be folded in any order, and it never aliases o's
// histograms.
func (s *Snapshot) Merge(o Snapshot) {
	for k, v := range o.Counters {
		s.PutCounter(k, s.Counters[k]+v)
	}
	for k, v := range o.Gauges {
		s.PutGauge(k, s.Gauges[k]+v)
	}
	for k, v := range o.Hists {
		cur, ok := s.Hists[k]
		if !ok {
			if s.Hists == nil {
				s.Hists = make(map[string]Hist)
			}
			s.Hists[k] = v.clone()
			continue
		}
		merged := cur.clone()
		merged.Sum += v.Sum
		for i := range v.Counts {
			if i < len(merged.Counts) {
				merged.Counts[i] += v.Counts[i]
			}
		}
		s.Hists[k] = merged
	}
}

// Names returns all metric names in sorted order (counters, gauges and
// histograms interleaved).
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Hists))
	for k := range s.Counters {
		names = append(names, k)
	}
	for k := range s.Gauges {
		names = append(names, k)
	}
	for k := range s.Hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
