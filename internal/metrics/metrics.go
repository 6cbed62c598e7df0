// Package metrics is a deterministic, simulated-time metrics subsystem for
// the DES testbed: a registry of counters, gauges, and fixed-bucket
// histograms, plus a sampler proc that snapshots every instrument on a
// configurable simulated-time cadence, producing one time series per
// instrument.
//
// The registry is built for zero perturbation of the simulation under
// observation:
//
//   - Instruments are read-only closures over substrate state; registering
//     them consumes no simulated time and no PRNG draws.
//   - The sampler is a daemon Proc that only sleeps between snapshots — it
//     takes no locks, holds no resources, and never touches the kernel's
//     PRNG, so the relative order of every other event is unchanged and a
//     metrics-enabled run renders byte-identically to a metrics-off run.
//   - Saturation signals (resource busy integrals, lock queue depths) are
//     kept exactly by the sim primitives that own the state; instruments
//     read them like any other substrate counter. The registry consumes no
//     kernel probe events.
//
// After Seal, the registry is frozen: final values are snapshotted, further
// samples are ignored, and the three exporters (OpenMetrics text, CSV time
// series, ASCII dashboard) render byte-deterministic output — a pure
// function of the seeded simulation.
package metrics

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"fastiov/internal/sim"
)

// DefaultCadence is the sampling interval when the caller does not choose
// one: fine enough to resolve the multi-second zeroing phase of a startup
// wave (~650 samples over a 16 s vanilla run) without drowning exports.
const DefaultCadence = 25 * time.Millisecond

// Kind classifies an instrument for the OpenMetrics exposition.
type Kind uint8

const (
	// KindGauge is a value that can go up and down (queue depth, free pages).
	KindGauge Kind = iota
	// KindCounter is a monotonically non-decreasing cumulative value.
	KindCounter
	// KindHistogram is a fixed-bucket distribution of observations.
	KindHistogram
)

// String returns the OpenMetrics type name.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one instrument label. Labels are ordered as given at
// registration; the exporters never reorder them.
type Label struct {
	Key   string
	Value string
}

// instrument is one registered metric plus its sampled series.
type instrument struct {
	name   string // family name as registered (sanitized at export)
	help   string
	labels []Label
	kind   Kind

	// fn reads the live value (gauges and counters) until Seal drops it.
	// Histograms read their cumulative observation count instead.
	fn   func() float64
	hist *Histogram

	// series holds one sampled value per registry tick.
	series []float64
	// final is the value at Seal time — the exporters' snapshot, immune to
	// post-measurement mutation (e.g. audit teardown).
	final float64
}

// id is the unique instrument identity: family name plus rendered labels.
func (in *instrument) id() string { return instrumentID(in.name, in.labels) }

func instrumentID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// value reads the instrument's current value; a sealed gauge or counter
// reads its final value.
func (in *instrument) value() float64 {
	switch {
	case in.kind == KindHistogram:
		return float64(in.hist.total)
	case in.fn == nil:
		return in.final
	}
	return in.fn()
}

// DefaultExemplarWindow is the exemplar replacement window: within one
// window a bucket keeps the worst observation's trace, and a new window
// starts fresh so stale exemplars from an old incident age out.
const DefaultExemplarWindow = time.Second

// Exemplar links a histogram bucket to the concrete request behind its
// worst observation, so a p99.9 spike resolves to a journey trace ID.
type Exemplar struct {
	Trace int           // journey trace ID of the exemplified request
	Value float64       // the observed value
	At    time.Duration // simulated observation instant
}

// BucketExemplar is an exemplar plus the bucket it annotates.
type BucketExemplar struct {
	Bucket int     // bucket index (len(buckets) is the +Inf bucket)
	Upper  float64 // bucket upper bound (+Inf for the last)
	Exemplar
}

// Histogram is a fixed-bucket histogram. Observe is pure bookkeeping — no
// simulated time, no PRNG — so instrumented code paths stay byte-identical.
type Histogram struct {
	buckets []float64 // ascending upper bounds; +Inf is implicit
	counts  []uint64  // len(buckets)+1, last is the +Inf bucket
	sum     float64
	total   uint64

	// Exemplar state, allocated on first ObserveExemplar so plain
	// histograms carry no exemplar bytes in any export.
	ex       []Exemplar
	exSet    []bool
	exWindow time.Duration
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// ObserveExemplar records one observation and offers (trace, at) as the
// bucket's exemplar. The bucket keeps the worst (largest) observation per
// DefaultExemplarWindow: an exemplar older than one window is replaced
// outright, one within the window only by a worse observation.
func (h *Histogram) ObserveExemplar(v float64, trace int, at time.Duration) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
	if h.ex == nil {
		h.ex = make([]Exemplar, len(h.counts))
		h.exSet = make([]bool, len(h.counts))
		h.exWindow = DefaultExemplarWindow
	}
	switch {
	case !h.exSet[i]:
	case at-h.ex[i].At >= h.exWindow: // new window — start fresh
	case v > h.ex[i].Value: // worse within the window
	default:
		return
	}
	h.ex[i] = Exemplar{Trace: trace, Value: v, At: at}
	h.exSet[i] = true
}

// Exemplars returns the per-bucket exemplars in bucket order (empty when
// ObserveExemplar was never called).
func (h *Histogram) Exemplars() []BucketExemplar {
	var out []BucketExemplar
	for i, set := range h.exSet {
		if !set {
			continue
		}
		upper := math.Inf(+1)
		if i < len(h.buckets) {
			upper = h.buckets[i]
		}
		out = append(out, BucketExemplar{Bucket: i, Upper: upper, Exemplar: h.ex[i]})
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// CountAbove returns the number of observations above the largest bucket
// upper bound <= v (exact when v is a bucket bound — pick SLO targets that
// are; conservative otherwise).
func (h *Histogram) CountAbove(v float64) uint64 {
	var le uint64
	for i, ub := range h.buckets {
		if ub > v {
			break
		}
		le += h.counts[i]
	}
	return h.total - le
}

// Registry is a set of instruments plus their sampled time series.
type Registry struct {
	cadence time.Duration
	insts   []*instrument
	byID    map[string]*instrument
	times   []sim.Duration
	end     sim.Duration
	sealed  bool
}

// New returns an empty registry sampling at the given cadence (<= 0 selects
// DefaultCadence).
func New(cadence time.Duration) *Registry {
	if cadence <= 0 {
		cadence = DefaultCadence
	}
	return &Registry{
		cadence: cadence,
		byID:    make(map[string]*instrument),
	}
}

// Cadence returns the sampling interval.
func (r *Registry) Cadence() time.Duration { return r.cadence }

func (r *Registry) register(in *instrument) {
	id := in.id()
	if _, dup := r.byID[id]; dup {
		panic("metrics: duplicate instrument " + id)
	}
	r.insts = append(r.insts, in)
	r.byID[id] = in
}

// GaugeFunc registers a gauge read from fn at every sample tick.
func (r *Registry) GaugeFunc(name, help string, labels []Label, fn func() float64) {
	r.register(&instrument{name: name, help: help, labels: labels, kind: KindGauge, fn: fn})
}

// CounterFunc registers a counter read from fn at every sample tick. fn
// must be monotonically non-decreasing over simulated time; by convention
// the name ends in "_total" (the exporter appends it otherwise).
func (r *Registry) CounterFunc(name, help string, labels []Label, fn func() float64) {
	r.register(&instrument{name: name, help: help, labels: labels, kind: KindCounter, fn: fn})
}

// NewHistogram registers a fixed-bucket histogram with the given ascending
// upper bounds (the +Inf bucket is implicit) and returns it for Observe
// calls. Its sampled series is the cumulative observation count.
func (r *Registry) NewHistogram(name, help string, labels []Label, buckets []float64) *Histogram {
	h := &Histogram{
		buckets: append([]float64(nil), buckets...),
		counts:  make([]uint64, len(buckets)+1),
	}
	r.register(&instrument{name: name, help: help, labels: labels, kind: KindHistogram, hist: h})
	return h
}

// Start launches the sampler as a daemon Proc: it snapshots every
// instrument now and then every cadence until the simulation quiesces.
// Daemons do not keep the simulation alive and are reaped when Run
// returns, so sampling covers exactly the measured phase.
func (r *Registry) Start(k *sim.Kernel) {
	k.GoDaemon("metrics-sampler", func(p *sim.Proc) {
		for {
			r.sample(p.Now())
			p.Sleep(r.cadence)
		}
	})
}

// sample records one tick.
func (r *Registry) sample(at sim.Duration) {
	if r.sealed {
		return
	}
	r.times = append(r.times, at)
	for _, in := range r.insts {
		in.series = append(in.series, in.value())
	}
}

// Seal freezes the registry at the end of the measured phase: every
// instrument's final value is snapshotted and all further samples are
// ignored. The registry reads as sealed at end while the finals are taken,
// so an instrument over a time integral can extend it to End. The read
// functions are dropped once their finals are taken: they close over the
// instrumented substrate, which a sealed registry must not keep reachable.
// Idempotent — only the first call takes effect.
func (r *Registry) Seal(end sim.Duration) {
	if r.sealed {
		return
	}
	r.end = end
	r.sealed = true
	for _, in := range r.insts {
		in.final = in.value()
		in.fn = nil
	}
}

// Sealed reports whether the registry has been frozen.
func (r *Registry) Sealed() bool { return r.sealed }

// End returns the seal time (the end of the measured phase).
func (r *Registry) End() time.Duration { return r.end }

// Samples returns the number of recorded ticks.
func (r *Registry) Samples() int { return len(r.times) }

// Times returns the tick times (not a copy).
func (r *Registry) Times() []time.Duration { return r.times }

// IDs returns every instrument id in lexical order.
func (r *Registry) IDs() []string {
	ids := make([]string, 0, len(r.insts))
	for _, in := range r.insts {
		ids = append(ids, in.id())
	}
	sort.Strings(ids)
	return ids
}

// Series returns the sampled series of an instrument id (nil if unknown).
func (r *Registry) Series(id string) []float64 {
	if in, ok := r.byID[id]; ok {
		return in.series
	}
	return nil
}

// Final returns the instrument's value at Seal time (0 if unknown).
func (r *Registry) Final(id string) float64 {
	if in, ok := r.byID[id]; ok {
		return in.final
	}
	return 0
}

// FamilyValue sums the live values of every instrument whose family name
// (as registered, before sanitization) equals name — labels aggregate
// away, so `serve_requests_shed_total{reason=...}` counters sum into one
// shed rate. ok is false when no instrument has the family name. This is
// the alert engine's read surface (journey.MetricSource).
func (r *Registry) FamilyValue(name string) (float64, bool) {
	var sum float64
	found := false
	for _, in := range r.insts {
		if in.name == name {
			sum += in.value()
			found = true
		}
	}
	return sum, found
}

// FamilyBad returns the cumulative (above-SLO, total) observation counts
// summed over every histogram in the named family, counting an
// observation as bad when it exceeds the largest bucket bound <= slo.
func (r *Registry) FamilyBad(name string, slo float64) (bad, total float64, ok bool) {
	for _, in := range r.insts {
		if in.name == name && in.kind == KindHistogram {
			bad += float64(in.hist.CountAbove(slo))
			total += float64(in.hist.Count())
			ok = true
		}
	}
	return bad, total, ok
}

// SeriesSummary digests one sampled series.
type SeriesSummary struct {
	Min, Max, Mean, Last float64
	Samples              int
}

// Summary digests the series of an instrument id (zero value if unknown or
// empty).
func (r *Registry) Summary(id string) SeriesSummary {
	s := r.Series(id)
	if len(s) == 0 {
		return SeriesSummary{}
	}
	out := SeriesSummary{Min: s[0], Max: s[0], Last: s[len(s)-1], Samples: len(s)}
	var sum float64
	for _, v := range s {
		if v < out.Min {
			out.Min = v
		}
		if v > out.Max {
			out.Max = v
		}
		sum += v
	}
	out.Mean = sum / float64(len(s))
	return out
}

// Fingerprint hashes the sealed registry's canonical exports (FNV-1a over
// the OpenMetrics snapshot and the CSV time series). Determinism
// verification folds this into the run fingerprint, extending byte-level
// reproducibility down to every sampled value.
func (r *Registry) Fingerprint() uint64 {
	h := fnv.New64a()
	_ = r.WriteOpenMetrics(h)
	_ = r.WriteCSV(h)
	return h.Sum64()
}
