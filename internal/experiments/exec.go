package experiments

import (
	"fmt"
	"strings"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/harness"
	"fastiov/internal/hypervisor"
	"fastiov/internal/serverless"
	"fastiov/internal/stats"
	"fastiov/internal/telemetry"
	"fastiov/internal/trace"
)

// Exec is a configured experiment executor: a worker pool that fans
// independent simulation runs (scenario × seed) across GOMAXPROCS-style
// parallelism, plus the seed list each scenario sweeps. One Exec shared
// across experiments also shares one result cache, so scenarios that
// several figures need (vanilla at c=200 appears in six of them) simulate
// exactly once.
type Exec struct {
	pool  *harness.Pool
	seeds []uint64
	// faults is the executor-wide default fault plan (nil = fault-free):
	// every scenario that does not pin its own plan inherits it. The chaos
	// experiment pins per-row plans and is therefore unaffected.
	faults *fault.Plan
	// observe is the executor-wide observer set, attached to every scenario
	// on top of the observers it forces on itself (the contention,
	// saturation, and slowatch experiments force theirs). Observed runs carry
	// the recordings on their results but render identically to unobserved
	// runs.
	observe Observe
	// fleetHosts overrides the fleet experiment's host count (<= 0 selects
	// the paper-scale default); fleetPolicy restricts it to one placement
	// policy ("" sweeps all of them).
	fleetHosts  int
	fleetPolicy string
	// serveHosts, servePolicy, serveTenants, and serveRate shape the serving
	// experiment: fleet size (<= 0 selects the serve default), admission
	// policy ("" sweeps all of them), canonical workload spec ("" selects
	// the default tenant mix), and a pinned offered rate (<= 0 sweeps the
	// offered-load ladder).
	serveHosts   int
	servePolicy  string
	serveTenants string
	serveRate    float64
	// availMTBF pins the availability experiment to a single host-MTBF
	// ladder cell (<= 0 sweeps the default MTBF/MTTR ladder). The
	// experiment also honours serveHosts, servePolicy, and serveRate.
	availMTBF time.Duration
	// snapshots enables boot-prefix snapshot caching: the first scenario
	// needing a given (boot inputs, seed) boots a host and captures a
	// cluster.Snapshot into the singleflight cache under Scope "boot";
	// every scenario sharing that boot then clones the snapshot instead of
	// re-simulating the boot prefix. Restores are verified byte-transparent
	// (kernel clock and audit baseline must match the captured boot), so
	// results are identical with snapshots on or off.
	snapshots bool
}

// NewExec returns an executor with the given worker count (<= 0 selects
// GOMAXPROCS) and seed list (empty selects the historical default seed 1,
// keeping single-seed output identical to pre-sweep runs).
func NewExec(workers int, seeds []uint64) *Exec {
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	return &Exec{pool: harness.New(workers), seeds: append([]uint64(nil), seeds...), snapshots: true}
}

// SeedList returns 1..k, the conventional seed sweep.
func SeedList(k int) []uint64 {
	if k < 1 {
		k = 1
	}
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// SetVerify toggles scenario-level determinism verification: every sim run
// executes twice and any byte-level divergence of its canonical result
// encoding fails the experiment.
func (x *Exec) SetVerify(v bool) { x.pool.SetVerify(v) }

// SetSnapshots toggles boot-prefix snapshot caching (on by default).
// Results are byte-identical either way; turning it off forces every
// scenario to re-simulate host boot, which the transparency regression
// tests use as the reference.
func (x *Exec) SetSnapshots(v bool) { x.snapshots = v }

// Snapshots reports whether boot-prefix snapshot caching is enabled.
func (x *Exec) Snapshots() bool { return x.snapshots }

// SetFaults installs an executor-wide fault plan inherited by every
// scenario that does not pin its own. The plan participates in cache keys,
// so faulted and fault-free runs of the same scenario never share results.
func (x *Exec) SetFaults(pl *fault.Plan) { x.faults = pl }

// SetObserve attaches the observer set to every scenario. Observers
// participate in cache keys, so observed and unobserved runs of the same
// scenario never share results.
func (x *Exec) SetObserve(o Observe) { x.observe = o }

// SetFleet sizes the fleet experiment: hosts overrides the host count
// (<= 0 keeps the paper-scale default) and policy restricts the sweep to
// one placement policy ("" sweeps all of them).
func (x *Exec) SetFleet(hosts int, policy string) {
	x.fleetHosts = hosts
	x.fleetPolicy = policy
}

// SetServe shapes the serving experiment: hosts sizes the fleet (<= 0 keeps
// the serve default), policy restricts the sweep to one admission policy
// ("" sweeps all of them), tenants overrides the workload spec ("" keeps
// the default mix), and rate pins a single offered load (<= 0 sweeps the
// ladder).
func (x *Exec) SetServe(hosts int, policy, tenants string, rate float64) {
	x.serveHosts = hosts
	x.servePolicy = policy
	x.serveTenants = tenants
	x.serveRate = rate
}

// SetAvailability pins the availability experiment's host MTBF (<= 0 keeps
// the default MTBF/MTTR ladder sweep).
func (x *Exec) SetAvailability(mtbf time.Duration) { x.availMTBF = mtbf }

// CacheStats aliases the pool's traffic counters so callers above the
// experiments layer need not import the harness directly.
type CacheStats = harness.Stats

// CacheStats reports scenario-cache traffic.
func (x *Exec) CacheStats() CacheStats { return x.pool.Stats() }

// FirstDivergence re-exports harness.FirstDivergence for report-level
// byte comparison.
func FirstDivergence(a, b []byte) (offset int, detail string) {
	return harness.FirstDivergence(a, b)
}

// ----------------------------------------------------------------------
// Scenarios: the one path from an experiment's parameter sweep to cached,
// seed-swept simulation runs.

// Observe is a set of pure observers attached to a simulation run.
type Observe uint8

const (
	// ObserveTrace records the event-sourced trace: lock waits, holds, and
	// wake-up causality, with the critical-path identity verified per
	// container.
	ObserveTrace Observe = 1 << iota
	// ObserveMetrics samples the simulated-time metrics registry.
	ObserveMetrics
	// ObserveJourneys records per-request journey spans on serving runs.
	ObserveJourneys
)

// observeNames spells each Observe bit, in bit order, for cache keys.
var observeNames = []string{"trace", "metrics", "journeys"}

// Observers builds the observer set from one switch per observer.
func Observers(trace, metrics, journeys bool) Observe {
	var o Observe
	for i, on := range []bool{trace, metrics, journeys} {
		if on {
			o |= 1 << i
		}
	}
	return o
}

// env is what a scenario shares with its executor: a nil Faults inherits
// the executor-wide plan (a non-nil empty plan pins "fault-free", which
// keys like an unfaulted scenario), and Observe lists the observers the
// scenario forces on regardless of the executor-wide set.
type env struct {
	Faults  *fault.Plan
	Observe Observe
}

// inherit applies the executor's defaults to the scenario.
func (e *env) inherit(x *Exec) {
	if e.Faults == nil {
		e.Faults = x.faults
	}
	e.Observe |= x.observe
}

// key encodes the resolved env as cache-key tokens.
func (e env) key() string {
	var b strings.Builder
	if !e.Faults.Empty() {
		fmt.Fprintf(&b, " faults=%s", e.Faults)
	}
	for i, name := range observeNames {
		if e.Observe&(1<<i) != 0 {
			b.WriteString(" " + name)
		}
	}
	return b.String()
}

// scenario is one independently schedulable simulation kind. scope and
// params form the cache key: params canonically encodes every input that
// shapes a run, so equal keys at equal seeds are one simulation. run
// executes the scenario at one seed, and fingerprint canonically
// serializes its result for determinism verification.
type scenario[T any] interface {
	scope() string
	params() string
	run(x *Exec, seed uint64) (T, error)
	fingerprint(T) []byte
}

// Multi is one scenario's outcome across the executor's seeds. Scalar
// metrics aggregate across seeds into mean ± 95% CI; rich renderings
// (timelines, breakdowns, CDFs) come from the primary (first) seed's full
// record.
type Multi[T any] struct {
	perSeed []T
}

// Primary returns the first seed's full result.
func (m *Multi[T]) Primary() T { return m.perSeed[0] }

// PerSeed returns every seed's result, in seed-list order.
func (m *Multi[T]) PerSeed() []T { return m.perSeed }

// Metric aggregates f over every seed's result.
func (m *Multi[T]) Metric(f func(T) time.Duration) stats.Estimate {
	return stats.EstimateMetric(m.perSeed, f)
}

// runAll fans the scenarios across the pool at every seed and returns one
// Multi per scenario, in input order. Scenarios carrying an env inherit the
// executor's defaults before they are keyed. Results are cached and shared
// across experiments, so callers must treat them as immutable.
func runAll[S scenario[T], T any](x *Exec, specs []S) ([]*Multi[T], error) {
	jobs := make([]harness.Job, 0, len(specs)*len(x.seeds))
	for _, sp := range specs {
		if in, ok := any(&sp).(interface{ inherit(*Exec) }); ok {
			in.inherit(x)
		}
		scope, params := sp.scope(), sp.params()
		for _, seed := range x.seeds {
			jobs = append(jobs, harness.Job{
				Key:         harness.Key{Scope: scope, Params: params, Seed: seed},
				Fn:          func() (any, error) { return sp.run(x, seed) },
				Fingerprint: func(v any) ([]byte, error) { return sp.fingerprint(v.(T)), nil },
			})
		}
	}
	vals, err := x.pool.Do(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*Multi[T], len(specs))
	for i := range out {
		m := &Multi[T]{perSeed: make([]T, len(x.seeds))}
		for j := range m.perSeed {
			m.perSeed[j] = vals[i*len(x.seeds)+j].(T)
		}
		out[i] = m
	}
	return out, nil
}

// ----------------------------------------------------------------------
// Boot-prefix snapshot cache.

// bootSpec is everything that shapes a host boot. Scenarios agreeing on it
// — and on the seed — boot byte-identical hosts and therefore share one
// cached snapshot. Its key is both the snapshot key and the prefix of every
// single-host scenario key.
type bootSpec struct {
	Baseline string
	// Layout overrides the per-container guest memory geometry.
	Layout *hypervisor.Layout
	// Spec overrides the whole host (VF population, memory geometry, NIC).
	Spec *cluster.HostSpec
	// DisableScrubber turns off fastiovd's background zeroing thread.
	DisableScrubber bool
	env
}

// key canonically encodes the boot inputs.
func (b bootSpec) key() string {
	var s strings.Builder
	fmt.Fprintf(&s, "b=%s", b.Baseline)
	if b.Layout != nil {
		fmt.Fprintf(&s, " layout=%+v", *b.Layout)
	}
	if b.Spec != nil {
		fmt.Fprintf(&s, " spec=%+v", *b.Spec)
	}
	if b.DisableScrubber {
		s.WriteString(" noscrub")
	}
	return s.String() + b.env.key()
}

// options resolves the host options at one seed. Every harness run is
// audited: after measurement the surviving sandboxes are stopped and the
// host's conservation counters diffed against the boot baseline. The
// teardown phase runs after all telemetry marks and consumes no
// randomness, so the rendered results are unchanged — but a leak anywhere
// in the registry fails loudly.
func (b bootSpec) options(seed uint64) (cluster.Options, error) {
	opts, err := cluster.OptionsFor(b.Baseline)
	if err != nil {
		return opts, err
	}
	opts.Seed = seed
	if b.Layout != nil {
		opts.Layout = *b.Layout
	}
	if b.DisableScrubber {
		opts.DisableScrubber = true
	}
	opts.Faults = b.Faults
	opts.Trace = b.Observe&ObserveTrace != 0
	opts.Metrics = b.Observe&ObserveMetrics != 0
	opts.Audit = true
	return opts, nil
}

// boot obtains a booted host for a scenario. With snapshots enabled, the
// singleflight cache is consulted under Scope "boot": the first scenario
// needing this boot simulates it and captures a snapshot; everyone else
// (including the same scenario's verification rerun) clones the snapshot,
// skipping the boot prefix. opts must already be fully resolved; the
// restored host adopts it verbatim, so wave-shaping fields (Arrival,
// StartJitter, Audit) that are deliberately outside the boot key still
// take effect.
func (x *Exec) boot(b bootSpec, opts cluster.Options) (*cluster.Host, error) {
	spec := cluster.DefaultHostSpec()
	if b.Spec != nil {
		spec = *b.Spec
	}
	if !x.snapshots {
		return cluster.NewHost(spec, opts)
	}
	v, err := x.pool.One(harness.Job{
		Key: harness.Key{Scope: "boot", Params: b.key(), Seed: opts.Seed},
		Fn: func() (any, error) {
			h, err := cluster.NewHost(spec, opts)
			if err != nil {
				return nil, err
			}
			return cluster.CaptureSnapshot(h)
		},
		Fingerprint: func(v any) ([]byte, error) {
			return v.(*cluster.Snapshot).AppendCanonical(nil), nil
		},
	})
	if err != nil {
		return nil, err
	}
	h, err := cluster.RestoreSnapshot(v.(*cluster.Snapshot))
	if err != nil {
		return nil, err
	}
	// The snapshot may have been captured by a scenario differing only in
	// wave-shaping options; those never influence boot, so adopting this
	// scenario's full options keeps the measured wave faithful.
	h.Opts = opts
	return h, nil
}

// ----------------------------------------------------------------------
// Startup scenarios: one baseline at one concurrency, optional overrides.

// startupSpec identifies one independently schedulable startup run.
type startupSpec struct {
	bootSpec
	N int
	// Arrival overrides the invocation arrival process.
	Arrival *cluster.Arrival
}

func (startupSpec) scope() string { return "startup" }

func (s startupSpec) params() string {
	p := s.key() + fmt.Sprintf(" n=%d", s.N)
	if s.Arrival != nil {
		p += fmt.Sprintf(" arrival=%+v", *s.Arrival)
	}
	return p
}

// run executes the spec at one seed on a private simulated host (booted
// from the executor's snapshot cache when enabled). The returned result is
// sealed (samples pre-sorted).
func (s startupSpec) run(x *Exec, seed uint64) (*cluster.Result, error) {
	opts, err := s.options(seed)
	if err != nil {
		return nil, err
	}
	if s.Arrival != nil {
		opts.Arrival = *s.Arrival
	}
	h, err := x.boot(s.bootSpec, opts)
	if err != nil {
		return nil, err
	}
	res := h.StartupExperiment(s.N)
	if res.Err != nil {
		return nil, fmt.Errorf("%s: %w", s.Baseline, res.Err)
	}
	if !res.Leaks.Clean() {
		// Standing invariant: every run — rollbacks included — must return
		// each VF, page, IOMMU mapping, and registration it took.
		return nil, fmt.Errorf("%s: dirty leak audit:\n%s", s.Baseline, res.Leaks)
	}
	if res.Trace != nil {
		// Standing invariant on every traced run: per-container critical
		// paths must sum exactly to the recorder's end-to-end totals.
		if err := trace.VerifyCriticalPaths(res.Trace, res.Recorder, trace.DefaultBinder); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Baseline, err)
		}
	}
	res.Totals.Sort()
	res.VFRelated.Sort()
	return res, nil
}

// fingerprint canonically serializes a startup run: every per-container
// total plus the full telemetry record.
func (startupSpec) fingerprint(res *cluster.Result) []byte {
	var b []byte
	for _, d := range res.Totals.Values() {
		b = fmt.Appendf(b, "total %d\n", d)
	}
	for _, d := range res.VFRelated.Values() {
		b = fmt.Appendf(b, "vf %d\n", d)
	}
	// Failure accounting and injector counters join the fingerprint only
	// for faulted runs, keeping fault-free fingerprints byte-identical to
	// their pre-fault-layer encoding.
	if res.FaultStats != nil {
		b = fmt.Appendf(b, "started %d failed %d\n", res.Started, res.Failed)
		for _, st := range res.FaultStats {
			b = fmt.Appendf(b, "fault %s occ=%d inj=%d\n", st.Site, st.Occurrences, st.Injected)
		}
	}
	// The trace digest joins the fingerprint only for traced runs, keeping
	// untraced fingerprints byte-identical to their pre-trace-layer
	// encoding. The digest covers the full event stream, so determinism
	// verification extends down to individual lock handoffs.
	if res.Trace != nil {
		b = fmt.Appendf(b, "trace events=%d fp=%016x\n", res.Trace.Len(), res.Trace.Fingerprint())
	}
	// The metrics digest joins the fingerprint only for metered runs,
	// keeping unmetered fingerprints byte-identical to their
	// pre-metrics-layer encoding. The digest covers the canonical
	// OpenMetrics and CSV exports, so determinism verification extends down
	// to every sampled value.
	if res.Metrics != nil {
		b = fmt.Appendf(b, "metrics samples=%d fp=%016x\n", res.Metrics.Samples(), res.Metrics.Fingerprint())
	}
	return res.Recorder.AppendCanonical(b)
}

// meanTotal is the cross-seed estimate of the average startup time.
func meanTotal(m *Multi[*cluster.Result]) stats.Estimate {
	return m.Metric(func(r *cluster.Result) time.Duration { return r.Totals.Mean() })
}

// totalPercentile is the cross-seed estimate of a startup-time percentile.
func totalPercentile(m *Multi[*cluster.Result], p float64) stats.Estimate {
	return m.Metric(func(r *cluster.Result) time.Duration { return r.Totals.Percentile(p) })
}

// maxTotal is the cross-seed estimate of the slowest container's startup.
func maxTotal(m *Multi[*cluster.Result]) stats.Estimate {
	return m.Metric(func(r *cluster.Result) time.Duration { return r.Totals.Max() })
}

// meanVFRelated is the cross-seed estimate of per-container VF-related
// stage time.
func meanVFRelated(m *Multi[*cluster.Result]) stats.Estimate {
	return m.Metric(func(r *cluster.Result) time.Duration { return r.VFRelated.Mean() })
}

// stageMean is the cross-seed estimate of one stage's per-container mean.
func stageMean(m *Multi[*cluster.Result], st telemetry.Stage) stats.Estimate {
	return m.Metric(func(r *cluster.Result) time.Duration {
		if s := r.Recorder.ByStage()[st]; s != nil {
			return s.Mean()
		}
		return 0
	})
}

// ----------------------------------------------------------------------
// Serverless scenarios: a baseline running one SeBS app to completion.

// serverlessSpec identifies one schedulable serverless completion run.
type serverlessSpec struct {
	bootSpec
	N   int
	App serverless.App
}

func (serverlessSpec) scope() string { return "serverless" }

func (s serverlessSpec) params() string {
	return s.key() + fmt.Sprintf(" n=%d app=%s", s.N, s.App.Name)
}

func (s serverlessSpec) run(x *Exec, seed uint64) (*stats.Sample, error) {
	opts, err := s.options(seed)
	if err != nil {
		return nil, err
	}
	h, err := x.boot(s.bootSpec, opts)
	if err != nil {
		return nil, err
	}
	sample, err := serverlessCompletions(h, opts, s.N, s.App)
	if err != nil {
		return nil, err
	}
	if h.Tracer != nil {
		if err := trace.VerifyCriticalPaths(h.Tracer, h.Rec, trace.DefaultBinder); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", s.Baseline, s.App.Name, err)
		}
	}
	sample.Sort()
	return sample, nil
}

func (serverlessSpec) fingerprint(sample *stats.Sample) []byte {
	var b []byte
	for _, d := range sample.Values() {
		b = fmt.Appendf(b, "%d\n", d)
	}
	return b
}

// meanCompletion is the cross-seed estimate of mean completion time.
func meanCompletion(m *Multi[*stats.Sample]) stats.Estimate { return m.Metric((*stats.Sample).Mean) }
