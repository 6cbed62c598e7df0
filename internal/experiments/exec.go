package experiments

import (
	"fmt"
	"strings"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/fleet"
	"fastiov/internal/harness"
	"fastiov/internal/hypervisor"
	"fastiov/internal/serverless"
	"fastiov/internal/stats"
	"fastiov/internal/telemetry"
	"fastiov/internal/trace"
)

// MaxSeeds bounds the executor's seed sweep.
const MaxSeeds = 1000

// Config is everything an executor is built from.
type Config struct {
	// Workers bounds concurrent simulation runs (<= 0 selects GOMAXPROCS).
	Workers int
	// Seeds is the seed list each scenario sweeps (empty selects the
	// historical default seed 1, keeping single-seed output identical to
	// pre-sweep runs; at most MaxSeeds).
	Seeds []uint64
	// Verify makes every sim run execute twice; any byte-level divergence
	// of its canonical result encoding fails the experiment.
	Verify bool
	// Faults is the executor-wide default fault plan (nil = fault-free):
	// every scenario that does not pin its own plan inherits it. The plan
	// participates in cache keys, so faulted and fault-free runs of the
	// same scenario never share results.
	Faults *fault.Plan
	// Observe is attached to every scenario on top of the observers it
	// forces on itself (the contention, saturation, and slowatch
	// experiments force theirs). Observers participate in cache keys;
	// observed runs carry the recordings on their results but render
	// identically to unobserved runs.
	Observe      Observe
	Fleet        FleetConfig
	Serve        ServeConfig
	Availability AvailabilityConfig
}

// FleetConfig parameterizes the fleet experiment.
type FleetConfig struct {
	// Hosts overrides the fleet's host count; <= 0 keeps the paper-scale
	// default (100 heterogeneous hosts).
	Hosts int
	// Policy restricts the sweep to one placement policy (see
	// fleet.Policies); empty sweeps all of them.
	Policy string
}

// ServeConfig parameterizes the serving experiment.
type ServeConfig struct {
	// Hosts sizes the serving fleet; <= 0 keeps the serving default.
	Hosts int
	// Policy restricts the sweep to one admission policy (see
	// serve.Policies); empty sweeps all of them.
	Policy string
	// Tenants overrides the workload spec; empty keeps the default
	// three-tenant mix.
	Tenants string
	// Rate pins a single offered load in requests per second; <= 0 sweeps
	// the offered-load ladder.
	Rate float64
}

// AvailabilityConfig parameterizes the availability experiment (serving
// over a fleet whose full-profile host crashes on an MTBF clock and reboots
// after the host-recover delay). It also honours ServeConfig's Hosts,
// Policy, and Rate.
type AvailabilityConfig struct {
	// MTBF pins the host mean-time-between-failures to a single ladder
	// cell; <= 0 sweeps the default MTBF/MTTR ladder.
	MTBF time.Duration
}

// Check reports an error when the seed list or a fleet size exceeds its
// bound (MaxSeeds, fleet.MaxHosts).
func (c Config) Check() error {
	if len(c.Seeds) > MaxSeeds {
		return fmt.Errorf("experiments: %d seeds exceeds the limit of %d", len(c.Seeds), MaxSeeds)
	}
	for _, h := range []int{c.Fleet.Hosts, c.Serve.Hosts} {
		if h > fleet.MaxHosts {
			return fmt.Errorf("experiments: %d hosts exceeds the limit of %d", h, fleet.MaxHosts)
		}
	}
	return nil
}

// Exec is a configured experiment executor: a worker pool that fans
// independent simulation runs (scenario × seed) across GOMAXPROCS-style
// parallelism, plus the config every experiment reads. One Exec shared
// across experiments also shares one result cache, so scenarios that
// several figures need (vanilla at c=200 appears in six of them) simulate
// exactly once.
type Exec struct {
	pool *harness.Pool
	cfg  Config
}

// NewExec returns an executor for cfg. Callers run nothing on it unless cfg
// passes Check.
func NewExec(cfg Config) *Exec {
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []uint64{1}
	}
	cfg.Seeds = append([]uint64(nil), cfg.Seeds...)
	return &Exec{pool: harness.New(cfg.Workers, cfg.Verify), cfg: cfg}
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
		e.Faults = x.cfg.Faults
	}
	e.Observe |= x.cfg.Observe
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
	jobs := make([]harness.Job, 0, len(specs)*len(x.cfg.Seeds))
	for _, sp := range specs {
		if in, ok := any(&sp).(interface{ inherit(*Exec) }); ok {
			in.inherit(x)
		}
		scope, params := sp.scope(), sp.params()
		for _, seed := range x.cfg.Seeds {
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
		m := &Multi[T]{perSeed: make([]T, len(x.cfg.Seeds))}
		for j := range m.perSeed {
			m.perSeed[j] = vals[i*len(x.cfg.Seeds)+j].(T)
		}
		out[i] = m
	}
	return out, nil
}

// ----------------------------------------------------------------------
// Host boot inputs.

// bootSpec is everything that shapes a host boot. Scenarios agreeing on it
// — and on the seed — boot byte-identical hosts. Its key is the prefix of
// every single-host scenario key.
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

// boot boots the scenario's host with opts, which must already be fully
// resolved.
func (b bootSpec) boot(opts cluster.Options) (*cluster.Host, error) {
	spec := cluster.DefaultHostSpec()
	if b.Spec != nil {
		spec = *b.Spec
	}
	return cluster.NewHost(spec, opts)
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

// run executes the spec at one seed on a private simulated host. The
// returned result is sealed (samples pre-sorted).
func (s startupSpec) run(x *Exec, seed uint64) (*cluster.Result, error) {
	opts, err := s.options(seed)
	if err != nil {
		return nil, err
	}
	if s.Arrival != nil {
		opts.Arrival = *s.Arrival
	}
	h, err := s.boot(opts)
	if err != nil {
		return nil, err
	}
	return s.measure(h)
}

// measure runs the spec's startup wave on the booted host h, audits it and
// seals the result.
func (s startupSpec) measure(h *cluster.Host) (*cluster.Result, error) {
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
	// The audit tore every sandbox down, and nothing reads them after it.
	// Each one reaches its host's KVM, memory, VFIO and fastiovd state, so
	// a cached result holding them would keep the whole host alive.
	res.Sandboxes = nil
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
	h, err := s.boot(opts)
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
