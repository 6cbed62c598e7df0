package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/audit"
	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/fleet"
	"fastiov/internal/harness"
	"fastiov/internal/serve"
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
	// experiments force theirs). Neither it nor Faults reaches a pinned
	// recipe (§6.5, bg-dataplane, recovery). Observers participate in
	// cache keys;
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

// recipe is what a scenario boots at every seed: exactly one of a host, a
// fleet, or a serving window. Unless pinned, it takes the executor's
// defaults: the executor-wide fault plan fills a nil Faults (a non-nil
// empty plan pins "fault-free"), and the executor's observers join the
// ones the recipe turns on itself. A pinned recipe runs exactly as
// written.
type recipe struct {
	host   *cluster.Snapshot
	fleet  *fleet.Config
	serve  *serve.Config
	pinned bool
	// err fails the boot (a host recipe for an unknown baseline).
	err error
}

// onHost is the recipe of a default host booted as baseline; callers edit
// its Spec and Opts for overrides.
func onHost(baseline string) recipe {
	opts, err := cluster.OptionsFor(baseline)
	return recipe{host: &cluster.Snapshot{Spec: cluster.DefaultHostSpec(), Opts: opts}, err: err}
}

// knobs points into a recipe's config: the whole config, and the fields
// every kind shares (journeys is nil where the recipe records none).
type knobs struct {
	cfg                             any
	seed                            *uint64
	faults                          **fault.Plan
	trace, metrics, journeys, audit *bool
}

// own gives r a private copy of its config and returns the copy's knobs.
func (r *recipe) own() knobs {
	switch {
	case r.host != nil:
		c := *r.host
		r.host = &c
		o := &c.Opts
		return knobs{r.host, &o.Seed, &o.Faults, &o.Trace, &o.Metrics, nil, &o.Audit}
	case r.fleet != nil:
		c := *r.fleet
		r.fleet = &c
		return knobs{r.fleet, &c.Seed, &c.Faults, &c.Trace, &c.Metrics, nil, &c.Audit}
	}
	c := *r.serve
	r.serve = &c
	return knobs{r.serve, &c.Seed, &c.Faults, &c.Trace, &c.Metrics, &c.Journeys, &c.Audit}
}

// resolve applies the executor's defaults to r. Every run is audited:
// after measurement the surviving sandboxes are stopped, after all
// telemetry marks and without consuming randomness, so rendered results
// are unchanged — but a leak anywhere in the registry fails loudly.
func (x *Exec) resolve(r recipe) recipe {
	k := r.own()
	*k.audit = true
	if r.pinned {
		return r
	}
	if *k.faults == nil {
		*k.faults = x.cfg.Faults
	}
	for i, on := range []*bool{k.trace, k.metrics, k.journeys} {
		if on != nil && x.cfg.Observe&(1<<i) != 0 {
			*on = true
		}
	}
	return r
}

// key canonically encodes everything but the seed that shapes a run of a
// workload with parameters args on the resolved recipe r: the whole
// config, with the fault plan spelled by its canonical text rather than
// its pointer. Equal keys at equal seeds are one simulation.
func (r recipe) key(args any) string {
	k := r.own()
	plan := *k.faults
	*k.faults, *k.seed = nil, 0
	key := fmt.Sprintf("%+v %+v", args, k.cfg)
	if !plan.Empty() {
		key += " faults=" + plan.String()
	}
	return key
}

// system is what a recipe boots: exactly one of a host, a fleet, or a
// serving window's server.
type system struct {
	host   *cluster.Host
	fleet  *fleet.Fleet
	server *serve.Server
}

// boot boots r at seed.
func (r recipe) boot(seed uint64) (system, error) {
	if r.err != nil {
		return system{}, r.err
	}
	*r.own().seed = seed
	switch {
	case r.host != nil:
		h, err := cluster.NewHost(r.host.Spec, r.host.Opts)
		return system{host: h}, err
	case r.fleet != nil:
		f, err := fleet.New(*r.fleet)
		return system{fleet: f}, err
	}
	s, err := serve.New(*r.serve)
	return system{server: s}, err
}

// check holds a finished run to the standing invariants, whatever its
// workload. Every run, rollbacks and sheds included, must return each VF,
// page, IOMMU mapping and registration it took: a host's conservation
// counters are diffed against its boot baseline, and a fleet's teardown
// (which Finish audits per host and fleet-wide) must be clean. On a traced
// host run the per-container critical paths must sum exactly to the
// recorder's end-to-end totals (a traced fleet verifies its own in Finish).
func (sys system) check(result any) error {
	if h := sys.host; h != nil {
		if rep := audit.NewReport(h.Baseline, h.AuditSnapshot()); !rep.Clean() {
			return fmt.Errorf("dirty leak audit:\n%s", rep)
		}
		if h.Tracer == nil {
			return nil
		}
		return trace.VerifyCriticalPaths(h.Tracer, h.Rec, trace.DefaultBinder)
	}
	res, _ := result.(*fleet.Result)
	if sr, ok := result.(*serve.Result); ok {
		res = sr.Fleet
	}
	for i, rep := range res.PerHost {
		if !rep.Clean() {
			return fmt.Errorf("host %d dirty leak audit:\n%s", i, rep)
		}
	}
	if !res.Leaks.Clean() {
		return fmt.Errorf("fleet-wide dirty leak audit:\n%s", res.Leaks)
	}
	return nil
}

// scenario is one independently schedulable simulation: a recipe, and a
// workload run on what the recipe boots. work names the workload and args
// holds its parameters (nil when it has none); with the resolved recipe
// they form the cache key. fingerprint canonically serializes a result
// for determinism verification.
type scenario[T any] struct {
	recipe
	work        string
	args        any
	run         func(system) (T, error)
	fingerprint func(T) []byte
}

// runAt boots the scenario at seed, runs its workload, and checks the
// finished run.
func (sc scenario[T]) runAt(seed uint64) (T, error) {
	sys, err := sc.boot(seed)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := sc.run(sys)
	if err == nil {
		err = sys.check(v)
	}
	return v, err
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
// Multi per scenario, in input order. Each recipe takes the executor's
// defaults before it is keyed. Results are cached and shared across
// experiments, so callers must treat them as immutable.
func runAll[T any](x *Exec, scs []scenario[T]) ([]*Multi[T], error) {
	jobs := make([]harness.Job, 0, len(scs)*len(x.cfg.Seeds))
	for _, sc := range scs {
		sc.recipe = x.resolve(sc.recipe)
		key := sc.key(sc.args)
		for _, seed := range x.cfg.Seeds {
			jobs = append(jobs, harness.Job{
				Key:         harness.Key{Scope: sc.work, Params: key, Seed: seed},
				Fn:          func() (any, error) { return sc.runAt(seed) },
				Fingerprint: func(v any) ([]byte, error) { return sc.fingerprint(v.(T)), nil },
			})
		}
	}
	vals, err := x.pool.Do(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*Multi[T], len(scs))
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
// Startup scenarios: one host recipe starting a wave of containers.

// startup starts n containers on the recipe's host at once (crictl-style,
// no application inside, §3.1). The result is sealed: samples sorted, and
// the sandboxes dropped — the audit tore every one down, nothing reads
// them after it, and each reaches its host's KVM, memory, VFIO and
// fastiovd state, so a cached result holding them would keep the whole
// host alive.
func startup(r recipe, n int) scenario[*cluster.Result] {
	return scenario[*cluster.Result]{recipe: r, work: "startup", args: n, fingerprint: startupFingerprint,
		run: func(sys system) (*cluster.Result, error) {
			res := sys.host.StartupExperiment(n)
			if res.Err != nil {
				return nil, res.Err
			}
			res.Sandboxes = nil
			res.Totals.Sort()
			res.VFRelated.Sort()
			return res, nil
		}}
}

// startups is a default-host startup of n containers for each baseline.
func startups(n int, baselines ...string) []scenario[*cluster.Result] {
	specs := make([]scenario[*cluster.Result], len(baselines))
	for i, b := range baselines {
		specs[i] = startup(onHost(b), n)
	}
	return specs
}

// startupFingerprint canonically serializes a startup run: every
// per-container total plus the full telemetry record.
func startupFingerprint(res *cluster.Result) []byte {
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
