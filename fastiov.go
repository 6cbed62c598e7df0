// Package fastiov is the public API of the FastIOV reproduction (EuroSys
// '25: "FastIOV: Fast Startup of Passthrough Network I/O Virtualization for
// Secure Containers").
//
// The package exposes three layers:
//
//   - The simulated testbed: build a Host (cluster of kernel modules, NIC,
//     VFIO, KVM, fastiovd, CNI, container engine) for any evaluation
//     baseline and run concurrent-startup experiments (NewHost, RunBaseline).
//   - The experiment suite: regenerate every table and figure of the
//     paper's evaluation (Experiments, RunExperiment).
//   - The real concurrency libraries extracted from the paper's two
//     generalizable techniques: the hierarchical parent-child lock
//     framework (§4.2.1) and the decoupled lazy-zeroing arena (§4.3.2),
//     re-exported from internal/locks and internal/zeromem.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results against the paper.
package fastiov

import (
	"fmt"
	"io"

	"fastiov/internal/audit"
	"fastiov/internal/cluster"
	"fastiov/internal/experiments"
	"fastiov/internal/fault"
	"fastiov/internal/fleet"
	"fastiov/internal/locks"
	"fastiov/internal/metrics"
	"fastiov/internal/serve"
	"fastiov/internal/serverless"
	"fastiov/internal/trace"
	"fastiov/internal/zeromem"
)

// Re-exported testbed types.
type (
	// Host is a fully wired simulated machine.
	Host = cluster.Host
	// HostSpec sizes the machine (cores, memory, NIC, VF count).
	HostSpec = cluster.HostSpec
	// Options selects baseline behaviour and the four FastIOV switches.
	Options = cluster.Options
	// Result is one startup experiment's outcome.
	Result = cluster.Result
	// Report is one paper-figure experiment's rendered outcome.
	Report = experiments.Report
	// App is a serverless benchmark descriptor.
	App = serverless.App
	// LeakReport is a host-wide conservation audit: the counter diff between
	// a host's boot baseline and its post-experiment state (Result.Leaks).
	LeakReport = audit.Report
	// Leak is one leaked conservation counter inside a LeakReport.
	Leak = audit.Leak
	// MetricSet is a sealed simulated-time metrics registry: per-metric time
	// series covering one measured run, exportable as an OpenMetrics
	// snapshot (WriteOpenMetrics), a CSV time-series dump (WriteCSV), or an
	// ASCII multi-panel dashboard (Dashboard). Carried on Result.Metrics
	// when Options.Metrics is set; see StartupMetrics for the one-call path.
	MetricSet = metrics.Registry
)

// Re-exported real concurrency primitives.
type (
	// ParentChildLock is the hierarchical lock decomposition framework.
	ParentChildLock = locks.ParentChild
	// ChildLock is one child node's lock.
	ChildLock = locks.Child
	// Devset is the framework applied to the VFIO devset shape.
	Devset = locks.Devset
	// Arena is the real lazy-zeroing page arena.
	Arena = zeromem.Arena
	// ZeroRegistry is the two-tier deferred-zeroing table over an Arena.
	ZeroRegistry = zeromem.Registry
)

// Baseline names (§6.1).
const (
	BaselineNoNet    = cluster.BaselineNoNet
	BaselineVanilla  = cluster.BaselineVanilla
	BaselineRebind   = cluster.BaselineRebind
	BaselineFastIOV  = cluster.BaselineFastIOV
	BaselineFastIOVL = cluster.BaselineFastIOVL
	BaselineFastIOVA = cluster.BaselineFastIOVA
	BaselineFastIOVS = cluster.BaselineFastIOVS
	BaselineFastIOVD = cluster.BaselineFastIOVD
	BaselinePre10    = cluster.BaselinePre10
	BaselinePre50    = cluster.BaselinePre50
	BaselinePre100   = cluster.BaselinePre100
	BaselineIPvtap   = cluster.BaselineIPvtap
)

// Baselines lists every Fig. 11 configuration in presentation order.
func Baselines() []string { return cluster.Baselines() }

// OptionsFor returns the Options of a named baseline.
func OptionsFor(name string) (Options, error) { return cluster.OptionsFor(name) }

// DefaultHostSpec mirrors the paper's testbed (2x Xeon 6348, 256 GB, Intel
// E810 with 256 VFs).
func DefaultHostSpec() HostSpec { return cluster.DefaultHostSpec() }

// NewHost boots a simulated machine.
func NewHost(spec HostSpec, opts Options) (*Host, error) { return cluster.NewHost(spec, opts) }

// RunBaseline boots a default host for the named baseline and concurrently
// starts n secure containers.
func RunBaseline(name string, n int) (*Result, error) { return cluster.RunBaseline(name, n) }

// Apps returns the four SeBS benchmark descriptors (§6.6).
func Apps() []App { return serverless.Apps() }

// NewArena allocates a lazy-zeroing arena of pages x pageSize bytes.
func NewArena(pages, pageSize int) *Arena { return zeromem.NewArena(pages, pageSize) }

// NewZeroRegistry wraps an arena with the two-tier deferred-zeroing table.
func NewZeroRegistry(a *Arena) *ZeroRegistry { return zeromem.NewRegistry(a) }

// NewDevset builds a parent-child-locked devset with n members.
func NewDevset(n int) *Devset { return locks.NewDevset(n) }

// Experiment is one entry of the paper-reproduction suite.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment at its paper-default parameters when
	// n <= 0, or at concurrency n where applicable.
	Run func(n int) (*Report, error)
}

// RunConfig configures a Suite.
type RunConfig struct {
	// Workers bounds how many independent simulation runs execute
	// concurrently; <= 0 selects GOMAXPROCS.
	Workers int
	// Seeds lists the PRNG seeds each scenario sweeps (at most MaxSeeds);
	// empty selects the historical default of the single seed 1.
	Seeds []uint64
	// VerifyDeterminism makes the suite execute every simulation run twice
	// and fail on any byte-level divergence of the canonical result
	// encoding.
	VerifyDeterminism bool
	// FaultSpec is a fault-plan expression (see ValidateFaultSpec) injected
	// into every experiment the suite runs. Empty means fault-free; the
	// chaos experiment pins its own per-row plans and ignores it.
	FaultSpec string
	// Trace enables event-sourced tracing on every simulation the suite
	// runs: lock waits, holds, and wake-up causality are recorded, the
	// critical-path identity (service + blocked + runnable == total) is
	// verified per container, and the determinism fingerprint gains a
	// trace digest. Reports render byte-identically with tracing on or
	// off; the recorded streams surface through the contention experiment
	// and WriteStartupTrace.
	Trace bool
	// Metrics enables the simulated-time metrics registry on every
	// simulation the suite runs: all host instruments are sampled on a
	// simulated-time cadence and the determinism fingerprint gains a
	// metrics digest covering every sampled value. Reports render
	// byte-identically with metrics on or off; the sealed registries
	// surface through the saturation experiment and StartupMetrics.
	Metrics bool
	// Journeys enables per-request journey tracing on every serving
	// simulation the suite runs: each arrival mints a root span threaded
	// through admission, queue wait, dispatch, placement, reroutes, the
	// startup telemetry stages, and pod lifetime, and the determinism
	// fingerprint gains a span-log digest. Reports render byte-identically
	// with journeys on or off; the recorded spans surface through
	// WriteJourneyExports.
	Journeys bool
	// Fleet sizes the fleet experiment (the cluster-level placement sweep):
	// zero values keep the paper-scale defaults; Hosts is at most MaxHosts.
	Fleet FleetConfig
	// Serve shapes the serving experiment (the admission-control study):
	// zero values keep the serving defaults; Hosts is at most MaxHosts.
	Serve ServeConfig
	// Availability shapes the availability experiment (serving under host
	// crash/recovery): zero values sweep the default MTBF/MTTR ladder.
	Availability AvailabilityConfig
}

// Experiment parameterizations, and the bounds RunConfig must respect.
type (
	// FleetConfig sizes the fleet experiment (the cluster-level placement
	// sweep); its Policy names one of FleetPolicies.
	FleetConfig = experiments.FleetConfig
	// ServeConfig shapes the serving experiment (the admission-control
	// study); its Policy names one of ServePolicies and its Tenants spec
	// passes ValidateWorkloadSpec.
	ServeConfig = experiments.ServeConfig
	// AvailabilityConfig shapes the availability experiment (serving under
	// host crash/recovery).
	AvailabilityConfig = experiments.AvailabilityConfig
)

const (
	// MaxSeeds bounds len(RunConfig.Seeds).
	MaxSeeds = experiments.MaxSeeds
	// MaxHosts bounds the fleet and serving host counts.
	MaxHosts = fleet.MaxHosts
)

// FleetPolicies lists the placement policies the fleet experiment sweeps.
func FleetPolicies() []string { return fleet.Policies() }

// ServePolicies lists the admission policies the serving experiment sweeps.
func ServePolicies() []string { return serve.Policies() }

// ValidateWorkloadSpec parses a serving workload expression (the tenant
// grammar in EXPERIMENTS.md, "Spec grammars") and reports the first error,
// if any. Example:
//
//	web:rate=60,prio=high;batch:rate=30,prio=low;flash@3s:x=6,for=2s
func ValidateWorkloadSpec(spec string) error {
	if spec == "" {
		return nil // empty = the serving default tenant mix
	}
	_, err := serve.ParseWorkload(spec)
	return err
}

// ValidateServeLoad reports an error when a serving run of the tenant spec
// (empty = the default mix, also with its flash crowd) at offered load
// rate (<= 0 = the specs' own rates) expects more arrivals than the cap in
// EXPERIMENTS.md ("Spec grammars"): an unbounded load would exhaust memory
// before the first request is served.
func ValidateServeLoad(tenants string, rate float64) error {
	return experiments.CheckServeLoad(tenants, rate)
}

// ValidateFaultSpec parses a fault-plan expression (the fault grammar in
// EXPERIMENTS.md, "Spec grammars": site rules, crash@<stage>, host-crash@,
// daemon-crash@ and host-recover= clauses) and reports the first error, if
// any. Example:
//
//	vfio-reset:p=0.1;dma-map:every=5,limit=3;crash@boot:every=7
func ValidateFaultSpec(spec string) error {
	_, err := fault.ParsePlan(spec)
	return err
}

// Suite is a configured instance of the experiment suite: a worker pool,
// a seed sweep, and a scenario cache shared by every experiment run
// through it (figures that need the same scenario simulate it once).
type Suite struct {
	cfg RunConfig
	x   *experiments.Exec
	// err records a malformed RunConfig (a bad FaultSpec, more than
	// MaxSeeds seeds or MaxHosts hosts); it is surfaced from every run so
	// NewSuite keeps its historical error-free signature.
	err error
}

// NewSuite builds a suite from cfg.
func NewSuite(cfg RunConfig) *Suite {
	var faults *fault.Plan
	var err error
	if cfg.FaultSpec != "" {
		if faults, err = fault.ParsePlan(cfg.FaultSpec); err != nil {
			err = fmt.Errorf("fastiov: fault spec: %w", err)
		}
	}
	xcfg := experiments.Config{
		Workers:      cfg.Workers,
		Seeds:        cfg.Seeds,
		Verify:       cfg.VerifyDeterminism,
		Faults:       faults,
		Observe:      experiments.Observers(cfg.Trace, cfg.Metrics, cfg.Journeys),
		Fleet:        cfg.Fleet,
		Serve:        cfg.Serve,
		Availability: cfg.Availability,
	}
	if err == nil {
		err = xcfg.Check()
	}
	return &Suite{cfg: cfg, x: experiments.NewExec(xcfg), err: err}
}

// SeedList returns the conventional seed sweep 1..k for RunConfig.Seeds.
func SeedList(k int) []uint64 { return experiments.SeedList(k) }

// Experiments returns the suite entries, one per paper table/figure.
func (s *Suite) Experiments() []Experiment {
	entries := experiments.Registry()
	out := make([]Experiment, len(entries))
	for i, e := range entries {
		e := e
		out[i] = Experiment{ID: e.ID, Title: e.Title, Run: func(n int) (*Report, error) {
			return s.run(e, n)
		}}
	}
	return out
}

// Run executes the suite entry with the given id. n <= 0 selects the
// paper-default parameters.
func (s *Suite) Run(id string, n int) (*Report, error) {
	e, err := experiments.Lookup(id)
	if err != nil {
		return nil, fmt.Errorf("fastiov: unknown experiment %q", id)
	}
	return s.run(e, n)
}

// run executes one registry entry, failing first on a malformed config.
func (s *Suite) run(e experiments.Entry, n int) (*Report, error) {
	if s.err != nil {
		return nil, s.err
	}
	return e.Run(s.x, n)
}

// CacheStats reports how many simulation runs the suite executed and how
// many scenario requests its cache absorbed.
func (s *Suite) CacheStats() experiments.CacheStats { return s.x.CacheStats() }

// VerifyDeterminism runs the experiment twice — once through this suite's
// configured worker pool and once serially on a fresh single-worker suite —
// and fails unless the two reports are byte-identical. This checks both
// that the simulation is deterministic under its seed and that parallel
// execution is observationally equivalent to serial execution.
func (s *Suite) VerifyDeterminism(id string, n int) error {
	rep1, err := s.Run(id, n)
	if err != nil {
		return err
	}
	cfg := s.cfg
	cfg.Workers, cfg.VerifyDeterminism = 1, false
	serial := NewSuite(cfg)
	rep2, err := serial.Run(id, n)
	if err != nil {
		return fmt.Errorf("%s: serial re-run: %w", id, err)
	}
	b1, b2 := rep1.Encode(), rep2.Encode()
	if off, detail := experiments.FirstDivergence(b1, b2); off >= 0 {
		return fmt.Errorf("fastiov: experiment %q diverges between parallel and serial runs at byte %d: %s", id, off, detail)
	}
	return nil
}

// WriteStartupTrace boots the named baseline with tracing enabled, starts
// n containers at the given seed, verifies the per-container critical-path
// decomposition, and writes the run to w as Chrome trace-event JSON —
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Procs render
// as threads; telemetry stage spans, simulated work, and lock/resource
// waits render as complete events. The bytes are a pure function of
// (baseline, n, seed).
func WriteStartupTrace(w io.Writer, baseline string, n int, seed uint64) error {
	opts, err := cluster.OptionsFor(baseline)
	if err != nil {
		return err
	}
	opts.Seed = seed
	opts.Trace = true
	h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
	if err != nil {
		return err
	}
	res := h.StartupExperiment(n)
	if res.Err != nil {
		return res.Err
	}
	a, err := trace.Analyze(res.Trace)
	if err != nil {
		return err
	}
	if _, err := a.CriticalPaths(res.Recorder); err != nil {
		return err
	}
	return trace.WriteChrome(w, a, res.Recorder)
}

// StartupMetrics boots the named baseline with the metrics registry
// enabled, starts n containers at the given seed, and returns the sealed
// registry: every host instrument sampled on the default simulated-time
// cadence across the measured wave. The exported bytes (OpenMetrics, CSV,
// dashboard) are a pure function of (baseline, n, seed).
func StartupMetrics(baseline string, n int, seed uint64) (*MetricSet, error) {
	opts, err := cluster.OptionsFor(baseline)
	if err != nil {
		return nil, err
	}
	opts.Seed = seed
	opts.Metrics = true
	h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
	if err != nil {
		return nil, err
	}
	res := h.StartupExperiment(n)
	if res.Err != nil {
		return nil, res.Err
	}
	return res.Metrics, nil
}

// DefaultAlertRules is the alert rule set the slowatch experiment (and the
// CLI's -alerts export) evaluate: a multi-window burn-rate page on the
// sojourn SLO plus a fast-sustain ticket on crash-lost starts.
const DefaultAlertRules = experiments.DefaultSlowatchRules

// ValidateAlertRules parses an alert rule spec (the alert grammar in
// EXPERIMENTS.md, "Spec grammars") and reports the first error, if any.
// Example:
//
//	alert slo-burn: burnrate(serve_sojourn_seconds, slo=2s, short=500ms, long=2s) > 0.25
func ValidateAlertRules(spec string) error {
	_, err := metrics.ParseRules(spec)
	return err
}

// JourneyExportConfig selects one journey-traced serving run for
// WriteJourneyExports.
type JourneyExportConfig struct {
	// Baseline names the cluster baseline (default fastiov); Policy the
	// admission policy (default slo-aware).
	Baseline string
	Policy   string
	// Hosts sizes the fleet; <= 0 keeps the serving default.
	Hosts int
	// Rate pins the offered load in requests per second; <= 0 keeps the
	// serving experiment's default ladder midpoint.
	Rate float64
	// FaultSpec injects a fault plan (see ValidateFaultSpec); empty is
	// fault-free.
	FaultSpec string
	// AlertRules is the rule spec the simulated-time engine evaluates
	// during the run; empty skips alerting (the alert-timeline export then
	// renders no transitions from zero rules).
	AlertRules string
	// Seed drives the run (0 selects seed 1).
	Seed uint64
}

// WriteJourneyExports runs one journey-traced serving window and writes up
// to three artifacts from the same run: the Perfetto/Chrome trace-event
// export of every request's journey (chrome), the canonical JSONL span log
// (spanLog), and the alert engine's timeline (alerts). Any nil writer
// skips its artifact. The bytes are a pure function of the config.
func WriteJourneyExports(cfg JourneyExportConfig, chrome, spanLog, alerts io.Writer) error {
	if cfg.Baseline == "" {
		cfg.Baseline = cluster.BaselineFastIOV
	}
	if cfg.Policy == "" {
		cfg.Policy = serve.PolicySLOAware
	}
	if cfg.Rate <= 0 {
		cfg.Rate = experiments.DefaultServeRates[len(experiments.DefaultServeRates)/2]
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	scfg := serve.Config{
		Baseline:  cfg.Baseline,
		Policy:    cfg.Policy,
		Hosts:     cfg.Hosts,
		Rate:      cfg.Rate,
		Seed:      cfg.Seed,
		Journeys:  true,
		AlertSpec: cfg.AlertRules,
		Audit:     true,
	}
	if cfg.FaultSpec != "" {
		pl, err := fault.ParsePlan(cfg.FaultSpec)
		if err != nil {
			return fmt.Errorf("fastiov: fault spec: %w", err)
		}
		scfg.Faults = pl
	}
	res, err := serve.Run(scfg)
	if err != nil {
		return err
	}
	if chrome != nil {
		if err := res.Journey.WriteChrome(chrome); err != nil {
			return err
		}
	}
	if spanLog != nil {
		if err := res.Journey.WriteLog(spanLog); err != nil {
			return err
		}
	}
	if alerts != nil {
		eng := res.Alerts
		if eng == nil {
			eng = metrics.NewEngine(nil, nil)
		}
		if err := eng.WriteTimeline(alerts); err != nil {
			return err
		}
	}
	return nil
}

// Experiments returns the full suite at its default configuration (serial,
// single seed — the historical behaviour).
func Experiments() []Experiment {
	return NewSuite(RunConfig{Workers: 1}).Experiments()
}

// RunExperiment executes the suite entry with the given id on a default
// (serial, single-seed) suite. n <= 0 selects the paper-default parameters.
func RunExperiment(id string, n int) (*Report, error) {
	return NewSuite(RunConfig{Workers: 1}).Run(id, n)
}
