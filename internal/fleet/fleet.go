// Package fleet boots many simulated hosts into ONE shared simulation
// kernel and schedules container starts across them — the cluster-level
// view of the paper's startup problem. Each host gets a unique observability
// scope (cluster.Options.Scope) and a derived PRNG stream (sim.SplitSeed),
// so the fleet run is bit-for-bit deterministic per seed while hosts never
// share or collide random state. Placement policies (scheduler.go) read
// per-host signals — free VFs, in-flight starts, devset lock queue depth,
// membw busy integral — straight from the substrate: the vfio driver's
// devset waiter tally and the zeroing-bandwidth resource's busy integral
// are kept by the sim primitives themselves. Reading them costs no
// simulated time and no randomness, and installs no kernel probe:
// observing a host to schedule on it never perturbs it.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fastiov/internal/audit"
	"fastiov/internal/cluster"
	"fastiov/internal/cri"
	"fastiov/internal/fault"
	"fastiov/internal/metrics"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
	"fastiov/internal/trace"
)

// DefaultJitter spreads fleet arrivals over this window. Unlike the
// single-host burst (cluster.StartJitter), a fleet burst is spread wide
// enough that queue-depth signals have formed by the time later requests
// are placed — the regime where policy choice matters.
const DefaultJitter = 2 * time.Second

// MaxHosts bounds a fleet's host count: every layer above (serving, the
// experiment executor, the CLI) rejects a larger fleet before allocating
// per-host specs.
const MaxHosts = 10000

// schedStream is the PRNG stream index reserved for the scheduler (the
// random policy). Host i draws stream i; hosts are far below 2^32, so the
// streams never collide.
const schedStream = uint64(1) << 32

// Fleet-level instrument ids (registered when Config.Metrics is set).
const (
	MetricFleetInflight   = "fleet_startups_inflight"
	MetricFleetStarted    = "fleet_startups_started_total"
	MetricFleetFailed     = "fleet_startups_failed_total"
	MetricFleetRejected   = "fleet_startups_rejected_total"
	MetricFleetFreeVFs    = "fleet_free_vfs"
	MetricFleetQueueDepth = "fleet_devset_queue_depth"
)

// Scope returns host i's observability namespace: the prefix on every
// sim-primitive name the host creates inside the shared kernel.
func Scope(i int) string { return fmt.Sprintf("h%03d-", i) }

// HeterogeneousSpecs builds n host specs cycling through three machine
// profiles — the paper's full testbed, a half-size box, and a quarter-size
// edge box — varying exactly the capacities the VF-aware policy reasons
// about: VF population, cores, and zeroing-bandwidth streams.
func HeterogeneousSpecs(n int) []cluster.HostSpec {
	out := make([]cluster.HostSpec, n)
	for i := range out {
		spec := cluster.DefaultHostSpec()
		switch i % 3 {
		case 1:
			spec.NumVFs = 128
			spec.Cores = 64
			spec.Memory.ZeroStreams = 3
		case 2:
			spec.NumVFs = 64
			spec.Cores = 32
			spec.Memory.ZeroStreams = 2
		}
		out[i] = spec
	}
	return out
}

// Config selects one fleet run.
type Config struct {
	// Baseline names the cluster baseline every host boots with (§6.1).
	Baseline string
	// Policy names the placement policy (see Policies).
	Policy string
	// HostSpecs sizes each host; the fleet boots len(HostSpecs) machines.
	HostSpecs []cluster.HostSpec
	// Requests is the total number of container starts to place.
	Requests int
	// Seed drives the whole run: arrival jitter (a burst over
	// DefaultJitter), the random policy's draws, and each host's derived
	// fault-injection stream.
	Seed uint64
	// Faults attaches this plan to every host (each with its own derived
	// injector stream, so fault points fire independently per host).
	Faults *fault.Plan
	// Trace attaches ONE event-sourced tracer covering the whole shared
	// kernel; per-host critical paths are verified against each host's
	// telemetry. Never perturbs the run.
	Trace bool
	// Metrics attaches a fleet-level sampled registry (fleet gauges over
	// the per-host signals), sampled every metrics.DefaultCadence. Never
	// perturbs the run.
	Metrics bool
	// Audit stops every surviving sandbox after measurement and checks
	// conservation per host and fleet-wide (audit.Sum). Runs after all
	// measurement, consumes no randomness.
	Audit bool
	// RegisterMetrics, when Metrics is set, is invoked on the fleet's sampled
	// registry after the fleet instruments are registered and before the
	// sampler daemon starts — instruments registered later would misalign
	// with the sampled series. The serving control plane uses it to add its
	// admission-queue instruments so their series share the fleet's tick
	// grid. The hook must only register read-only instruments.
	RegisterMetrics func(*metrics.Registry)
	// OnPlace, when set, is invoked at every successful placement decision
	// instant — inside Dispatch, before the startup begins — with the
	// chosen host's state snapshot and the scheduler's score for it
	// (scored is false for policies that don't rank, e.g. random and
	// round-robin). It must be a read-only observer: no simulated time, no
	// PRNG, no substrate mutation. The journey recorder uses it to attach
	// (host, score) to the request's placement span at the exact decision
	// instant, which a post-hoc query could not reproduce once later
	// placements have moved the state.
	OnPlace func(at time.Duration, id int, st HostState, score float64, scored bool)
}

// Fleet is N booted hosts sharing one kernel, plus the scheduler and the
// per-host placement signals.
type Fleet struct {
	Cfg   Config
	K     *sim.Kernel
	Hosts []*cluster.Host
	// Tracer is the shared-kernel event stream (nil unless Cfg.Trace).
	Tracer *trace.Trace
	// Metrics is the fleet-level sampled registry (nil unless Cfg.Metrics).
	Metrics *metrics.Registry
	// Sched is the placement policy instance.
	Sched Scheduler

	// signals backs the scheduler's per-host queue-depth and membw
	// signals across crash generations (see hostSignal). They are read
	// from the primitives, so scheduled runs render identically whether or
	// not the sampled registry is attached.
	signals []hostSignal

	// Placement bookkeeping, maintained by Dispatch.
	inflight                                 []int
	placements                               []int
	totalInflight, started, failed, rejected int
	startupHist                              *metrics.Histogram
	// placeBuf is the host-state slice Dispatch refills for every Place
	// call.
	placeBuf []HostState

	// onPlace is the Config placement observer (nil when unset).
	onPlace func(at time.Duration, id int, st HostState, score float64, scored bool)

	// Measurement accumulators, maintained by Dispatch and drained by
	// Finish: per-start latencies, surviving sandboxes per host (for the
	// closing audit), and genuine (non-fault) errors.
	totals *stats.Sample
	live   [][]*cri.Sandbox
	errs   []error

	// baseOpts is the resolved baseline option set hosts boot with; recovery
	// re-boots a crashed host from it (failure.go).
	baseOpts cluster.Options

	// Failure-domain state (failure.go). Allocated only when the fault plan
	// carries host clauses — host-clause-free runs have none of this, so
	// they schedule the exact same kernel event sequence as before failure
	// domains existed.
	failuresOn                                       bool
	health                                           []Health
	down                                             []bool
	missed                                           []int
	generation                                       []int
	mtbf                                             []time.Duration
	lastCrash                                        []audit.Snapshot
	procs                                            []map[int]*sim.Proc
	ledger                                           audit.Ledger
	recoveries                                       []Recovery
	hostCrashes, daemonCrashes, lostStarts, lostPods int
}

// New boots the fleet: one shared kernel, the optional tracer first (so its
// stream covers host boot), then each host under its own scope and derived
// PRNG stream, and finally the optional sampled metrics registry and the
// scheduler.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.HostSpecs) == 0 {
		return nil, errors.New("fleet: no host specs")
	}
	if cfg.Requests <= 0 {
		return nil, errors.New("fleet: no requests")
	}
	base, err := cluster.OptionsFor(cfg.Baseline)
	if err != nil {
		return nil, err
	}

	f := &Fleet{Cfg: cfg, K: sim.NewKernel(cfg.Seed), totals: stats.NewSample(), baseOpts: base, onPlace: cfg.OnPlace}
	if cfg.Trace {
		f.Tracer = trace.Attach(f.K)
	}

	n := len(cfg.HostSpecs)
	f.Hosts = make([]*cluster.Host, n)
	f.signals = make([]hostSignal, n)
	f.inflight = make([]int, n)
	f.placements = make([]int, n)
	f.live = make([][]*cri.Sandbox, n)
	for i, spec := range cfg.HostSpecs {
		opts := base
		opts.Scope = Scope(i)
		opts.Seed = sim.SplitSeed(cfg.Seed, uint64(i))
		opts.Faults = cfg.Faults
		// The fleet owns observability and lifecycle: hosts must not install
		// their own tracer (trace.Attach overwrites the kernel probe) or
		// sampler, and the fleet tears sandboxes down itself when auditing.
		opts.Trace = false
		opts.Metrics = false
		opts.Audit = false
		h, err := cluster.NewHostOn(f.K, sim.NewRand(opts.Seed), spec, opts)
		if err != nil {
			return nil, fmt.Errorf("fleet: host %d: %w", i, err)
		}
		f.Hosts[i] = h
		f.signals[i].live = h
	}

	// Failure domains arm only for plans with host-scoped crash clauses:
	// the heartbeat monitor and crash injectors add kernel events, so
	// clause-free runs must not see them.
	if cfg.Faults.HasHostFaults() {
		if err := f.initFailureDomains(); err != nil {
			return nil, err
		}
	}

	if cfg.Metrics {
		f.Metrics = metrics.New(metrics.DefaultCadence)
		f.attachMetrics()
		if cfg.RegisterMetrics != nil {
			cfg.RegisterMetrics(f.Metrics)
		}
		f.Metrics.Start(f.K)
	}

	f.Sched, err = NewScheduler(cfg.Policy, sim.NewRand(sim.SplitSeed(cfg.Seed, schedStream)))
	if err != nil {
		return nil, err
	}
	return f, nil
}

// attachMetrics registers the fleet-level instruments.
func (f *Fleet) attachMetrics() {
	m := f.Metrics
	m.GaugeFunc(MetricFleetInflight, "container startups in progress fleet-wide", nil,
		func() float64 { return float64(f.totalInflight) })
	m.CounterFunc(MetricFleetStarted, "container startups placed fleet-wide", nil,
		func() float64 { return float64(f.started) })
	m.CounterFunc(MetricFleetFailed, "container startups lost to injected faults fleet-wide", nil,
		func() float64 { return float64(f.failed) })
	m.CounterFunc(MetricFleetRejected, "requests rejected by the scheduler (no host in capacity)", nil,
		func() float64 { return float64(f.rejected) })
	m.GaugeFunc(MetricFleetFreeVFs, "free VFs summed across hosts", nil,
		func() float64 {
			total := 0
			for _, h := range f.Hosts {
				total += h.NIC.FreeVFs()
			}
			return float64(total)
		})
	m.GaugeFunc(MetricFleetQueueDepth, "vfio devset lock waiters summed across hosts", nil,
		func() float64 { return float64(f.DevsetWaiters()) })
	f.startupHist = m.NewHistogram("fleet_startup_seconds", "end-to-end container startup latency fleet-wide", nil,
		[]float64{0.25, 0.5, 1, 2, 4, 8, 16, 32})
}

// States snapshots every host's scheduler view at the current instant.
// Pure observation: live substrate reads, no simulated time, no PRNG
// draws.
func (f *Fleet) States() []HostState {
	return f.fillStates(make([]HostState, len(f.Hosts)))
}

// fillStates writes every host's state into out, which must hold one slot
// per host, and returns it.
func (f *Fleet) fillStates(out []HostState) []HostState {
	for i := range f.Hosts {
		out[i] = f.state(i)
	}
	return out
}

// state is host i's scheduler view (see States).
func (f *Fleet) state(i int) HostState {
	h := f.Hosts[i]
	depth, _, busy := f.signals[i].read()
	st := HostState{
		Index:      i,
		CapVFs:     h.Spec.NumVFs,
		FreeVFs:    h.NIC.FreeVFs(),
		Inflight:   f.inflight[i],
		QueueDepth: depth,
		MembwBusy:  busy,
	}
	if f.health != nil {
		st.Health = f.health[i]
	}
	return st
}

// Inflight returns the number of container starts currently in progress
// fleet-wide. Pure observation, like States.
func (f *Fleet) Inflight() int { return f.totalInflight }

// FreeVFHeadroom sums each host's positive placement headroom (free VFs
// minus committed work, see HostState.Headroom) — the fleet's remaining
// admission capacity in VF terms. Zero means no host is eligible right now.
func (f *Fleet) FreeVFHeadroom() int {
	total := 0
	for i := range f.Hosts {
		st := f.state(i)
		if st.Health != HealthUp {
			// A crashed or recovering host contributes no admission capacity:
			// this is how the serving layer's admission control sees the
			// fleet shrink the moment the heartbeat monitor flags an outage.
			continue
		}
		if h := st.Headroom(); h > 0 {
			total += h
		}
	}
	return total
}

// DevsetWaiters sums the current vfio devset lock queue depth across hosts —
// the paper's §3.2 serialization signal, fleet-wide.
func (f *Fleet) DevsetWaiters() int {
	total := 0
	for i := range f.signals {
		depth, _, _ := f.signals[i].read()
		total += depth
	}
	return total
}

// MembwBusyTotal sums every host's zeroing-bandwidth busy integral so far.
func (f *Fleet) MembwBusyTotal() time.Duration {
	var total time.Duration
	for i := range f.signals {
		_, _, busy := f.signals[i].read()
		total += busy
	}
	return total
}

// hostSignal reads one host's saturation signals across crash generations:
// the live generation's vfio devset waiter tally and zeroing-bandwidth
// busy integral, plus what dead generations left behind. A crash banks the
// dead generation's integral extended to the crash instant and keeps its
// peak; its depth stops counting, since killed waiters never get the
// handoff that would dequeue them. The recovered generation is counted
// from the moment it boots, before it returns to service.
type hostSignal struct {
	live     *cluster.Host // nil from a crash until the next generation boots
	deadBusy time.Duration
	deadPeak int
}

// read returns the live generation's devset queue depth, the deepest
// queue any generation reached, and the membw busy integral over every
// generation (the live one through its last change).
func (s *hostSignal) read() (depth, peak int, busy time.Duration) {
	peak, busy = s.deadPeak, s.deadBusy
	if s.live != nil {
		w := s.live.VFIO.DevsetWaits()
		depth, peak = w.Depth(), max(peak, w.Peak())
		busy += s.live.Mem.Bandwidth().Busy()
	}
	return depth, peak, busy
}

// crash retires the live generation at instant at.
func (s *hostSignal) crash(at time.Duration) {
	_, s.deadPeak, _ = s.read()
	s.deadBusy += s.live.Mem.Bandwidth().BusyAt(at)
	s.live = nil
}

// Result carries one fleet run's outcome.
type Result struct {
	Baseline string
	Policy   string
	Hosts    int
	Requests int

	// Totals samples end-to-end startup time across every successful start,
	// fleet-wide.
	Totals *stats.Sample
	// Placements[i] counts starts placed on host i; QueuePeaks[i] and
	// MembwBusy[i] are host i's devset-queue peak and membw busy integral
	// over the measured phase.
	Placements []int
	QueuePeaks []int
	MembwBusy  []time.Duration

	Started  int
	Failed   int
	Rejected int

	// Failure-domain accounting (all zero/nil on host-clause-free plans).
	// HostCrashes and DaemonCrashes count clause firings; LostStarts counts
	// dispatches that hit a dead host inside the detection window;
	// LostPods counts live pods destroyed by crashes; Recoveries records
	// each completed host recovery with its readiness delay.
	HostCrashes   int
	DaemonCrashes int
	LostStarts    int
	LostPods      int
	Recoveries    []Recovery
	// Ledger is the LostToCrash ledger: one entry per dead host generation
	// (nil when no host crashed). Leaks already accounts for it — see
	// Finish.
	Ledger *audit.Ledger

	// PerHost holds each host's conservation report and Leaks the
	// fleet-wide aggregate (sum of baselines vs sum of finals); both nil
	// unless Config.Audit. Under host crashes the aggregate is ledger-
	// adjusted: dead generations contribute their crash snapshots and lost
	// state explicitly, so Leaks still closes to zero when the surviving
	// generations are clean.
	PerHost []*audit.Report
	Leaks   *audit.Report

	// Trace and Metrics carry the shared tracer and the sealed fleet
	// registry when attached.
	Trace   *trace.Trace
	Metrics *metrics.Registry
	// FaultStats merges every host's injector counters by site (nil for
	// fault-free fleets).
	FaultStats []fault.SiteStat
	Err        error
}

// PlacementSpread is max minus min per-host placements: 0 means perfectly
// even, large means the policy piled requests onto few hosts.
func (r *Result) PlacementSpread() int {
	if len(r.Placements) == 0 {
		return 0
	}
	lo, hi := r.Placements[0], r.Placements[0]
	for _, p := range r.Placements[1:] {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return hi - lo
}

// MaxQueuePeak is the deepest devset queue any host saw.
func (r *Result) MaxQueuePeak() int {
	max := 0
	for _, q := range r.QueuePeaks {
		if q > max {
			max = q
		}
	}
	return max
}

// MaxRecovery is the longest readiness delay any host recovery paid —
// the availability experiment's headline number per baseline (vanilla's
// full-pool re-zeroing cliff vs FastIOV's near-flat reload).
func (r *Result) MaxRecovery() time.Duration {
	var max time.Duration
	for _, rec := range r.Recoveries {
		if rec.Took > max {
			max = rec.Took
		}
	}
	return max
}

// CleanPerHost reports whether every per-host audit came back clean (false
// when unaudited).
func (r *Result) CleanPerHost() bool {
	if r.PerHost == nil {
		return false
	}
	for _, rep := range r.PerHost {
		if !rep.Clean() {
			return false
		}
	}
	return true
}

// Canonical serializes everything the simulation decides — placements, queue
// peaks, busy integrals, per-start totals, failure accounting — but none of
// the attached observers' digests. Runs with trace, metrics, or audit
// attached must produce byte-identical Canonical output to unattached runs:
// this is the fleet's observer-transparency contract, and the tests diff it
// directly.
func (r *Result) Canonical() []byte {
	b := fmt.Appendf(nil, "fleet b=%s policy=%s hosts=%d requests=%d\n",
		r.Baseline, r.Policy, r.Hosts, r.Requests)
	b = fmt.Appendf(b, "started %d failed %d rejected %d\n", r.Started, r.Failed, r.Rejected)
	for i := range r.Placements {
		b = fmt.Appendf(b, "host %d placed=%d qpeak=%d membw=%d\n",
			i, r.Placements[i], r.QueuePeaks[i], r.MembwBusy[i])
	}
	for _, d := range r.Totals.Values() {
		b = fmt.Appendf(b, "total %d\n", d)
	}
	if r.FaultStats != nil {
		for _, st := range r.FaultStats {
			b = fmt.Appendf(b, "fault %s occ=%d inj=%d\n", st.Site, st.Occurrences, st.Injected)
		}
	}
	// Failure-domain lines render only when a crash actually fired, keeping
	// clause-free output byte-identical to pre-failure-domain builds.
	if r.HostCrashes > 0 || r.DaemonCrashes > 0 {
		b = fmt.Appendf(b, "crashes host=%d daemon=%d lost-starts=%d lost-pods=%d\n",
			r.HostCrashes, r.DaemonCrashes, r.LostStarts, r.LostPods)
		for _, rec := range r.Recoveries {
			b = fmt.Appendf(b, "recover host=%d gen=%d at=%d took=%d\n",
				rec.Host, rec.Generation, rec.At, rec.Took)
		}
	}
	return b
}

// Fingerprint extends Canonical with the audit outcome and the observers'
// digests — everything a determinism double-run must reproduce exactly.
// Conditional lines keep an unattached fingerprint byte-identical to its
// pre-observer encoding (the same convention as the startup harness).
func (r *Result) Fingerprint() []byte {
	b := r.Canonical()
	if r.Leaks != nil {
		b = fmt.Appendf(b, "leaks %d\n", r.Leaks.Count())
		for _, l := range r.Leaks.Leaks {
			b = fmt.Appendf(b, "leak %s %d %d\n", l.Resource, l.Before, l.After)
		}
	}
	if r.Ledger.Len() > 0 {
		for _, e := range r.Ledger.Entries {
			b = fmt.Appendf(b, "lost host=%d gen=%d at=%d %+v\n", e.Host, e.Generation, e.At, e.Lost())
		}
	}
	if r.Trace != nil {
		b = fmt.Appendf(b, "trace events=%d fp=%016x\n", r.Trace.Len(), r.Trace.Fingerprint())
	}
	if r.Metrics != nil {
		b = fmt.Appendf(b, "metrics samples=%d fp=%016x\n", r.Metrics.Samples(), r.Metrics.Fingerprint())
	}
	return b
}

// Dispatch places one container start onto the fleet at the current
// instant: it snapshots every host's state, asks the policy for a
// placement, and — when a host is in capacity — runs the full startup
// there, maintaining the in-flight counts, placement tallies, the
// fleet-wide latency sample, and the surviving-sandbox list the closing
// audit tears down. host is -1 when the policy rejected placement (no
// state changed; err carries the reject reason, ErrAllHostsDown or
// ErrNoCapacity); host >= 0 with ErrHostDown means the placement landed on
// a host that crashed inside the heartbeat detection window — the start is
// lost, not begun (the serving layer reroutes these). Otherwise took is
// the end-to-end startup time and err the startup outcome (fault failures
// are counted on the fleet, genuine errors recorded and surfaced from
// Finish). Dispatch is the hook the serving control plane drives; Run
// places every request through it.
func (f *Fleet) Dispatch(p *sim.Proc, id int) (host int, sb *cri.Sandbox, took time.Duration, err error) {
	if f.placeBuf == nil {
		f.placeBuf = make([]HostState, len(f.Hosts))
	}
	states := f.fillStates(f.placeBuf)
	pick, perr := f.Sched.Place(states)
	if perr != nil || pick < 0 || pick >= len(f.Hosts) {
		return -1, nil, 0, perr
	}
	if f.onPlace != nil {
		score, scored := 0.0, false
		if sc, ok := f.Sched.(Scorer); ok {
			score, scored = sc.Score(states[pick]), true
		}
		f.onPlace(time.Duration(p.Now()), id, states[pick], score, scored)
	}
	if f.down != nil && f.down[pick] {
		// Detection window: the heartbeat view still says up but the host is
		// already dead. The dispatch is lost to the crash.
		f.lostStarts++
		return pick, nil, 0, ErrHostDown
	}
	f.started++
	f.placements[pick]++
	f.inflight[pick]++
	f.totalInflight++
	// Deferred (not inline after StartOne) so the count stays right when a
	// host crash kills this proc mid-start.
	defer func() {
		f.inflight[pick]--
		f.totalInflight--
	}()
	if f.procs != nil {
		f.trackStart(pick, p)
		defer f.untrackStart(pick, p)
	}
	began := p.Now()
	sb, err = f.Hosts[pick].StartOne(p, id)
	if err != nil {
		if fault.IsFault(err) {
			f.failed++
		} else {
			f.errs = append(f.errs, err)
		}
		return pick, nil, 0, err
	}
	took = time.Duration(p.Now() - began)
	f.totals.Add(took)
	if f.startupHist != nil {
		f.startupHist.Observe(took.Seconds())
	}
	f.live[pick] = append(f.live[pick], sb)
	return pick, sb, took, nil
}

// Release stops a sandbox started through Dispatch before the closing
// audit, modeling pod churn: the serving control plane retires each pod
// after its lifetime, returning its VF, pages, and mappings to the host
// mid-run (the live-host attach/detach regime). The sandbox leaves the
// surviving list, so the closing audit only tears down pods still live at
// the end; stop errors are recorded and surface from Finish.
func (f *Fleet) Release(p *sim.Proc, host int, sb *cri.Sandbox) {
	sbs := f.live[host]
	for i, s := range sbs {
		if s == sb {
			f.live[host] = append(sbs[:i], sbs[i+1:]...)
			f.stop(p, host, sb)
			return
		}
	}
	// Not on the live list: the pod was destroyed by a host crash (its loss
	// is on the ledger) and the host — possibly a fresh generation by now —
	// has nothing to release.
}

// stop tears down a released sandbox, recording a stop error. Outside
// Release's loop, so its defer costs no allocation.
func (f *Fleet) stop(p *sim.Proc, host int, sb *cri.Sandbox) {
	if f.procs != nil {
		// A teardown in flight joins the host's kill set: if the host
		// crashes mid-stop, this proc must die with the lock holders it
		// shares the devset with, or it blocks forever on a handoff the
		// crash stranded. Whatever the teardown had not yet returned lands
		// on the LostToCrash ledger.
		f.trackStart(host, p)
		defer f.untrackStart(host, p)
	}
	if err := f.Hosts[host].Eng.StopPodSandbox(p, sb); err != nil {
		f.errs = append(f.errs, err)
	}
}

// Run places Cfg.Requests container starts across the fleet and runs the
// shared kernel to quiescence. Each request is one proc: at its arrival
// instant it dispatches through the scheduler (or counts a rejection when
// no host is in capacity), then Finish seals observers and audits.
func (f *Fleet) Run() *Result {
	cfg := f.Cfg
	arrivals := make([]time.Duration, cfg.Requests)
	f.K.Rand().Durations(arrivals, DefaultJitter)
	for i := 0; i < cfg.Requests; i++ {
		id := i
		at := f.K.Now() + arrivals[i]
		f.K.GoAtName(at, sim.DecimalName("ctr-", id), func(p *sim.Proc) {
			if host, _, _, _ := f.Dispatch(p, id); host < 0 {
				f.rejected++
			}
		})
	}
	f.K.Run()
	return f.Finish()
}

// Finish seals the run after the kernel has quiesced: it seals the sampled
// registry, snapshots the counters and per-host signals, verifies per-host
// critical paths on traced runs, and — when auditing — stops every
// surviving sandbox and diffs conservation counters per host and
// fleet-wide. Callers driving Dispatch directly (the serving control
// plane) call it once after their own kernel run.
func (f *Fleet) Finish() *Result {
	cfg := f.Cfg
	res := &Result{
		Baseline: cfg.Baseline,
		Policy:   cfg.Policy,
		Hosts:    len(f.Hosts),
		Requests: cfg.Requests,
	}
	totals := f.totals
	live := f.live
	errs := f.errs

	if f.Metrics != nil {
		f.Metrics.Seal(f.K.Now())
		res.Metrics = f.Metrics
	}
	res.Started = f.started
	res.Failed = f.failed
	res.Rejected = f.rejected
	res.HostCrashes = f.hostCrashes
	res.DaemonCrashes = f.daemonCrashes
	res.LostStarts = f.lostStarts
	res.LostPods = f.lostPods
	res.Recoveries = append([]Recovery(nil), f.recoveries...)
	if f.ledger.Len() > 0 {
		res.Ledger = &f.ledger
	}
	res.Placements = append([]int(nil), f.placements...)
	res.QueuePeaks = make([]int, len(f.Hosts))
	res.MembwBusy = make([]time.Duration, len(f.Hosts))
	for i := range f.signals {
		_, res.QueuePeaks[i], res.MembwBusy[i] = f.signals[i].read()
	}
	res.Trace = f.Tracer

	// Per-host critical-path verification against the shared trace: one
	// Analyze pass over the whole stream, then each host's recorder binds
	// its own container ids (fleet ids are globally unique, so no two
	// hosts' "ctr-<id>" procs bind the same container).
	if f.Tracer != nil {
		a, err := trace.Analyze(f.Tracer)
		if err != nil {
			errs = append(errs, err)
		} else {
			for i, h := range f.Hosts {
				if _, err := a.CriticalPaths(h.Rec); err != nil {
					errs = append(errs, fmt.Errorf("fleet: host %d critical paths: %w", i, err))
				}
			}
		}
	}

	if cfg.Audit {
		// Detach the tracer before teardown so the trace stream covers
		// exactly the measured phase — audited runs stay byte-identical to
		// unaudited ones. The signals were read above and the registry is
		// sealed.
		f.K.SetProbe(nil)
		for hi, sbs := range live {
			h := f.Hosts[hi]
			for _, sb := range sbs {
				sb := sb
				f.K.GoAtName(f.K.Now(), sim.DecimalName("stop-", sb.ID), func(p *sim.Proc) {
					if err := h.Eng.StopPodSandbox(p, sb); err != nil {
						errs = append(errs, err)
					}
				})
			}
		}
		f.K.Run()
		baselines := make([]audit.Snapshot, len(f.Hosts))
		finals := make([]audit.Snapshot, len(f.Hosts))
		res.PerHost = make([]*audit.Report, len(f.Hosts))
		for i, h := range f.Hosts {
			baselines[i] = h.Baseline
			if f.down != nil && f.down[i] {
				// A host that died and never recovered: the ledger owns its
				// boot-to-crash delta, and nothing moved after the crash, so
				// the per-host report diffs the crash snapshot against now —
				// clean exactly when the corpse was left untouched.
				baselines[i] = f.lastCrash[i]
			}
			finals[i] = h.AuditSnapshot()
			res.PerHost[i] = audit.NewReport(baselines[i], finals[i])
		}
		base := audit.Sum(baselines...)
		fin := audit.Sum(finals...)
		if f.ledger.Len() > 0 {
			// Ledger-adjusted conservation: every dead generation's boot
			// baseline joins the "before" side, and its crash snapshot plus
			// the explicitly-lost delta join the "after" side. Base equals
			// AtCrash + Lost per entry, so the fleet-wide report closes to
			// zero iff the surviving generations leak nothing.
			base = audit.Sum(base, f.ledger.BaseTotal())
			fin = audit.Sum(fin, f.ledger.AtCrashTotal(), f.ledger.LostTotal())
		}
		res.Leaks = audit.NewReport(base, fin)
	}

	res.FaultStats = mergeFaultStats(f.Hosts)
	res.Err = errors.Join(errs...)
	totals.Sort()
	res.Totals = totals
	return res
}

// mergeFaultStats sums every host's per-site injector counters (sites are
// un-scoped names, identical across hosts). Nil when every host ran
// fault-free, matching the single-host convention.
func mergeFaultStats(hosts []*cluster.Host) []fault.SiteStat {
	merged := make(map[fault.Site]fault.SiteStat)
	any := false
	for _, h := range hosts {
		for _, st := range h.Faults.Snapshot() {
			any = true
			m := merged[st.Site]
			m.Site = st.Site
			m.Occurrences += st.Occurrences
			m.Injected += st.Injected
			merged[st.Site] = m
		}
	}
	if !any {
		return nil
	}
	out := make([]fault.SiteStat, 0, len(merged))
	for _, st := range merged {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Run is the one-call fleet experiment: boot under cfg, place, measure.
func Run(cfg Config) (*Result, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	res := f.Run()
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}
