// Package cluster assembles complete simulated hosts — CPU pool, memory,
// PCI topology, NIC, VFIO, KVM, fastiovd, CNI plugin, container engine —
// and runs the concurrent-startup experiments of the paper's evaluation.
//
// A Host mirrors the paper's testbed (§3.1): two Xeon 6348 sockets
// (56 cores / 112 threads), 256 GB DDR4-3200, and a 25 GbE Intel E810 with
// 256 VFs. Baselines (§6.1) are expressed as Options combinations.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fastiov/internal/audit"
	"fastiov/internal/cni"
	"fastiov/internal/cost"
	"fastiov/internal/cri"
	"fastiov/internal/fastiovd"
	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/hypervisor"
	"fastiov/internal/iommu"
	"fastiov/internal/kvm"
	"fastiov/internal/metrics"
	"fastiov/internal/nic"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
	"fastiov/internal/telemetry"
	"fastiov/internal/trace"
	"fastiov/internal/vfio"
)

// NetworkMode selects the sandbox networking path.
type NetworkMode uint8

const (
	// NetNone starts sandboxes without networking (the No-Net baseline).
	NetNone NetworkMode = iota
	// NetSRIOV uses SR-IOV passthrough.
	NetSRIOV
	// NetIPvtap uses the software CNI baseline.
	NetIPvtap
)

// HostSpec sizes the simulated machine.
type HostSpec struct {
	Cores  int64
	Memory hostmem.Config
	NIC    nic.Config
	NumVFs int
}

// DefaultHostSpec mirrors the paper's testbed.
func DefaultHostSpec() HostSpec {
	return HostSpec{
		Cores:  112,
		Memory: hostmem.DefaultConfig(),
		NIC:    nic.DefaultConfig(),
		NumVFs: 256,
	}
}

// validate rejects specs the substrates cannot be built from.
func (s HostSpec) validate() error {
	switch {
	case s.Cores <= 0:
		return fmt.Errorf("cluster: host needs a positive core count, got %d", s.Cores)
	case s.NumVFs < 0:
		return fmt.Errorf("cluster: negative VF count %d", s.NumVFs)
	case s.NIC.MaxVFs <= 0:
		return fmt.Errorf("cluster: NIC %q needs a positive VF limit, got %d", s.NIC.Name, s.NIC.MaxVFs)
	case s.Memory.PageSize <= 0 || s.Memory.TotalBytes < s.Memory.PageSize:
		return fmt.Errorf("cluster: invalid memory geometry: %d bytes in %d-byte pages", s.Memory.TotalBytes, s.Memory.PageSize)
	case s.Memory.ZeroStreams <= 0:
		return fmt.Errorf("cluster: memory needs a positive zeroing stream count, got %d", s.Memory.ZeroStreams)
	}
	return nil
}

// Options selects the networking mode, the four FastIOV optimization
// switches (§4), and baseline behaviours.
type Options struct {
	Name    string
	Network NetworkMode

	// Scope prefixes every sim-primitive name the host creates (zone lock,
	// membw resource, vfio devset/device locks, rtnl, cgroup, irq-routing,
	// cpu, the NIC link). Fleets booting many hosts into one shared kernel
	// give each host a unique scope (e.g. "h003-") so name-matching
	// observers — trace contention profiles — attribute events to the
	// right host. The empty default keeps every historical name, so
	// single-host runs are byte-identical.
	Scope string

	// The four FastIOV optimizations (§6.1's ablation removes them one at
	// a time).
	LockDecomposition bool // L: parent-child devset locking
	AsyncVFInit       bool // A: asynchronous VF driver initialization
	SkipImageMap      bool // S: skip image-region DMA mapping
	LazyZeroing       bool // D: decoupled (lazy) zeroing via fastiovd

	// RebindFlaw enables the upstream SR-IOV CNI's per-start driver
	// rebinding (§5); all evaluation baselines have it fixed.
	RebindFlaw bool

	// VDPA routes the control plane through vhost-vdpa instead of VFIO
	// device open (§7's future-work direction).
	VDPA bool

	// DisableScrubber turns off fastiovd's background zeroing thread
	// (ablation: first touches then carry the whole deferred cost).
	DisableScrubber bool

	// PreZeroFraction pre-zeroes this fraction of free memory at boot
	// (the HawkEye-style Pre10/Pre50/Pre100 baselines).
	PreZeroFraction float64

	// Layout is the per-container guest memory geometry.
	Layout hypervisor.Layout

	// Costs is the host's calibration; every substrate charges it through
	// a pointer to the host's copy.
	Costs cost.Model

	// Seed drives start-time jitter.
	Seed uint64
	// Arrival selects the invocation arrival process (default: a burst
	// within StartJitter).
	Arrival Arrival

	// Trace attaches an event-sourced tracer to the simulation kernel,
	// recording lock waits, holds, and wake-up causality (internal/trace).
	// Tracing never perturbs the simulation: virtual timings and rendered
	// results are byte-identical with it on or off.
	Trace bool

	// Metrics attaches the simulated-time metrics registry: every substrate
	// is instrumented and a sampler proc snapshots all instruments each
	// metrics.DefaultCadence of simulated time (internal/metrics). Like
	// tracing, metrics never perturb the simulation: virtual timings and
	// rendered results are byte-identical with it on or off.
	Metrics bool

	// Faults attaches a deterministic fault-injection plan to every
	// substrate of the host. A nil or all-zero plan builds no injector and
	// leaves every code path byte-identical to a fault-free run. The
	// startup path retries injected faults under fault.DefaultPolicy.
	Faults *fault.Plan

	// Audit makes StartupExperiment stop every surviving sandbox after
	// measurement and diff the host's conservation counters against the
	// boot-time baseline, populating Result.Leaks. The teardown runs after
	// every telemetry mark and consumes no randomness, so measured results
	// are byte-identical with auditing on or off. Off by default because
	// callers that manage sandbox lifetimes themselves (serverless
	// completions, explicit StopPodSandbox tests) must not double-free.
	Audit bool
}

// StartJitter is the max random offset between container invocations in
// the paper's burst ("over 200 container invocation requests can arrive
// nearly simultaneously", §1).
const StartJitter = 50 * time.Millisecond

// ArrivalKind names an invocation arrival process.
type ArrivalKind uint8

const (
	// ArrivalBurst models the paper's production statistic: all requests
	// arrive nearly simultaneously, within StartJitter.
	ArrivalBurst ArrivalKind = iota
	// ArrivalPoisson models a memoryless request stream at RatePerSec.
	ArrivalPoisson
	// ArrivalUniform spreads requests evenly over Window.
	ArrivalUniform
)

// Arrival parameterizes the invocation arrival process.
type Arrival struct {
	Kind       ArrivalKind
	RatePerSec float64       // Poisson intensity
	Window     time.Duration // uniform spread
}

// times generates n arrival offsets under the configured process, drawing
// from the given PRNG stream.
func (a Arrival) times(rng *sim.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	switch a.Kind {
	case ArrivalPoisson:
		rate := a.RatePerSec
		if rate <= 0 {
			rate = 100
		}
		t := 0.0
		for i := 0; i < n; i++ {
			// Exponential inter-arrival: -ln(U)/rate.
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			t += -math.Log(u) / rate
			out[i] = time.Duration(t * float64(time.Second))
		}
	case ArrivalUniform:
		w := a.Window
		if w <= 0 {
			w = 10 * time.Second
		}
		if n > 1 {
			for i := 0; i < n; i++ {
				out[i] = time.Duration(int64(w) * int64(i) / int64(n-1))
			}
		}
	default: // burst
		// Batched draws: identical stream positions to n sequential
		// rng.Duration calls, without per-call overhead.
		rng.Durations(out, StartJitter)
	}
	return out
}

// Baseline names, matching §6.1.
const (
	BaselineNoNet    = "no-net"
	BaselineVanilla  = "vanilla"
	BaselineRebind   = "vanilla-rebind"
	BaselineFastIOV  = "fastiov"
	BaselineFastIOVL = "fastiov-L"
	BaselineFastIOVA = "fastiov-A"
	BaselineFastIOVS = "fastiov-S"
	BaselineFastIOVD = "fastiov-D"
	BaselinePre10    = "pre10"
	BaselinePre50    = "pre50"
	BaselinePre100   = "pre100"
	BaselineIPvtap   = "ipvtap"
	// BaselineVDPA is not part of Fig. 11; it drives the §7 future-work
	// investigation (vanilla zeroing + vhost-vdpa control plane).
	BaselineVDPA = "vdpa"
)

// Baselines lists every configuration of Fig. 11 in presentation order.
func Baselines() []string {
	return []string{
		BaselineNoNet, BaselineVanilla,
		BaselineFastIOVL, BaselineFastIOVA, BaselineFastIOVS, BaselineFastIOVD,
		BaselinePre10, BaselinePre50, BaselinePre100,
		BaselineFastIOV,
	}
}

// OptionsFor returns the Options for a named baseline.
func OptionsFor(name string) (Options, error) {
	o := Options{
		Name:    name,
		Network: NetSRIOV,
		Layout:  hypervisor.DefaultLayout(),
		Costs:   cost.Default(),
		Seed:    1,
	}
	all := func() {
		o.LockDecomposition = true
		o.AsyncVFInit = true
		o.SkipImageMap = true
		o.LazyZeroing = true
	}
	switch name {
	case BaselineNoNet:
		o.Network = NetNone
	case BaselineVanilla:
	case BaselineRebind:
		o.RebindFlaw = true
	case BaselineFastIOV:
		all()
	case BaselineFastIOVL:
		all()
		o.LockDecomposition = false
	case BaselineFastIOVA:
		all()
		o.AsyncVFInit = false
	case BaselineFastIOVS:
		all()
		o.SkipImageMap = false
	case BaselineFastIOVD:
		all()
		o.LazyZeroing = false
	case BaselinePre10:
		o.PreZeroFraction = 0.10
	case BaselinePre50:
		o.PreZeroFraction = 0.50
	case BaselinePre100:
		o.PreZeroFraction = 1.00
	case BaselineIPvtap:
		o.Network = NetIPvtap
	case BaselineVDPA:
		o.VDPA = true
	default:
		return Options{}, fmt.Errorf("cluster: unknown baseline %q", name)
	}
	return o, nil
}

// Host is one fully wired machine.
type Host struct {
	K    *sim.Kernel
	Spec HostSpec
	Opts Options

	Mem  *hostmem.Allocator
	Topo *pci.Topology
	NIC  *nic.NIC
	MMU  *iommu.IOMMU
	VFIO *vfio.Driver
	KVM  *kvm.KVM
	Lazy *fastiovd.Module // nil unless LazyZeroing
	CPU  *sim.Resource
	Env  *hypervisor.Env
	Eng  *cri.Engine
	Rec  *telemetry.Recorder
	// Tracer records the kernel's probe stream (nil unless Opts.Trace).
	Tracer *trace.Trace
	// Metrics is the host's instrument registry (nil unless Opts.Metrics).
	// It is sealed at the end of the first measured wave.
	Metrics *metrics.Registry
	// Faults is the host-wide injector (nil when Opts.Faults is empty).
	Faults *fault.Injector

	// Baseline is the conservation-counter snapshot taken right after host
	// boot — the reference every leak audit diffs against.
	Baseline audit.Snapshot

	RTNL       *sim.Mutex
	CgroupLock *sim.Mutex
	IrqLock    *sim.Mutex

	// wave counts container lifecycle transitions for the cluster gauges;
	// pure bookkeeping, maintained whether or not metrics are attached.
	wave struct {
		inflight int
		started  int
		failed   int
	}
	// startupHist is the cluster_startup_seconds histogram (nil unless
	// metrics are attached).
	startupHist *metrics.Histogram
}

// auditSystem bundles the host's substrates for conservation snapshots.
func (h *Host) auditSystem() audit.System {
	return audit.System{
		NIC: h.NIC, Mem: h.Mem, MMU: h.MMU, VFIO: h.VFIO,
		KVM: h.KVM, Lazy: h.Lazy, Env: h.Env,
	}
}

// AuditSnapshot captures the host's current conservation counters.
func (h *Host) AuditSnapshot() audit.Snapshot { return audit.Capture(h.auditSystem()) }

// RecoveryCost models the readiness delay a freshly rebooted host pays
// before it can serve again, given lostTracked — the number of lazily
// tracked pages the dead generation's fastiovd lost. This is the paper's
// recovery asymmetry: a vanilla host cannot trust any VF left behind by
// the crashed generation and must reset and re-zero the whole pool
// serially (NumVFs function-level resets — the recovery-time cliff at 256
// VFs), while a FastIOV host reloads fastiovd, conservatively re-registers
// the lost scrub tracking (one bookkeeping insert per lost page), and
// pushes the pool re-zeroing off the readiness path onto the background
// scrubber — a near-flat curve in the VF count.
func (h *Host) RecoveryCost(lostTracked int) time.Duration {
	c := h.Mem.Costs()
	if h.Opts.LazyZeroing {
		reload := c.DeviceReset // module reload + one sanity FLR
		return reload + time.Duration(lostTracked)*c.RegisterCostPerPage
	}
	return time.Duration(h.Spec.NumVFs) * c.DeviceReset
}

// NewHost boots a machine: creates the hardware, pre-creates the VFs, and
// binds them to the driver the configuration requires (vfio-pci once at
// boot for the fixed CNIs; unbound for the flawed rebinding CNI). The host
// owns a private kernel and a PRNG stream seeded from Options.Seed; to boot
// several hosts into one shared kernel use NewHostOn.
func NewHost(spec HostSpec, opts Options) (*Host, error) {
	return NewHostOn(sim.NewKernel(), sim.NewRand(opts.Seed), spec, opts)
}

// NewHostOn boots a machine onto an externally owned kernel and PRNG
// stream rng, from which the host draws its arrival jitter and its guests'
// readiness-poll delays (Env.Rand). This is the re-enterable constructor
// beneath NewHost: a fleet boots N hosts into one shared kernel, each under
// a unique Options.Scope so the hosts' events interleave deterministically.
// A fleet hands every host the same fleet stream, so hosts do share random
// state: all of a fleet's guests draw from one sequence. With a fresh kernel,
// sim.NewRand(opts.Seed) and an empty Scope the boot is exactly NewHost.
func NewHostOn(k *sim.Kernel, rng *sim.Rand, spec HostSpec, opts Options) (*Host, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if err := opts.Costs.Validate(); err != nil {
		return nil, err
	}
	if opts.Scope != "" {
		// Scope the NIC too: its link resource (and the VF names derived
		// from the card name) must be host-unique under a shared kernel
		// for the same reason the locks are.
		spec.NIC.Name = opts.Scope + spec.NIC.Name
	}
	h := &Host{
		K:          k,
		Spec:       spec,
		Opts:       opts,
		Topo:       pci.NewTopology(),
		CPU:        sim.NewResource(opts.Scope+"cpu", spec.Cores),
		Rec:        telemetry.NewRecorder(),
		RTNL:       sim.NewMutex(opts.Scope + "rtnl"),
		CgroupLock: sim.NewMutex(opts.Scope + "cgroup"),
		IrqLock:    sim.NewMutex(opts.Scope + "irq-routing"),
	}
	// The host's one cost model is the allocator's copy: every other
	// substrate charges through c.
	h.Mem = hostmem.NewScoped(k, spec.Memory, opts.Costs, opts.Scope)
	c := h.Mem.Costs()
	// The tracer attaches before any simulated work (including boot-time
	// VF binding) so the stream covers the full execution.
	if opts.Trace {
		h.Tracer = trace.Attach(k)
	}
	// Fault injection: one injector per host, derived from the run seed,
	// threaded into every substrate before any simulated work runs. Empty
	// plans yield a nil injector, which every consumer treats as free.
	h.Faults = fault.NewInjector(opts.Seed, opts.Faults)
	pol := fault.DefaultPolicy()
	h.Mem.Faults = h.Faults

	h.MMU = iommu.New(k, h.Mem.PageSize(), c)
	h.MMU.Faults = h.Faults
	h.NIC = nic.New(k, h.Topo, spec.NIC, c)
	if err := h.NIC.CreateVFs(spec.NumVFs, h.Topo); err != nil {
		return nil, err
	}
	mode := vfio.LockGlobal
	if opts.LockDecomposition {
		mode = vfio.LockParentChild
	}
	h.VFIO = vfio.New(k, h.Topo, h.Mem, h.MMU, mode, c)
	h.VFIO.Scope = opts.Scope
	h.VFIO.Faults = h.Faults
	h.VFIO.Retry = pol
	h.KVM = kvm.New(k, h.Mem, c)
	if opts.LazyZeroing {
		h.Lazy = fastiovd.New(k, h.Mem, c)
		h.Lazy.Faults = h.Faults
		h.KVM.Hook = h.Lazy
		if !opts.DisableScrubber {
			h.Lazy.StartScrubber(c.ScrubInterval, c.ScrubPagesPerPass)
		}
	}
	if opts.PreZeroFraction > 0 {
		h.Mem.PreZero(opts.PreZeroFraction)
	}

	// Bind the pre-created VFs (§5): the fixed CNIs bind vfio-pci exactly
	// once at host boot; the flawed CNI leaves VFs unbound and rebinds on
	// every container start.
	if opts.Network == NetSRIOV && !opts.RebindFlaw {
		vfs := h.NIC.VFs()
		for i := range vfs {
			vfs[i].Dev.BindBoot("vfio-pci")
			if _, err := h.VFIO.Register(vfs[i].Dev); err != nil {
				return nil, err
			}
		}
	}

	h.Env = hypervisor.NewEnv(k, rng, h.Mem, h.KVM, h.VFIO, h.Lazy, h.CPU, c)
	h.Env.Faults = h.Faults
	h.Env.Retry = pol

	var plugin cni.Plugin
	switch opts.Network {
	case NetNone:
		plugin = cni.NoNetwork{}
	case NetSRIOV:
		name := "sriov"
		if opts.RebindFlaw {
			name = "sriov-rebind"
		} else if opts.LockDecomposition && opts.LazyZeroing {
			name = "fastiov"
		}
		sriov := cni.NewSRIOV(name, h.NIC, h.VFIO, h.RTNL, c, opts.RebindFlaw)
		sriov.Faults = h.Faults
		plugin = sriov
	case NetIPvtap:
		ipvtap := cni.NewIPvtap(h.RTNL, h.CgroupLock, c)
		ipvtap.Faults = h.Faults
		plugin = ipvtap
	default:
		return nil, fmt.Errorf("cluster: unknown network mode %d", opts.Network)
	}

	h.Eng = cri.NewEngine(h.Env, plugin, h.Rec, h.CgroupLock, h.IrqLock, cri.Options{
		AsyncVFInit:  opts.AsyncVFInit,
		SkipImageMap: opts.SkipImageMap,
		VDPA:         opts.VDPA,
		Layout:       opts.Layout,
		Faults:       h.Faults,
		Retry:        pol,
	})
	// Metrics attach last, once every substrate exists: instruments are
	// read-only closures over substrate state and the sampler daemon
	// starts ticking at t=0.
	// None of this consumes simulated time or PRNG draws — a metrics-on
	// run stays byte-identical to a metrics-off run.
	if opts.Metrics {
		h.Metrics = metrics.New(metrics.DefaultCadence)
		h.attachMetrics()
		h.Metrics.Start(k)
	}
	// The baseline is taken after boot-time VF binding and pre-zeroing so
	// it reflects the steady idle state every experiment must return to.
	h.Baseline = h.AuditSnapshot()
	return h, nil
}

// Result carries one experiment's outcome.
type Result struct {
	Name      string
	N         int
	Totals    *stats.Sample // end-to-end startup times
	VFRelated *stats.Sample // per-container VF-related stage time
	Recorder  *telemetry.Recorder
	Sandboxes []*cri.Sandbox
	// Trace is the recorded event stream (nil unless Options.Trace).
	Trace *trace.Trace
	// Metrics is the sealed instrument registry (nil unless
	// Options.Metrics): per-metric time series covering the measured wave,
	// ready for OpenMetrics/CSV/dashboard export.
	Metrics *metrics.Registry
	Err     error

	// Started counts launched containers; Failed counts those lost to
	// injected faults after the retry budget ran out (their unfinished
	// telemetry is excluded from Totals). Genuine errors still land in
	// Err; fault-induced failures deliberately do not, because a chaos run
	// measures them instead of aborting on them.
	Started int
	Failed  int
	// FaultStats is the injector's per-site counter snapshot (nil when the
	// host runs fault-free).
	FaultStats []fault.SiteStat

	// Leaks is the host-wide conservation audit (nil unless Options.Audit):
	// every surviving sandbox is stopped after measurement and the counters
	// diffed against the host's boot baseline. A clean report proves the
	// run — rollbacks included — returned every VF, page, IOMMU mapping,
	// and registration it took.
	Leaks *audit.Report
}

// Live returns the sandboxes that completed startup, filtering the nil
// slots failed containers leave behind in Sandboxes (which stays
// index-aligned with container ids).
func (r *Result) Live() []*cri.Sandbox {
	out := make([]*cri.Sandbox, 0, len(r.Sandboxes))
	for _, sb := range r.Sandboxes {
		if sb != nil {
			out = append(out, sb)
		}
	}
	return out
}

// SuccessRate returns the fraction of started containers that finished
// startup, in [0, 1]; a run with nothing started counts as 0.
func (r *Result) SuccessRate() float64 {
	return stats.SuccessRate(r.Started-r.Failed, r.Started)
}

// StartupExperiment concurrently starts n secure containers (crictl-style,
// no application inside, §3.1) and collects per-container timings. With
// Options.Audit set, every surviving sandbox is then stopped and the
// host's conservation counters diffed against the boot baseline into
// Result.Leaks; the teardown phase runs after all telemetry marks, so the
// measured results are unaffected.
func (h *Host) StartupExperiment(n int) *Result {
	// The teardown phase runs its proc on one of the wave's coroutines.
	defer h.K.Hold()()
	res := h.startupWave(n, 0)
	if h.Opts.Audit {
		// Detach the tracer before teardown: the recorded trace stream
		// (and hence its fingerprint) covers exactly the measured startup
		// phase, byte-identical to an unaudited run. The sealed metrics
		// registry already ignores the teardown.
		if h.Tracer != nil {
			h.K.SetProbe(nil)
		}
		var err error
		h.K.Go("teardown", func(p *sim.Proc) { err = h.StopSandboxes(p, res.Sandboxes) })
		h.K.Run()
		if err != nil {
			res.Err = errors.Join(res.Err, err)
		}
		res.Leaks = audit.NewReport(h.Baseline, h.AuditSnapshot())
	}
	return res
}

// StopSandboxes stops sbs one after another on p, in order, skipping nil
// entries (failed starts), and joins every stop's error in that order: a
// failed stop does not end the loop, so the later sandboxes still come
// down. It is the audit teardown, which only has to leave the host clean
// for the leak audit and models no teardown timing, so one proc per host
// stands in for the concurrent teardown that ChurnExperiment models.
func (h *Host) StopSandboxes(p *sim.Proc, sbs []*cri.Sandbox) error {
	var errs []error
	for _, sb := range sbs {
		if sb == nil {
			continue
		}
		if err := h.Eng.StopPodSandbox(p, sb); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// StartOne runs a single pod-sandbox start on the host from within an
// already-scheduled Proc, maintaining the wave bookkeeping the cluster
// gauges read (in-flight, started, failed, the startup histogram). It is
// the per-container unit beneath startupWave, exported so a fleet can
// place individual starts onto hosts sharing one kernel. Fault-classified
// failures (fault.IsFault) are counted and returned; the caller decides
// whether they abort the run.
func (h *Host) StartOne(p *sim.Proc, id int) (*cri.Sandbox, error) {
	h.wave.started++
	h.wave.inflight++
	// Deferred so the count stays consistent when the start is killed
	// mid-flight by a host crash (the kill unwind runs defers only).
	defer func() { h.wave.inflight-- }()
	began := p.Now()
	sb, err := h.Eng.RunPodSandbox(p, id)
	if err != nil {
		if fault.IsFault(err) {
			h.wave.failed++
		}
		return nil, err
	}
	if h.startupHist != nil {
		h.startupHist.Observe(time.Duration(p.Now() - began).Seconds())
	}
	return sb, nil
}

// startupWave starts n containers with globally unique ids base..base+n-1
// (churn runs several waves on one host; ids must not collide across waves
// for telemetry and trace binding).
func (h *Host) startupWave(n, base int) *Result {
	if n < 0 {
		return &Result{
			Name: h.Opts.Name, N: n, Recorder: h.Rec,
			Totals: h.Rec.Totals(), VFRelated: h.Rec.VFRelated(),
			Err: fmt.Errorf("cluster: cannot start %d containers", n),
		}
	}
	res := &Result{Name: h.Opts.Name, N: n, Recorder: h.Rec, Started: n}
	sandboxes := make([]*cri.Sandbox, n)
	var errs []error
	arrivals := h.Opts.Arrival.times(h.Env.Rand, n)
	for i := 0; i < n; i++ {
		i := i
		id := base + i
		at := h.K.Now() + arrivals[i]
		h.K.GoAtName(at, sim.DecimalName("ctr-", id), func(p *sim.Proc) {
			sb, err := h.StartOne(p, id)
			if err != nil {
				if fault.IsFault(err) {
					res.Failed++
				} else {
					// Aggregate every genuine error: a concurrent wave can
					// surface several and dropping all but the first hides
					// real damage.
					errs = append(errs, err)
				}
				return
			}
			sandboxes[i] = sb
		})
	}
	h.K.Run()
	if h.Metrics != nil {
		// Seal at quiesce: the series covers exactly the measured wave
		// (churn's later waves and any audit teardown stay unobserved).
		h.Metrics.Seal(h.K.Now())
		res.Metrics = h.Metrics
	}
	res.Err = errors.Join(errs...)
	res.Sandboxes = sandboxes
	res.Trace = h.Tracer
	res.Totals = h.Rec.Totals()
	res.VFRelated = h.Rec.VFRelated()
	res.FaultStats = h.Faults.Snapshot()
	return res
}

// stopConcurrently tears the sandboxes down as the serverless recycling
// loop does: one proc per sandbox, all released at the same instant in a
// fresh kernel phase, so their stops contend for the host's locks and
// zeroing bandwidth. It calls each (when non-nil) with every sandbox's
// reclaim latency, which the recovery experiment's reclaim columns
// report, so this fan-out is modelled behaviour and not only cleanup.
// Teardown errors are aggregated, not fail-fast: the remaining sandboxes
// still come down.
func (h *Host) stopConcurrently(sbs []*cri.Sandbox, each func(id int, took time.Duration)) error {
	if len(sbs) == 0 {
		return nil
	}
	var errs []error
	for _, sb := range sbs {
		sb := sb
		h.K.GoAtName(h.K.Now(), sim.DecimalName("stop-", sb.ID), func(p *sim.Proc) {
			start := p.Now()
			if err := h.Eng.StopPodSandbox(p, sb); err != nil {
				errs = append(errs, err)
			}
			if each != nil {
				each(sb.ID, p.Now()-start)
			}
		})
	}
	h.K.Run()
	return errors.Join(errs...)
}

// ChurnResult carries a churn experiment's outcome.
type ChurnResult struct {
	Name    string
	Waves   int
	PerWave int
	Started int
	Failed  int
	// Reclaim samples per-sandbox StopPodSandbox latency across all waves.
	Reclaim *stats.Sample
	// Rollbacks counts compensating rollbacks (failed containers only)
	// and RollbackTime sums their durations.
	Rollbacks    int
	RollbackTime time.Duration
	// Leaks audits the host after the final wave against the boot
	// baseline. A recycling host must end identically clean.
	Leaks      *audit.Report
	Err        error
	FaultStats []fault.SiteStat
}

// SuccessRate returns the fraction of started containers that finished
// startup, in [0, 1].
func (r *ChurnResult) SuccessRate() float64 {
	return stats.SuccessRate(r.Started-r.Failed, r.Started)
}

// ChurnExperiment runs waves of n concurrent starts, tearing every
// surviving sandbox down between waves — the serverless recycling loop of
// §2.3 ("VFs will be recycled when their assigned [containers] are
// destroyed"), typically under a fault- and crash-heavy plan. Each wave
// gets a fresh telemetry recorder (per-wave breakdowns stay separable) and
// globally unique container ids; after the final wave the host is audited
// against its boot baseline.
func (h *Host) ChurnExperiment(waves, n int) *ChurnResult {
	out := &ChurnResult{
		Name: h.Opts.Name, Waves: waves, PerWave: n,
		Reclaim: stats.NewSample(),
	}
	defer h.K.Hold()()
	for w := 0; w < waves; w++ {
		rec := telemetry.NewRecorder()
		h.Rec = rec
		h.Eng.SetRecorder(rec)
		res := h.startupWave(n, w*n)
		out.Started += res.Started
		out.Failed += res.Failed
		if res.Err != nil {
			out.Err = errors.Join(out.Err, res.Err)
		}
		n, took := rec.StageTotal(telemetry.StageRollback)
		out.Rollbacks += n
		out.RollbackTime += took
		if err := h.stopConcurrently(res.Live(), func(_ int, took time.Duration) {
			out.Reclaim.Add(took)
		}); err != nil {
			out.Err = errors.Join(out.Err, err)
		}
	}
	out.Leaks = audit.NewReport(h.Baseline, h.AuditSnapshot())
	out.FaultStats = h.Faults.Snapshot()
	return out
}

// RunBaseline is the one-call experiment: boot a default host with the
// named baseline and start n containers.
func RunBaseline(name string, n int) (*Result, error) {
	opts, err := OptionsFor(name)
	if err != nil {
		return nil, err
	}
	h, err := NewHost(DefaultHostSpec(), opts)
	if err != nil {
		return nil, err
	}
	res := h.StartupExperiment(n)
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}
