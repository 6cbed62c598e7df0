package serve

import (
	"errors"
	"fmt"
	"time"

	"fastiov/internal/cri"
	"fastiov/internal/fault"
	"fastiov/internal/fleet"
	"fastiov/internal/metrics"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
	"fastiov/internal/telemetry"
)

// Serving defaults.
const (
	// DefaultWorkloadSpec is the canonical three-tenant mix: a high-priority
	// web frontend at half the offered load, plus a normal API tier and a
	// low-priority batch tier at a quarter each.
	DefaultWorkloadSpec = "api:rate=30;batch:rate=30,prio=low;web:rate=60,prio=high"
	// DefaultWindow is the open-loop arrival window.
	DefaultWindow = 10 * time.Second
	// DefaultSLO is the sojourn (arrival to ready) target admitted requests
	// are held to.
	DefaultSLO = 2 * time.Second
	// DefaultHosts sizes the serving fleet.
	DefaultHosts = 4
	// DefaultDispatchers is the per-host dispatcher (worker) count: the
	// control plane serves at most hosts×dispatchers requests concurrently.
	DefaultDispatchers = 8
	// DefaultContractPerHost is the token-bucket policy's contracted
	// capacity per host, in requests per second.
	DefaultContractPerHost = 10
	// DefaultBurst is the token-bucket policy's per-tenant burst allowance.
	DefaultBurst = 8
	// DefaultLifetime is how long a pod serves after becoming ready before
	// the control plane retires it. Churn is what makes sustained serving
	// possible at all: without it the fleet's finite VF population exhausts
	// and every later request starves — the live-host attach/detach regime
	// SVFF studies.
	DefaultLifetime = 2 * time.Second
	// placeRetry is how long a dispatcher backs off when no host is in
	// capacity before asking the placement policy again.
	placeRetry = 5 * time.Millisecond
	// retryIDBase offsets the fresh container ids rerouted attempts start
	// under: a retried start is a new pod instance (new id, new ctr proc),
	// exactly as a real control plane mints a new pod UID — and trace
	// binding stays one proc per container. Request ids stay far below it.
	retryIDBase = 1 << 20
)

// ReroutePolicy bounds crash rerouting (reusing the fault package's retry
// discipline): backoffs long enough that the later attempts land after the
// heartbeat monitor has flagged the dead host, so the scheduler stops
// funneling retries back into the outage. The per-request give-up is
// SLO-aware (see rerouteWait), so Timeout stays unset here.
var ReroutePolicy = fault.Policy{
	MaxAttempts: 6,
	BaseDelay:   50 * time.Millisecond,
	Multiplier:  2,
	MaxDelay:    400 * time.Millisecond,
}

// Serving-plane instrument ids (registered when Config.Metrics is set).
// They share the fleet registry's sampling grid, so the conservation
// invariant (arrived == admitted + shed + in-queue) holds tick by tick
// across their series.
const (
	MetricArrived    = "serve_requests_arrived_total"
	MetricAdmitted   = "serve_requests_admitted_total"
	MetricShed       = "serve_requests_shed_total"
	MetricCompleted  = "serve_requests_completed_total"
	MetricGood       = "serve_requests_good_total"
	MetricQueueDepth = "serve_queue_depth"
	// Crash-plane instruments, registered only under host-fault plans.
	MetricCrashLost = "serve_requests_crash_lost_total"
	MetricRerouted  = "serve_requests_rerouted_total"
	MetricHeadroom  = "serve_admission_headroom_vfs"
	// MetricShedReason splits MetricShed (plus the reroute give-ups, which
	// conservation counts under failed) by reason label; MetricTenantShed
	// adds the tenant dimension. The alerting engine and the serving
	// experiment table both consume these.
	MetricShedReason = "serve_requests_shed_reason_total"
	MetricTenantShed = "serve_tenant_shed_total"
	// MetricSojourn is the completed-request sojourn histogram; with
	// journeys enabled its buckets carry trace-ID exemplars.
	MetricSojourn = "serve_sojourn_seconds"
)

// ShedReasons lists the shed-reason labels in presentation order.
var ShedReasons = []string{"queue-full", "policy", "stale-revalidation", "reroute-give-up"}

// sojournBuckets mirrors the fleet startup histogram's bucket ladder.
var sojournBuckets = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}

// Config selects one serving run. Everything else a run needs is fixed at
// the serving defaults above: vf-aware placement over
// fleet.HeterogeneousSpecs(Hosts), DefaultSLO, DefaultDispatchers per host,
// DefaultLifetime churn, the token-bucket contract, and the default metrics
// and alert-evaluation cadences.
type Config struct {
	// Baseline names the cluster baseline every host boots with.
	Baseline string
	// Policy names the admission policy (see Policies).
	Policy string
	// Hosts sizes the heterogeneous fleet (at most fleet.MaxHosts).
	Hosts int
	// Workload is the canonical tenant spec (default DefaultWorkloadSpec);
	// Rate, when positive, rescales it to this total offered rate in
	// requests per second.
	Workload string
	Rate     float64
	// Window is the open-loop arrival window.
	Window time.Duration
	// QueueCap bounds the admission queue (0 = unbounded); arrivals beyond
	// it shed regardless of policy.
	QueueCap int
	// Seed drives the whole run; tenant arrival streams split from it.
	Seed uint64
	// Faults, Trace, Metrics, and Audit pass through to the fleet (see
	// fleet.Config).
	Faults  *fault.Plan
	Trace   bool
	Metrics bool
	Audit   bool
	// Journeys attaches the per-request journey recorder: every arrival
	// mints a root span threaded through admission, queue wait, dispatch,
	// placement, reroutes, the startup telemetry stages, and pod lifetime.
	// Pure observation — a journey-traced run renders byte-identically to
	// an untraced one.
	Journeys bool
	// AlertSpec is a metrics.ParseRules rule set evaluated by a
	// simulated-time daemon against the run's metrics registry (it turns
	// Metrics on). Empty disables alerting.
	AlertSpec string
}

// withDefaults normalizes optional fields.
func (c Config) withDefaults() Config {
	if c.Hosts <= 0 {
		c.Hosts = DefaultHosts
	}
	if c.Workload == "" {
		c.Workload = DefaultWorkloadSpec
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.AlertSpec != "" {
		// The alert engine reads the sampled registry.
		c.Metrics = true
	}
	return c
}

// TenantStat is one tenant's request accounting over a run.
type TenantStat struct {
	Name     string
	Priority Priority
	Arrived  int
	Admitted int
	Shed     int
	// Shed by reason: queue-full and policy shed at arrival (their sum is
	// the tenant's share of ShedAdmission), stale-revalidation mid-queue.
	// GiveUps are admitted requests abandoned after crash losses — counted
	// under Failed, not Shed, so conservation still closes.
	ShedQueueFull int
	ShedPolicy    int
	ShedStale     int
	GiveUps       int
	Completed     int
	Failed        int
	// Sojourns samples this tenant's completed requests' arrival-to-ready
	// latency.
	Sojourns *stats.Sample
}

// Server is one serving control plane wired over a booted fleet.
type Server struct {
	Cfg Config
	F   *fleet.Fleet

	workload *Workload
	arrivals []Request
	pol      Policy
	q        *sim.Queue[*Request]

	t0 time.Duration

	// Request accounting. Every transition happens inside one baton step,
	// so arrived == admitted + shedAdmission + shedQueue + inQueue at every
	// observable instant — the conservation invariant the tests sample.
	// shedAdmission == shedQueueFull + shedPolicy; shedQueue is entirely
	// stale-revalidation.
	arrived, admitted, shedAdmission, shedQueue int
	shedQueueFull, shedPolicy                   int
	inQueue, completed, failed, good            int

	// Crash accounting (nonzero only under host-crash plans): crashLost
	// counts start attempts lost to a host death (killed mid-start or
	// dispatched into the detection window), rerouted the attempts retried
	// after such a loss, and crashGiveups the admitted requests abandoned by
	// the SLO-aware give-up (also counted in failed, so admitted ==
	// completed + failed still closes). retrySeq mints fresh container ids
	// for rerouted attempts.
	crashLost, rerouted, crashGiveups, retrySeq int

	// ewmaSec smooths observed startup seconds for the SLO-aware policy's
	// dispatch-cost term.
	ewmaSec float64

	sojourns *stats.Sample
	tenants  []*TenantStat
	byName   map[string]*TenantStat

	// Journey state (nil unless Cfg.Journeys): the recorder, the open span
	// handles per in-flight request, and the container-id index the fleet's
	// OnPlace observer resolves attempts through.
	jr   *telemetry.Recorder
	jreq map[int]*jreq // request ID -> open spans
	jctr map[int]*jreq // attempt container id -> its request's spans

	// Alerting state (nil unless Cfg.AlertSpec is set): parsed rules, the
	// fleet registry captured at registration, and the engine.
	alertRules []metrics.Rule
	reg        *metrics.Registry
	alerts     *metrics.Engine

	sojournHist *metrics.Histogram
}

// startAttempt is one start attempt's outcome: the ctr- child that
// dispatches it writes it, the dispatcher that joins the child reads it,
// and the pod- proc that retires the started pod keeps it. One allocation
// per attempt.
type startAttempt struct {
	host int
	sb   *cri.Sandbox
	took time.Duration
	err  error
	done bool
}

// jreq tracks one admitted request's open journey spans across the procs
// that touch it (arrival proc, dispatcher, the fleet's OnPlace observer).
type jreq struct {
	trace                              int
	root, queueWait, dispatch, attempt int
}

// New parses the workload, draws the arrival schedule, boots the fleet, and
// wires the admission policy. The run itself happens in Run.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Hosts > fleet.MaxHosts {
		return nil, fmt.Errorf("serve: %d hosts exceeds the limit of %d", cfg.Hosts, fleet.MaxHosts)
	}
	w, err := ParseWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	w = w.Scaled(cfg.Rate)
	if err := w.CheckLoad(cfg.Window); err != nil {
		return nil, err
	}
	s := &Server{
		Cfg:      cfg,
		workload: w,
		arrivals: w.Arrivals(cfg.Seed, cfg.Window),
		q:        sim.NewQueue[*Request]("serve-admit"),
		sojourns: stats.NewSample(),
		byName:   make(map[string]*TenantStat),
	}
	if len(s.arrivals) == 0 {
		return nil, fmt.Errorf("serve: workload %q offers no arrivals in %v", w, cfg.Window)
	}
	for _, t := range w.Tenants {
		ts := &TenantStat{Name: t.Name, Priority: t.Priority, Sojourns: stats.NewSample()}
		s.tenants = append(s.tenants, ts)
		s.byName[t.Name] = ts
	}
	if cfg.Journeys {
		s.jr = telemetry.NewRecorder()
		s.jreq = make(map[int]*jreq)
		s.jctr = make(map[int]*jreq)
	}
	if cfg.AlertSpec != "" {
		s.alertRules, err = metrics.ParseRules(cfg.AlertSpec)
		if err != nil {
			return nil, err
		}
	}
	s.pol, err = NewPolicy(cfg.Policy, PolicyConfig{
		SLO:          DefaultSLO,
		ContractRate: DefaultContractPerHost * float64(cfg.Hosts),
		Burst:        DefaultBurst,
		Tenants:      w.Tenants,
	})
	if err != nil {
		return nil, err
	}
	fcfg := fleet.Config{
		Baseline:  cfg.Baseline,
		Policy:    fleet.PolicyVFAware,
		HostSpecs: fleet.HeterogeneousSpecs(cfg.Hosts),
		Requests:  len(s.arrivals),
		Seed:      cfg.Seed,
		Faults:    cfg.Faults,
		Trace:     cfg.Trace,
		Metrics:   cfg.Metrics,
		Audit:     cfg.Audit,
		// Register the serving instruments before the fleet sampler starts,
		// so their series share the fleet's tick grid.
		RegisterMetrics: func(m *metrics.Registry) { s.reg = m; s.registerMetrics(m) },
	}
	if cfg.Journeys {
		// Attach the placement span at the scheduler's decision instant:
		// the chosen host's state snapshot and score are only observable
		// there, before later placements move them. Read-only.
		fcfg.OnPlace = func(at time.Duration, id int, st fleet.HostState, score float64, scored bool) {
			jq := s.jctr[id]
			if jq == nil {
				return
			}
			var buf [5]telemetry.Attr
			attrs := append(buf[:0],
				telemetry.Int("host", st.Index),
				telemetry.Int("free-vfs", st.FreeVFs),
				telemetry.Int("inflight", st.Inflight),
				telemetry.A("health", st.Health.String()))
			if scored {
				attrs = append(attrs, telemetry.F("score", score))
			}
			s.jr.Event(jq.trace, jq.attempt, "placement", at, attrs...)
		}
	}
	s.F, err = fleet.New(fcfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// registerMetrics adds the admission-plane instruments to the fleet's
// sampled registry. All read-only closures: sampling never perturbs the run.
func (s *Server) registerMetrics(m *metrics.Registry) {
	m.CounterFunc(MetricArrived, "pod-start requests arrived (open loop)", nil,
		func() float64 { return float64(s.arrived) })
	m.CounterFunc(MetricAdmitted, "requests admitted past the queue to dispatch", nil,
		func() float64 { return float64(s.admitted) })
	m.CounterFunc(MetricShed, "requests shed at admission or mid-queue", nil,
		func() float64 { return float64(s.shedAdmission + s.shedQueue) })
	m.CounterFunc(MetricCompleted, "admitted requests whose startup completed", nil,
		func() float64 { return float64(s.completed) })
	m.CounterFunc(MetricGood, "completed requests inside the sojourn SLO", nil,
		func() float64 { return float64(s.good) })
	m.GaugeFunc(MetricQueueDepth, "requests waiting in the admission queue", nil,
		func() float64 { return float64(s.inQueue) })
	// Shed reasons as labeled counters, fleet-wide and per tenant. The
	// readers are closures over the same fields the aggregate uses, so the
	// label sums reconcile exactly at every tick.
	for _, reason := range ShedReasons {
		m.CounterFunc(MetricShedReason, "requests shed, by reason (reroute-give-up is counted under failed)",
			[]metrics.Label{{Key: "reason", Value: reason}}, s.shedReader(reason))
		for _, ts := range s.tenants {
			ts := ts
			m.CounterFunc(MetricTenantShed, "per-tenant shed requests, by reason",
				[]metrics.Label{{Key: "tenant", Value: ts.Name}, {Key: "reason", Value: reason}},
				tenantShedReader(ts, reason))
		}
	}
	s.sojournHist = m.NewHistogram(MetricSojourn, "completed-request sojourn (arrival to ready)", nil, sojournBuckets)
	if s.Cfg.Faults.HasHostFaults() {
		// Crash instruments register only under host-fault plans so metered
		// fault-free runs keep their pre-failure-domain export bytes.
		m.CounterFunc(MetricCrashLost, "start attempts lost to host crashes", nil,
			func() float64 { return float64(s.crashLost) })
		m.CounterFunc(MetricRerouted, "start attempts rerouted after a crash loss", nil,
			func() float64 { return float64(s.rerouted) })
		m.GaugeFunc(MetricHeadroom, "health-aware free-VF headroom the admission view sees", nil,
			func() float64 { return float64(s.F.FreeVFHeadroom()) })
	}
}

// shedReader returns the fleet-wide counter closure for one shed reason.
func (s *Server) shedReader(reason string) func() float64 {
	switch reason {
	case "queue-full":
		return func() float64 { return float64(s.shedQueueFull) }
	case "policy":
		return func() float64 { return float64(s.shedPolicy) }
	case "stale-revalidation":
		return func() float64 { return float64(s.shedQueue) }
	default: // reroute-give-up
		return func() float64 { return float64(s.crashGiveups) }
	}
}

// tenantShedReader returns the per-tenant counter closure for one reason.
func tenantShedReader(ts *TenantStat, reason string) func() float64 {
	switch reason {
	case "queue-full":
		return func() float64 { return float64(ts.ShedQueueFull) }
	case "policy":
		return func() float64 { return float64(ts.ShedPolicy) }
	case "stale-revalidation":
		return func() float64 { return float64(ts.ShedStale) }
	default: // reroute-give-up
		return func() float64 { return float64(ts.GiveUps) }
	}
}

// admissionAttrs appends the policy's decision state for the admission
// span to attrs: the policy plus policy-specific inputs (token fill for
// token-bucket, predicted wait vs budget for slo-aware). Pure reads.
func (s *Server) admissionAttrs(attrs []telemetry.Attr, r *Request, v View) []telemetry.Attr {
	attrs = append(attrs, telemetry.A("policy", s.pol.Name()))
	switch p := s.pol.(type) {
	case *tokenBucket:
		if tokens, ok := p.Peek(r.Tenant, v.Now); ok {
			attrs = append(attrs, telemetry.F("tokens", tokens))
		}
	case *sloAware:
		est, budget := p.Explain(r, v)
		attrs = append(attrs, telemetry.Dur("est-sojourn", est), telemetry.Dur("budget", budget))
	}
	attrs = append(attrs, telemetry.Int("queue-depth", v.QueueDepth), telemetry.Int("headroom", v.FreeVFHeadroom))
	return attrs
}

// admissionBuf holds an admission span's attributes on the caller's
// stack: admissionAttrs' five at most, plus the verdict and the reason.
type admissionBuf [7]telemetry.Attr

// view snapshots the control-plane state for a policy decision.
func (s *Server) view(now time.Duration) View {
	return View{
		Now:            now,
		Elapsed:        now - s.t0,
		QueueDepth:     s.inQueue,
		Inflight:       s.F.Inflight(),
		FreeVFHeadroom: s.F.FreeVFHeadroom(),
		DevsetWaiters:  s.F.DevsetWaiters(),
		MembwBusy:      s.F.MembwBusyTotal(),
		Completed:      s.completed,
		StartupEWMA:    time.Duration(s.ewmaSec * float64(time.Second)),
		SLO:            DefaultSLO,
	}
}

// Run executes the serving window: spawns the dispatchers, schedules every
// arrival, runs the shared kernel to quiescence (the open loop closes after
// the last arrival; dispatchers drain the queue), then seals the fleet.
func (s *Server) Run() *Result {
	k := s.F.K
	s.t0 = k.Now()

	if s.alertRules != nil && s.reg != nil {
		s.alerts = metrics.NewEngine(s.alertRules, s.reg)
		s.alerts.Start(k)
	}

	// Dispatchers park on the queue before the first arrival fires.
	for d := 0; d < s.Cfg.Hosts*DefaultDispatchers; d++ {
		k.GoAtName(k.Now(), sim.DecimalName("disp-", d), s.dispatcher)
	}

	lastAt := s.arrivals[len(s.arrivals)-1].At
	for i := range s.arrivals {
		r := &s.arrivals[i]
		k.GoAtName(s.t0+r.At, sim.DecimalName("req-", r.ID), func(p *sim.Proc) {
			s.arrive(p, r)
		})
	}
	// Created after the arrival procs, so at the shared instant it runs
	// after the last arrival's push: the queue closes exactly once the open
	// loop ends, and dispatchers exit after draining it.
	k.GoAt(s.t0+lastAt, "serve-close", func(p *sim.Proc) { s.q.Close(p) })

	k.Run()
	return s.finish()
}

// arrive handles one request at its arrival instant: count it, let the
// policy (and the queue bound) decide, and either enqueue or shed.
func (s *Server) arrive(p *sim.Proc, r *Request) {
	now := p.Now()
	s.arrived++
	ts := s.byName[r.Tenant]
	ts.Arrived++
	root := -1
	if s.jr != nil {
		root = s.jr.Begin(r.ID, -1, "request", now,
			telemetry.A("tenant", r.Tenant), telemetry.A("prio", r.Priority.String()))
	}
	v := s.view(now)
	if s.Cfg.QueueCap > 0 && s.inQueue >= s.Cfg.QueueCap {
		s.shedAdmission++
		s.shedQueueFull++
		ts.Shed++
		ts.ShedQueueFull++
		s.jShed(r, root, v, "queue-full", now)
		return
	}
	// Token/budget state must be read before Admit drains a token.
	var buf admissionBuf
	admitAttrs := buf[:0]
	if s.jr != nil {
		admitAttrs = s.admissionAttrs(admitAttrs, r, v)
	}
	if !s.pol.Admit(r, v) {
		s.shedAdmission++
		s.shedPolicy++
		ts.Shed++
		ts.ShedPolicy++
		if s.jr != nil {
			s.jr.Event(r.ID, root, "admission", now, append(admitAttrs,
				telemetry.A("verdict", "shed"), telemetry.A("reason", "policy"))...)
			s.jr.End(root, now, telemetry.A("outcome", "shed"), telemetry.A("reason", "policy"))
		}
		return
	}
	if s.jr != nil {
		s.jr.Event(r.ID, root, "admission", now, append(admitAttrs, telemetry.A("verdict", "admit"))...)
		qw := s.jr.Begin(r.ID, root, "queue-wait", now)
		s.jreq[r.ID] = &jreq{trace: r.ID, root: root, queueWait: qw}
	}
	s.inQueue++
	s.q.Push(p, r)
}

// jShed closes a just-minted root span for a request shed at arrival.
func (s *Server) jShed(r *Request, root int, v View, reason string, now time.Duration) {
	if s.jr == nil {
		return
	}
	var buf admissionBuf
	s.jr.Event(r.ID, root, "admission", now, append(s.admissionAttrs(buf[:0], r, v),
		telemetry.A("verdict", "shed"), telemetry.A("reason", reason))...)
	s.jr.End(root, now, telemetry.A("outcome", "shed"), telemetry.A("reason", reason))
}

// dispatcher is one serving worker: pop, revalidate, drive the start to
// completion (rerouting across host deaths), and account the outcome.
func (s *Server) dispatcher(p *sim.Proc) {
	for {
		r, ok := s.q.Pop(p)
		if !ok {
			return
		}
		s.inQueue--
		now := p.Now()
		ts := s.byName[r.Tenant]
		jq := s.jreq[r.ID] // nil unless journeys are on
		if jq != nil {
			s.jr.End(jq.queueWait, now)
		}
		if !s.pol.Revalidate(r, s.view(now)) {
			s.shedQueue++
			ts.Shed++
			ts.ShedStale++
			if jq != nil {
				s.jr.Event(jq.trace, jq.root, "revalidate", now,
					telemetry.A("policy", s.pol.Name()), telemetry.A("verdict", "shed"),
					telemetry.A("reason", "stale-revalidation"))
				s.jr.End(jq.root, now, telemetry.A("outcome", "shed"),
					telemetry.A("reason", "stale-revalidation"))
				delete(s.jreq, r.ID)
			}
			continue
		}
		s.admitted++
		ts.Admitted++
		if jq != nil {
			jq.dispatch = s.jr.Begin(jq.trace, jq.root, "dispatch", now)
		}
		s.startOne(p, r, ts)
	}
}

// startOne drives one admitted request: place on the fleet (retrying while
// no host is in capacity), detect attempts lost to a host crash, and
// reroute them under the bounded ReroutePolicy backoff with an SLO-aware
// give-up. The startup itself runs in a child proc named ctr-<id> so trace
// binding sees the standard container proc names; rerouted attempts mint a
// fresh id (a new pod instance).
func (s *Server) startOne(p *sim.Proc, r *Request, ts *TenantStat) {
	jq := s.jreq[r.ID] // nil unless journeys are on
	for attempt := 0; ; attempt++ {
		id := r.ID
		if attempt > 0 {
			id = retryIDBase + s.retrySeq
			s.retrySeq++
		}
		if jq != nil {
			jq.attempt = s.jr.Begin(jq.trace, jq.dispatch, "attempt", p.Now(),
				telemetry.Int("attempt", attempt), telemetry.Int("ctr", id))
			s.jctr[id] = jq // resolves the fleet's OnPlace observer
		}
		a := &startAttempt{}
		child := s.F.K.GoAtName(s.F.K.Now(), sim.DecimalName("ctr-", id), func(cp *sim.Proc) {
			for {
				a.host, a.sb, a.took, a.err = s.F.Dispatch(cp, id)
				if a.host >= 0 || errors.Is(a.err, fleet.ErrAllHostsDown) {
					// Placed (or lost/failed on a host), or a fleet-wide
					// outage the reroute loop must back off from. Capacity
					// rejects keep the fast placeRetry poll: churn frees VFs
					// on millisecond scales.
					a.done = true
					return
				}
				cp.Sleep(placeRetry)
			}
		})
		p.Join(child)
		if jq != nil {
			delete(s.jctr, id)
		}

		if !a.done || errors.Is(a.err, fleet.ErrHostDown) {
			// The attempt died with its host: either the crash killed the
			// child mid-start (!done — the VF state it held is on the
			// LostToCrash ledger) or the dispatch landed on a dead host
			// inside the heartbeat detection window.
			s.crashLost++
			if jq != nil {
				s.jr.End(jq.attempt, p.Now(), telemetry.A("outcome", "crash-lost"))
			}
			if !s.rerouteAttempt(p, r, ts, jq, attempt) {
				return
			}
			continue
		}
		if errors.Is(a.err, fleet.ErrAllHostsDown) {
			// Every host is out of service: back off toward recovery
			// instead of hot-polling a dark fleet.
			if jq != nil {
				s.jr.End(jq.attempt, p.Now(), telemetry.A("outcome", "all-hosts-down"))
			}
			if !s.rerouteAttempt(p, r, ts, jq, attempt) {
				return
			}
			continue
		}
		if a.err != nil {
			// Fault-injected failures are accounted; genuine errors are
			// recorded on the fleet and surface from Finish.
			s.failed++
			ts.Failed++
			if jq != nil {
				outcome := "error"
				if fault.IsFault(a.err) {
					outcome = "fault"
				}
				now := p.Now()
				s.jr.End(jq.attempt, now, telemetry.A("outcome", outcome))
				s.jr.End(jq.dispatch, now)
				s.jr.End(jq.root, now, telemetry.A("outcome", "failed"), telemetry.A("reason", outcome))
				delete(s.jreq, r.ID)
			}
			return
		}
		now := p.Now()
		sojourn := now - s.t0 - r.At
		podSpan := -1
		if jq != nil {
			// Copy the startup telemetry stage spans into the attempt
			// eagerly: a later crash of this host boots a fresh generation
			// with a fresh recorder, so these spans must be taken now.
			s.jr.CopyStages(s.F.Hosts[a.host].Rec, id, jq.trace, jq.attempt)
			s.jr.End(jq.attempt, now, telemetry.A("outcome", "ok"),
				telemetry.Int("host", a.host), telemetry.Dur("took", a.took))
			s.jr.End(jq.dispatch, now)
			s.jr.Annotate(jq.root, telemetry.A("outcome", "completed"), telemetry.Dur("sojourn", sojourn))
			podSpan = s.jr.Begin(jq.trace, jq.root, "pod", now, telemetry.Int("host", a.host))
		}
		// Retire the pod after its lifetime: the VF detaches on a live host
		// while new starts attach — the churn regime.
		s.F.K.GoAtName(now, sim.DecimalName("pod-", id), func(pp *sim.Proc) {
			pp.Sleep(DefaultLifetime)
			s.F.Release(pp, a.host, a.sb)
			if jq != nil {
				end := pp.Now()
				s.jr.End(podSpan, end)
				s.jr.End(jq.root, end)
			}
		})
		if jq != nil {
			delete(s.jreq, r.ID)
		}
		s.completed++
		ts.Completed++
		s.sojourns.Add(sojourn)
		ts.Sojourns.Add(sojourn)
		if s.sojournHist != nil {
			if s.jr != nil {
				s.sojournHist.ObserveExemplar(sojourn.Seconds(), r.ID, now)
			} else {
				s.sojournHist.Observe(sojourn.Seconds())
			}
		}
		if sojourn <= DefaultSLO {
			s.good++
		}
		const alpha = 0.2
		if s.ewmaSec == 0 {
			s.ewmaSec = a.took.Seconds()
		} else {
			s.ewmaSec = (1-alpha)*s.ewmaSec + alpha*a.took.Seconds()
		}
		return
	}
}

// rerouteAttempt wraps rerouteWait with the journey reroute-wait span and
// the give-up accounting: true means the caller should retry the start.
func (s *Server) rerouteAttempt(p *sim.Proc, r *Request, ts *TenantStat, jq *jreq, attempt int) bool {
	began := p.Now()
	ok := s.rerouteWait(p, r, attempt)
	if jq != nil {
		w := s.jr.Begin(jq.trace, jq.dispatch, "reroute-wait", began, telemetry.Int("attempt", attempt))
		s.jr.End(w, p.Now())
	}
	if !ok {
		s.giveUp(ts)
		if jq != nil {
			now := p.Now()
			s.jr.End(jq.dispatch, now)
			s.jr.End(jq.root, now, telemetry.A("outcome", "failed"), telemetry.A("reason", "reroute-give-up"))
			delete(s.jreq, r.ID)
		}
		return false
	}
	s.rerouted++
	return true
}

// rerouteWait decides whether a crash-lost attempt retries: false once
// ReroutePolicy's attempts exhaust or the request's SLO budget (measured
// from its arrival) is spent — completing after the deadline would miss the
// SLO anyway, so the request is better abandoned than rerouted late. On
// true it has already slept the policy backoff (deterministic, no jitter
// stream). Mirrors fault.Do's clamp: a backoff crossing the deadline sleeps
// only to the deadline and gives up there.
func (s *Server) rerouteWait(p *sim.Proc, r *Request, attempt int) bool {
	if attempt+1 >= ReroutePolicy.MaxAttempts {
		return false
	}
	deadline := s.t0 + r.At + DefaultSLO
	remaining := deadline - p.Now()
	if remaining <= 0 {
		return false
	}
	wait := ReroutePolicy.Delay(attempt+1, nil)
	if wait >= remaining {
		p.Sleep(remaining)
		return false
	}
	p.Sleep(wait)
	return true
}

// giveUp abandons an admitted request after crash losses: counted as a
// failure (conservation: admitted == completed + failed) and separately as
// a crash give-up.
func (s *Server) giveUp(ts *TenantStat) {
	s.crashGiveups++
	s.failed++
	ts.Failed++
	ts.GiveUps++
}

// finish seals the run: fleet observers, audits, and the serving result.
func (s *Server) finish() *Result {
	if s.jr != nil {
		// Close still-open spans (pods whose retirement proc died with a
		// crashed host) before the fleet audit mutates anything.
		s.jr.Seal(time.Duration(s.F.K.Now()))
	}
	fres := s.F.Finish()
	s.sojourns.Sort()
	for _, ts := range s.tenants {
		ts.Sojourns.Sort()
	}
	return &Result{
		Baseline:      s.Cfg.Baseline,
		Policy:        s.pol.Name(),
		Hosts:         s.Cfg.Hosts,
		Window:        s.Cfg.Window,
		SLO:           DefaultSLO,
		OfferedRate:   s.workload.TotalRate(),
		Arrived:       s.arrived,
		Admitted:      s.admitted,
		ShedAdmission: s.shedAdmission,
		ShedQueue:     s.shedQueue,
		Completed:     s.completed,
		Failed:        s.failed,
		Good:          s.good,
		Sojourns:      s.sojourns,
		Tenants:       s.tenants,
		CrashLost:     s.crashLost,
		Rerouted:      s.rerouted,
		CrashGiveups:  s.crashGiveups,
		ShedQueueFull: s.shedQueueFull,
		ShedPolicy:    s.shedPolicy,
		Journey:       s.jr,
		Alerts:        s.alerts,
		SojournHist:   s.sojournHist,
		Fleet:         fres,
		Err:           fres.Err,
	}
}

// Result carries one serving run's outcome.
type Result struct {
	Baseline string
	Policy   string
	Hosts    int
	Window   time.Duration
	SLO      time.Duration
	// OfferedRate is the workload's total base arrival rate (req/s).
	OfferedRate float64

	Arrived       int
	Admitted      int
	ShedAdmission int
	ShedQueue     int
	Completed     int
	Failed        int
	// Good counts completions inside the SLO.
	Good int

	// Sojourns samples every completed request's arrival-to-ready latency.
	Sojourns *stats.Sample
	// Tenants holds per-tenant accounting in canonical (name) order.
	Tenants []*TenantStat

	// Crash rerouting accounting, nonzero only under host-crash plans:
	// CrashLost start attempts died with their host, Rerouted of those were
	// retried, CrashGiveups admitted requests were abandoned (counted in
	// Failed) once the retry budget or SLO headroom ran out.
	CrashLost    int
	Rerouted     int
	CrashGiveups int

	// Shed-reason split: ShedAdmission == ShedQueueFull + ShedPolicy, and
	// ShedQueue is entirely stale-revalidation.
	ShedQueueFull int
	ShedPolicy    int

	// Journey is the per-request trace recorder (nil unless Config.Journeys);
	// Alerts the evaluated alert engine (nil unless Config.AlertSpec);
	// SojournHist the sojourn histogram (nil unless Config.Metrics).
	Journey     *telemetry.Recorder
	Alerts      *metrics.Engine
	SojournHist *metrics.Histogram

	// Fleet is the underlying fleet result (placements, signals, audits,
	// observers).
	Fleet *fleet.Result
	Err   error
}

// Shed is the total shed count, at admission plus mid-queue.
func (r *Result) Shed() int { return r.ShedAdmission + r.ShedQueue }

// ShedRate is the shed fraction of all arrivals.
func (r *Result) ShedRate() float64 {
	if r.Arrived == 0 {
		return 0
	}
	return float64(r.Shed()) / float64(r.Arrived)
}

// Goodput is SLO-compliant completions per second of serving window.
func (r *Result) Goodput() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Good) / r.Window.Seconds()
}

// Fairness is Jain's index over per-tenant admission ratios
// (admitted/arrived): 1.0 means every tenant was admitted at the same rate,
// 1/n means one tenant got everything.
func (r *Result) Fairness() float64 {
	var xs []float64
	for _, t := range r.Tenants {
		if t.Arrived > 0 {
			xs = append(xs, float64(t.Admitted)/float64(t.Arrived))
		}
	}
	if len(xs) == 0 {
		return 1
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		// Every tenant equally (and completely) starved: fair, if grim.
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// header serializes the serving-plane decisions: accounting, per-tenant
// tallies, and every sojourn.
func (r *Result) header() []byte {
	b := fmt.Appendf(nil, "serve b=%s policy=%s place=%s hosts=%d rate=%s window=%s slo=%s\n",
		r.Baseline, r.Policy, fleet.PolicyVFAware, r.Hosts, fmtRate(r.OfferedRate), r.Window, r.SLO)
	b = fmt.Appendf(b, "arrived %d admitted %d shed-adm %d shed-queue %d completed %d failed %d good %d\n",
		r.Arrived, r.Admitted, r.ShedAdmission, r.ShedQueue, r.Completed, r.Failed, r.Good)
	b = fmt.Appendf(b, "shed-reasons queue-full=%d policy=%d stale=%d giveup=%d\n",
		r.ShedQueueFull, r.ShedPolicy, r.ShedQueue, r.CrashGiveups)
	if r.Fleet != nil && (r.Fleet.HostCrashes > 0 || r.Fleet.DaemonCrashes > 0) {
		b = fmt.Appendf(b, "reroute lost=%d rerouted=%d gaveup=%d\n",
			r.CrashLost, r.Rerouted, r.CrashGiveups)
	}
	for _, t := range r.Tenants {
		b = fmt.Appendf(b, "tenant %s prio=%s arrived=%d admitted=%d shed=%d qf=%d pol=%d stale=%d completed=%d failed=%d\n",
			t.Name, t.Priority, t.Arrived, t.Admitted, t.Shed, t.ShedQueueFull, t.ShedPolicy, t.ShedStale, t.Completed, t.Failed)
	}
	for _, d := range r.Sojourns.Values() {
		b = fmt.Appendf(b, "sojourn %d\n", d)
	}
	return b
}

// Canonical serializes everything the simulation decides — the serving
// header plus the fleet's canonical block — but none of the observers'
// digests, mirroring fleet.Result.Canonical's transparency contract.
func (r *Result) Canonical() []byte { return append(r.header(), r.Fleet.Canonical()...) }

// Fingerprint extends Canonical with the fleet's audit outcome and observer
// digests — everything a determinism double-run must reproduce exactly.
// Journey and alert digests append only when those observers were
// attached, so unattached fingerprints keep their pre-journey encoding.
func (r *Result) Fingerprint() []byte {
	b := append(r.header(), r.Fleet.Fingerprint()...)
	if r.Journey != nil {
		b = fmt.Appendf(b, "journeys spans=%d roots=%d fp=%016x\n",
			r.Journey.Len(), r.Journey.Roots(), r.Journey.Fingerprint())
	}
	if r.Alerts != nil {
		b = fmt.Appendf(b, "alerts events=%d fp=%016x\n",
			len(r.Alerts.Events()), r.Alerts.Fingerprint())
	}
	return b
}

// Run is the one-call serving experiment: boot, serve the window, seal.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	res := s.Run()
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}
