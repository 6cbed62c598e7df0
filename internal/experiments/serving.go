package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/serve"
	"fastiov/internal/stats"
)

// DefaultServeRates is the offered-load ladder the serving experiment
// sweeps: under vanilla's ~35 req/s saturation point, at it, and 2×/4× past
// it — the overload regime where admission policy decides the tail.
var DefaultServeRates = []float64{16, 32, 64, 128}

// servingFlashSpec is the flash-crowd clause appended to the default
// workload for the burst rows: a 6× spike two-fifths into the window.
const servingFlashSpec = ";flash@3s:x=6,for=2s"

// CheckServeLoad reports an error when a serving, availability or slowatch
// run at offered load rate (<= 0: the specs' own rates) would expect more
// than serve.MaxExpectedArrivals arrivals in its window. It checks the
// tenant spec (empty: the default mix) and the default mix with the
// flash-crowd clause, which the serving and slowatch experiments add.
func CheckServeLoad(tenants string, rate float64) error {
	specs := []string{serve.DefaultWorkloadSpec + servingFlashSpec}
	if tenants != "" {
		specs = append(specs, tenants)
	}
	for _, spec := range specs {
		w, err := serve.ParseWorkload(spec)
		if err != nil {
			return err
		}
		if err := w.Scaled(rate).CheckLoad(serve.DefaultWindow); err != nil {
			return err
		}
	}
	return nil
}

// ----------------------------------------------------------------------
// Serving scenarios: one admission policy × baseline at one offered rate,
// through the harness so seeds fan out, results cache, and
// -verify-determinism double-runs every admission decision.

// serveSpec identifies one independently schedulable serving run.
type serveSpec struct {
	Baseline string
	Policy   string
	Hosts    int
	Rate     float64
	// Workload is the canonical tenant spec ("" = serve default).
	Workload string
	// Alerts is an optional alert-rule spec evaluated by the simulated-time
	// engine during the run (requires metrics); "" runs no engine.
	Alerts string
	env
}

// inherit applies the executor's defaults. Alert engines read the metrics
// registry, so a spec that carries rules always carries metrics too.
func (s *serveSpec) inherit(x *Exec) {
	s.env.inherit(x)
	if s.Alerts != "" {
		s.Observe |= ObserveMetrics
	}
}

func (serveSpec) scope() string { return "serve" }

func (s serveSpec) params() string {
	p := fmt.Sprintf("b=%s policy=%s hosts=%d rate=%g", s.Baseline, s.Policy, s.Hosts, s.Rate)
	if s.Workload != "" {
		p += " w=" + s.Workload
	}
	if s.Alerts != "" {
		p += " alerts=" + s.Alerts
	}
	return p + s.env.key()
}

// run executes the spec at one seed: a full serving window over an audited
// fleet, failing loudly on any leak — shed requests included.
func (s serveSpec) run(_ *Exec, seed uint64) (*serve.Result, error) {
	res, err := serve.Run(serve.Config{
		Baseline:  s.Baseline,
		Policy:    s.Policy,
		Hosts:     s.Hosts,
		Workload:  s.Workload,
		Rate:      s.Rate,
		Seed:      seed,
		Faults:    s.Faults,
		Trace:     s.Observe&ObserveTrace != 0,
		Metrics:   s.Observe&ObserveMetrics != 0,
		Journeys:  s.Observe&ObserveJourneys != 0,
		AlertSpec: s.Alerts,
		Audit:     true,
	})
	// Standing invariant: request conservation at drain and clean leak
	// audits, per host and fleet-wide, however much the policy shed.
	if err == nil && res.Arrived != res.Admitted+res.Shed() {
		err = fmt.Errorf("conservation broken: arrived %d != admitted %d + shed %d",
			res.Arrived, res.Admitted, res.Shed())
	}
	if err == nil {
		err = auditFleet(res.Fleet)
	}
	if err != nil {
		return nil, fmt.Errorf("%s/%s rate=%g: %w", s.Baseline, s.Policy, s.Rate, err)
	}
	return res, nil
}

// fingerprint canonically serializes a serving run: the admission
// accounting, per-tenant tallies, every sojourn, and the fleet fingerprint
// beneath (placements, audits, observer digests).
func (serveSpec) fingerprint(res *serve.Result) []byte { return res.Fingerprint() }

// serveSweep resolves the fleet size and admission-policy sweep shared by
// the serving, availability, and slowatch experiments, rejecting an unknown
// pinned policy.
func (x *Exec) serveSweep() (hosts int, policies []string, err error) {
	hosts = x.serveHosts
	if hosts <= 0 {
		hosts = serve.DefaultHosts
	}
	if x.servePolicy == "" {
		return hosts, serve.Policies(), nil
	}
	if _, err := serve.NewPolicy(x.servePolicy, serve.PolicyConfig{}); err != nil {
		return 0, nil, err
	}
	return hosts, []string{x.servePolicy}, nil
}

// Serving sweeps admission policy × baseline across an offered-load ladder:
// the admission-control study. An open-loop multi-tenant arrival process
// feeds pod-start requests through the serving control plane at rates from
// under vanilla's saturation point to 4× past it. The headline is the cliff
// and the recovery: the no-admission baseline (fifo) lets the queue — and
// the admitted p99 — grow without bound as offered load passes capacity,
// while SLO-aware shedding holds p99 near its target by trading goodput, and
// per-tenant token buckets cap each tenant at its contracted share. A
// flash-crowd row stresses the extreme policies with a 6× burst mid-window.
func (x *Exec) Serving(n int) (*Report, error) {
	hosts, policies, err := x.serveSweep()
	if err != nil {
		return nil, err
	}
	workload := x.serveTenants
	if workload != "" {
		if _, err := serve.ParseWorkload(workload); err != nil {
			return nil, err
		}
	}
	rates := append([]float64(nil), DefaultServeRates...)
	switch {
	case x.serveRate > 0:
		// An explicit -rate pins a single offered load.
		rates = []float64{x.serveRate}
	case n > 0:
		// A concurrency override marks a below-paper-scale run (the defConc
		// convention): a short ladder ending at the override.
		rates = []float64{float64(n) / 2, float64(n)}
		if rates[0] < 1 {
			rates = rates[1:]
		}
	}
	baselines := []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}

	var specs []serveSpec
	for _, p := range policies {
		for _, b := range baselines {
			for _, r := range rates {
				specs = append(specs, serveSpec{Baseline: b, Policy: p, Hosts: hosts, Rate: r, Workload: workload})
			}
		}
	}
	// Flash-crowd rows: the extreme policies under a 6× mid-window burst at
	// the ladder's midpoint rate, on the collapse-prone baseline. Only when
	// the workload is the default — a custom tenant spec keeps its grammar.
	flashAt := rates[len(rates)/2]
	flashPolicies := []string{serve.PolicyFIFO, serve.PolicySLOAware}
	if x.servePolicy != "" {
		flashPolicies = []string{x.servePolicy}
	}
	flashStart := len(specs)
	if workload == "" {
		for _, p := range flashPolicies {
			specs = append(specs, serveSpec{
				Baseline: cluster.BaselineVanilla, Policy: p, Hosts: hosts, Rate: flashAt,
				Workload: serve.DefaultWorkloadSpec + servingFlashSpec,
			})
		}
	}

	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "serving", Title: fmt.Sprintf(
		"Admission-controlled serving: policy × baseline across offered load (%d hosts, %s window, SLO %s)",
		hosts, serve.DefaultWindow, serve.DefaultSLO)}
	t := stats.NewTable("baseline", "policy", "rate", "arrived", "shed%", "shed q/p/s/g", "goodput", "p50", "p99", "p99.9", "fair")
	// p99 by (baseline, policy, rate) for the notes.
	type key struct {
		b, p string
		r    float64
	}
	p99s := map[key]time.Duration{}
	sheds := map[key]float64{}
	goods := map[key]float64{}
	for i, sp := range specs {
		m := rs[i]
		pri := m.Primary()
		rateLabel := fmt.Sprintf("%g", sp.Rate)
		if i >= flashStart {
			rateLabel += "+flash"
		}
		t.AddRow(sp.Baseline, sp.Policy, rateLabel,
			pri.Arrived,
			fmt.Sprintf("%.1f", 100*pri.ShedRate()),
			fmt.Sprintf("%d/%d/%d/%d", pri.ShedQueueFull, pri.ShedPolicy, pri.ShedQueue, pri.CrashGiveups),
			pri.Goodput(),
			m.Metric(func(r *serve.Result) time.Duration { return r.Sojourns.P50() }),
			m.Metric(func(r *serve.Result) time.Duration { return r.Sojourns.P99() }),
			m.Metric(func(r *serve.Result) time.Duration { return r.Sojourns.P999() }),
			fmt.Sprintf("%.3f", pri.Fairness()))
		if i < flashStart {
			k := key{sp.Baseline, sp.Policy, sp.Rate}
			p99s[k] = m.Metric(func(r *serve.Result) time.Duration { return r.Sojourns.P99() }).Mean
			sheds[k] = pri.ShedRate()
			goods[k] = pri.Goodput()
		}
	}
	rep.Table = t

	// Headline notes need both extreme policies on vanilla at the ladder's
	// endpoints.
	lo, hi := rates[0], rates[len(rates)-1]
	van := cluster.BaselineVanilla
	fifoLo, okA := p99s[key{van, serve.PolicyFIFO, lo}]
	fifoHi, okB := p99s[key{van, serve.PolicyFIFO, hi}]
	if okA && okB && fifoHi > fifoLo {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"no admission control, no bound: vanilla/fifo p99 sojourn grows %v → %v (%.1f×) as offered load rises %g → %g req/s — the queue absorbs every arrival and the tail pays",
			fifoLo.Round(time.Millisecond), fifoHi.Round(time.Millisecond),
			float64(fifoHi)/float64(fifoLo), lo, hi))
	}
	if sloHi, ok := p99s[key{van, serve.PolicySLOAware, hi}]; ok {
		k := key{van, serve.PolicySLOAware, hi}
		note := fmt.Sprintf(
			"SLO-aware shedding holds the tail at %g req/s offered: p99 %v against the %s target by shedding %.0f%% of arrivals (goodput %.1f/s",
			hi, sloHi.Round(time.Millisecond), serve.DefaultSLO, 100*sheds[k], goods[k])
		if _, ran := p99s[key{van, serve.PolicyFIFO, hi}]; ran {
			note += fmt.Sprintf(" vs fifo's %.1f/s at the same load", goods[key{van, serve.PolicyFIFO, hi}])
		}
		rep.Notes = append(rep.Notes, note+")")
	}
	seedNote(rep, x, "serving table")
	return rep, nil
}
