package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fleet"
	"fastiov/internal/stats"
)

// Paper-scale fleet defaults: 100 heterogeneous hosts at 20 concurrent
// starts per host — the regime where placement policy decides whether
// vanilla's devset-queue collapse lands on a few hosts or nowhere.
const (
	DefaultFleetHosts   = 100
	DefaultFleetPerHost = 20
)

// ----------------------------------------------------------------------
// Fleet scenarios: one baseline × policy at one fleet size, through the
// harness so seeds fan out, results cache, and -verify-determinism
// double-runs every placement decision.

// fleetSpec identifies one independently schedulable fleet run.
type fleetSpec struct {
	Baseline string
	Policy   string
	Hosts    int
	PerHost  int
	env
}

func (fleetSpec) scope() string { return "fleet" }

func (s fleetSpec) params() string {
	return fmt.Sprintf("b=%s policy=%s hosts=%d c=%d", s.Baseline, s.Policy, s.Hosts, s.PerHost) + s.env.key()
}

// run executes the spec at one seed: a heterogeneous fleet sharing one
// kernel, audited per host and fleet-wide.
func (s fleetSpec) run(_ *Exec, seed uint64) (*fleet.Result, error) {
	res, err := fleet.Run(fleet.Config{
		Baseline:  s.Baseline,
		Policy:    s.Policy,
		HostSpecs: fleet.HeterogeneousSpecs(s.Hosts),
		Requests:  s.Hosts * s.PerHost,
		Seed:      seed,
		Faults:    s.Faults,
		Trace:     s.Observe&ObserveTrace != 0,
		Metrics:   s.Observe&ObserveMetrics != 0,
		// Standing invariant, as for single-host harness runs: audit every
		// fleet and fail loudly on any leak, per host or fleet-wide.
		Audit: true,
	})
	if err == nil {
		err = auditFleet(res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", s.Baseline, s.Policy, err)
	}
	return res, nil
}

// fingerprint canonically serializes a fleet run: placements, queue peaks,
// busy integrals, every per-start total, audit outcome, and the observers'
// digests when attached.
func (fleetSpec) fingerprint(res *fleet.Result) []byte { return res.Fingerprint() }

// auditFleet reports the first dirty leak audit of a fleet run, per host
// and then fleet-wide.
func auditFleet(res *fleet.Result) error {
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

// Fleet sweeps placement policy × baseline across a heterogeneous fleet
// sharing one simulation kernel, plus a fleet-size ladder for the
// signal-driven policies. The cluster-level claim mirrors the paper's
// host-level one: under vanilla, placement policy decides how much of the
// devset-queue collapse each host absorbs — VF-aware placement (free VFs,
// queue depth, membw pressure) recovers most of the tail that random
// placement concentrates — while FastIOV flattens the queue everywhere and
// makes policy choice nearly irrelevant.
func (x *Exec) Fleet(n int) (*Report, error) {
	hosts := x.cfg.Fleet.Hosts
	if hosts <= 0 {
		hosts = DefaultFleetHosts
		if n > 0 {
			// A concurrency override marks a below-paper-scale run (the
			// defConc convention): shrink the fleet to match unless -hosts
			// pins it explicitly.
			hosts = DefaultFleetHosts / 10
		}
	}
	perHost := pick(n, DefaultFleetPerHost)
	policies := fleet.Policies()
	if x.cfg.Fleet.Policy != "" {
		if _, err := fleet.NewScheduler(x.cfg.Fleet.Policy, nil); err != nil {
			return nil, err
		}
		policies = []string{x.cfg.Fleet.Policy}
	}
	baselines := []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}

	// Main sweep: every policy × baseline at full fleet size, then a host
	// ladder (quarter, half) and a light-load point (half per-host
	// concurrency) for the extreme policies — the blind one and the
	// signal-driven one.
	var specs []fleetSpec
	for _, p := range policies {
		for _, b := range baselines {
			specs = append(specs, fleetSpec{Baseline: b, Policy: p, Hosts: hosts, PerHost: perHost})
		}
	}
	ladder := []string{fleet.PolicyRandom, fleet.PolicyVFAware}
	if x.cfg.Fleet.Policy != "" {
		ladder = []string{x.cfg.Fleet.Policy}
	}
	for _, h := range []int{hosts / 4, hosts / 2} {
		if h < 1 || h == hosts {
			continue
		}
		for _, p := range ladder {
			for _, b := range baselines {
				specs = append(specs, fleetSpec{Baseline: b, Policy: p, Hosts: h, PerHost: perHost})
			}
		}
	}
	if half := perHost / 2; half >= 1 && half != perHost {
		for _, p := range ladder {
			for _, b := range baselines {
				specs = append(specs, fleetSpec{Baseline: b, Policy: p, Hosts: hosts, PerHost: half})
			}
		}
	}

	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "fleet", Title: fmt.Sprintf(
		"Fleet placement: policy × baseline across %d heterogeneous hosts (%d starts/host)", hosts, perHost)}
	t := stats.NewTable("baseline", "policy", "hosts", "c/host", "p50", "p99", "max", "q-peak", "spread", "rej")
	// p99 by (baseline, policy) at full scale, for the notes.
	p99 := map[string]map[string]time.Duration{}
	qpeak := map[string]map[string]int{}
	for i, sp := range specs {
		m := rs[i]
		pri := m.Primary()
		t.AddRow(sp.Baseline, sp.Policy, sp.Hosts, sp.PerHost,
			m.Metric(func(fr *fleet.Result) time.Duration { return fr.Totals.P50() }),
			m.Metric(func(fr *fleet.Result) time.Duration { return fr.Totals.P99() }),
			m.Metric(func(fr *fleet.Result) time.Duration { return fr.Totals.Max() }),
			pri.MaxQueuePeak(), pri.PlacementSpread(), pri.Rejected)
		if sp.Hosts == hosts && sp.PerHost == perHost {
			if p99[sp.Baseline] == nil {
				p99[sp.Baseline] = map[string]time.Duration{}
				qpeak[sp.Baseline] = map[string]int{}
			}
			p99[sp.Baseline][sp.Policy] = m.Metric(
				func(fr *fleet.Result) time.Duration { return fr.Totals.P99() }).Mean
			qpeak[sp.Baseline][sp.Policy] = pri.MaxQueuePeak()
		}
	}
	rep.Table = t

	// The headline claims need both extreme policies at full scale.
	van, fast := p99[cluster.BaselineVanilla], p99[cluster.BaselineFastIOV]
	if van[fleet.PolicyRandom] > 0 && van[fleet.PolicyVFAware] > 0 {
		red := 100 * stats.ReductionRatio(van[fleet.PolicyRandom], van[fleet.PolicyVFAware])
		if red >= 5 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"vanilla: vf-aware placement recovers most of the devset-queue collapse random placement concentrates — p99 %v → %v (%.0f%% reduction), deepest queue %d → %d waiters",
				van[fleet.PolicyRandom].Round(time.Millisecond), van[fleet.PolicyVFAware].Round(time.Millisecond), red,
				qpeak[cluster.BaselineVanilla][fleet.PolicyRandom], qpeak[cluster.BaselineVanilla][fleet.PolicyVFAware]))
		} else {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"vanilla: random and vf-aware placement are on par at this scale — p99 %v vs %v; the devset-queue collapse (and its recovery) needs more concurrent starts per host",
				van[fleet.PolicyRandom].Round(time.Millisecond), van[fleet.PolicyVFAware].Round(time.Millisecond)))
		}
	}
	if len(fast) == len(fleet.Policies()) && len(van) == len(fleet.Policies()) {
		// Compare across the load-spreading policies; rr deliberately
		// bin-packs onto one host at a time and is the collapse
		// illustration, not a placement candidate.
		spreading := func(m map[string]time.Duration) map[string]time.Duration {
			out := map[string]time.Duration{}
			for p, v := range m {
				if p != fleet.PolicyRoundRobin {
					out[p] = v
				}
			}
			return out
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"fastiov makes policy choice nearly irrelevant: p99 spread across the spreading policies %v vs vanilla's %v; even deliberate bin-packing (rr) costs fastiov %v where vanilla collapses to %v",
			p99Spread(spreading(fast)).Round(time.Millisecond), p99Spread(spreading(van)).Round(time.Millisecond),
			fast[fleet.PolicyRoundRobin].Round(time.Millisecond), van[fleet.PolicyRoundRobin].Round(time.Millisecond)))
	}
	seedNote(rep, x, "fleet table")
	return rep, nil
}

// p99Spread is max minus min across a policy→p99 map.
func p99Spread(m map[string]time.Duration) time.Duration {
	var lo, hi time.Duration
	first := true
	for _, v := range m {
		if first {
			lo, hi = v, v
			first = false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}
