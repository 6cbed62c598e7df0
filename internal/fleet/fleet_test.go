package fleet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/sim"
)

// smallCfg is the test fleet: small enough to run every policy × baseline
// combination quickly, heterogeneous enough to exercise capacity-aware
// placement.
func smallCfg(baseline, policy string, seed uint64) Config {
	return Config{
		Baseline:  baseline,
		Policy:    policy,
		HostSpecs: HeterogeneousSpecs(6),
		Requests:  30,
		Seed:      seed,
	}
}

// crashPlan mirrors the chaos experiment's shape plus crash points at every
// transactional stage — the crash-heavy regime the cross-host conservation
// property must survive.
func crashPlan() *fault.Plan {
	pl := fault.NewPlan()
	pl.Set(fault.SiteVFIOReset, fault.Rule{Prob: 0.05})
	pl.Set(fault.SiteDMAMap, fault.Rule{Prob: 0.025})
	pl.Set(fault.SiteCNIAdd, fault.Rule{Prob: 0.025})
	pl.Set(fault.SiteScrubber, fault.Rule{Prob: 0.05, Latency: 2})
	pl.Set(fault.SiteMemBW, fault.Rule{Latency: 1.05})
	for _, st := range fault.CrashStages() {
		pl.Set(fault.CrashSite(st), fault.Rule{Prob: 0.25})
	}
	return pl
}

func TestFleetSmoke(t *testing.T) {
	res, err := Run(smallCfg(cluster.BaselineVanilla, PolicyVFAware, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Started+res.Rejected != res.Requests {
		t.Errorf("started %d + rejected %d != requests %d", res.Started, res.Rejected, res.Requests)
	}
	if res.Totals.N() != res.Started-res.Failed {
		t.Errorf("%d totals, want %d survivors", res.Totals.N(), res.Started-res.Failed)
	}
	placed := 0
	for _, p := range res.Placements {
		placed += p
	}
	if placed != res.Started {
		t.Errorf("placements sum %d, want started %d", placed, res.Started)
	}
	if res.Totals.Mean() <= 0 {
		t.Error("mean startup time is zero")
	}
}

// TestFleetDeterminismAllPolicies double-runs every policy × baseline ×
// seed combination and requires byte-identical fingerprints — the fleet
// analog of the harness's -verify-determinism, down to individual lock
// handoffs when traced (covered separately by the transparency test; here
// audit lines join the fingerprint).
func TestFleetDeterminismAllPolicies(t *testing.T) {
	for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		for _, policy := range Policies() {
			for _, seed := range []uint64{1, 7} {
				name := fmt.Sprintf("%s/%s/seed%d", baseline, policy, seed)
				t.Run(name, func(t *testing.T) {
					cfg := smallCfg(baseline, policy, seed)
					cfg.Audit = true
					a, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					b, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a.Fingerprint(), b.Fingerprint()) {
						t.Errorf("double run diverged:\n--- run1\n%s\n--- run2\n%s",
							a.Fingerprint(), b.Fingerprint())
					}
				})
			}
		}
	}
}

// TestFleetObserverTransparency: attaching the tracer, the sampled metrics
// registry, and the conservation audit must not change a single canonical
// byte of the fleet result — observers watch the simulation, they never
// steer it.
func TestFleetObserverTransparency(t *testing.T) {
	for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		t.Run(baseline, func(t *testing.T) {
			plain, err := Run(smallCfg(baseline, PolicyVFAware, 3))
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallCfg(baseline, PolicyVFAware, 3)
			cfg.Trace = true
			cfg.Metrics = true
			cfg.Audit = true
			observed, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if observed.Trace == nil || observed.Trace.Len() == 0 {
				t.Error("traced run recorded no events")
			}
			if observed.Metrics == nil || observed.Metrics.Samples() == 0 {
				t.Error("metered run sampled nothing")
			}
			if !observed.Leaks.Clean() {
				t.Errorf("dirty fleet audit:\n%s", observed.Leaks)
			}
			if !bytes.Equal(plain.Canonical(), observed.Canonical()) {
				t.Errorf("observers changed canonical bytes:\n--- plain\n%s\n--- observed\n%s",
					plain.Canonical(), observed.Canonical())
			}
		})
	}
}

// TestFleetCrossHostConservation extends the host-level crash-churn
// conservation property to N hosts sharing one kernel: under a crash-heavy
// plan firing independently on every host, each per-host audit and the
// fleet-wide sum-of-counters audit must come back identically clean.
func TestFleetCrossHostConservation(t *testing.T) {
	for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		for _, seed := range []uint64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", baseline, seed), func(t *testing.T) {
				cfg := Config{
					Baseline:  baseline,
					Policy:    PolicyRoundRobin,
					HostSpecs: HeterogeneousSpecs(8),
					Requests:  48,
					Seed:      seed,
					Faults:    crashPlan(),
					Audit:     true,
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed == 0 {
					t.Error("crash-heavy plan injected no failures; the property is vacuous")
				}
				for i, rep := range res.PerHost {
					if !rep.Clean() {
						t.Errorf("host %d dirty after crash churn:\n%s", i, rep)
					}
				}
				if !res.Leaks.Clean() {
					t.Errorf("fleet-wide audit dirty:\n%s", res.Leaks)
				}
				if res.FaultStats == nil {
					t.Error("faulted fleet reported no site stats")
				}
			})
		}
	}
}

// TestFleetCapacityRejection: a fleet with tiny VF populations must reject
// the overflow instead of over-placing — Headroom admission control at the
// scheduler layer, for every policy.
func TestFleetCapacityRejection(t *testing.T) {
	specs := make([]cluster.HostSpec, 2)
	for i := range specs {
		s := cluster.DefaultHostSpec()
		s.NumVFs = 4
		specs[i] = s
	}
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			res, err := Run(Config{
				Baseline:    cluster.BaselineVanilla,
				Policy:      policy,
				HostSpecs:   specs,
				Requests:    40,
				Seed:        1,
				StartJitter: time.Millisecond, // near-simultaneous burst
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rejected == 0 {
				t.Error("overloaded fleet rejected nothing")
			}
			if res.Started+res.Rejected != res.Requests {
				t.Errorf("started %d + rejected %d != requests %d",
					res.Started, res.Rejected, res.Requests)
			}
			// Admission control may double-count a start that already leased
			// its VF (deliberately conservative), but must never over-place
			// past the VF population.
			for i, p := range res.Placements {
				if p > specs[i].NumVFs {
					t.Errorf("host %d placed %d starts with only %d VFs", i, p, specs[i].NumVFs)
				}
			}
		})
	}
}

// TestFleetInterleavingStability is the constructor-split regression: two
// hosts booted onto one shared kernel with derived PRNG streams must
// produce the same per-container event interleaving run after run — host
// boot order, scope naming, and stream derivation are all load-bearing for
// determinism, and this pins them.
func TestFleetInterleavingStability(t *testing.T) {
	run := func() []byte {
		k := sim.NewKernel(42)
		hosts := make([]*cluster.Host, 2)
		for i := range hosts {
			opts, err := cluster.OptionsFor(cluster.BaselineVanilla)
			if err != nil {
				t.Fatal(err)
			}
			opts.Scope = Scope(i)
			opts.Seed = sim.SplitSeed(42, uint64(i))
			h, err := cluster.NewHostOn(k, sim.NewRand(opts.Seed), cluster.DefaultHostSpec(), opts)
			if err != nil {
				t.Fatal(err)
			}
			hosts[i] = h
		}
		// Interleave 10 starts across the two hosts at staggered arrivals.
		var b []byte
		for i := 0; i < 10; i++ {
			id := i
			h := hosts[i%2]
			k.GoAt(sim.Duration(i)*5*time.Millisecond, fmt.Sprintf("ctr-%d", id), func(p *sim.Proc) {
				began := p.Now()
				if _, err := h.StartOne(p, id); err != nil {
					t.Errorf("ctr-%d: %v", id, err)
					return
				}
				b = fmt.Appendf(b, "ctr-%d host=%s began=%d took=%d\n",
					id, h.Opts.Scope, began, p.Now()-began)
			})
		}
		k.Run()
		return b
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no completions recorded")
	}
	for i := 0; i < 3; i++ {
		if again := run(); !bytes.Equal(first, again) {
			t.Fatalf("interleaving diverged on rerun %d:\n--- first\n%s\n--- again\n%s", i, first, again)
		}
	}
}

// TestFleetSingleHostMatchesStandalone: a one-host fleet with an empty
// scope is the degenerate case; with a scoped host the same containers must
// still all complete. This guards the scope plumbing against breaking the
// startup path itself.
func TestFleetScopedHostCompletes(t *testing.T) {
	cfg := Config{
		Baseline:  cluster.BaselineFastIOV,
		Policy:    PolicyRoundRobin,
		HostSpecs: []cluster.HostSpec{cluster.DefaultHostSpec()},
		Requests:  20,
		Seed:      1,
		Audit:     true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.N() != 20 {
		t.Fatalf("%d completions, want 20", res.Totals.N())
	}
	if !res.Leaks.Clean() {
		t.Errorf("dirty audit:\n%s", res.Leaks)
	}
}

// TestFreeVFHeadroomDoesNotAllocate pins the serving admission path's
// fleet-capacity read to zero allocations: it is evaluated on every
// arrival, so a per-call host-state slice would dominate its cost.
func TestFreeVFHeadroomDoesNotAllocate(t *testing.T) {
	f, err := New(smallCfg(cluster.BaselineFastIOV, PolicyLeastLoaded, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { f.FreeVFHeadroom() }); n != 0 {
		t.Errorf("FreeVFHeadroom allocates %v times per call, want 0", n)
	}
}
