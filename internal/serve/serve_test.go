package serve

import (
	"bytes"
	"testing"
	"time"

	"fastiov/internal/cluster"
)

// testConfig is a small-but-loaded serving run: 2 hosts at rate 48 pushes
// vanilla past saturation so every policy exercises its shed paths, while a
// 3s window keeps each run in the tens of milliseconds.
func testConfig(policy, baseline string, seed uint64) Config {
	return Config{
		Baseline: baseline,
		Policy:   policy,
		Hosts:    2,
		Rate:     48,
		Window:   3 * time.Second,
		Seed:     seed,
		Metrics:  true,
		Audit:    true,
	}
}

func mustServe(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("serve.Run(%s/%s): %v", cfg.Baseline, cfg.Policy, err)
	}
	return res
}

// TestServeDeterministic double-runs every policy on both headline baselines
// and demands byte-identical fingerprints — arrival draws, admission
// decisions, fleet placement, audits, and observer digests all replay.
func TestServeDeterministic(t *testing.T) {
	for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		for _, policy := range Policies() {
			cfg := testConfig(policy, baseline, 7)
			cfg.Trace = true
			a := mustServe(t, cfg)
			b := mustServe(t, cfg)
			if !bytes.Equal(a.Fingerprint(), b.Fingerprint()) {
				t.Errorf("%s/%s: double-run fingerprints differ", baseline, policy)
			}
			// A different seed must actually reach the simulation.
			cfg2 := cfg
			cfg2.Seed = 8
			c := mustServe(t, cfg2)
			if bytes.Equal(a.Fingerprint(), c.Fingerprint()) {
				t.Errorf("%s/%s: seeds 7 and 8 produced identical runs", baseline, policy)
			}
		}
	}
}

// TestServeObserverTransparency pins the Canonical contract: tracing and
// metrics observe without perturbing, so the canonical block is identical
// with observers on and off.
func TestServeObserverTransparency(t *testing.T) {
	cfg := testConfig(PolicySLOAware, cluster.BaselineVanilla, 11)
	plain := cfg
	plain.Trace, plain.Metrics, plain.Audit = false, false, false
	observed := cfg
	observed.Trace = true
	a := mustServe(t, plain)
	b := mustServe(t, observed)
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Error("observers perturbed the canonical serving result")
	}
}

// TestServeConservation is the request-conservation invariant: at every
// sampler tick arrived == admitted + shed + in-queue across the sampled
// series, the same identity holds at drain, and the fleet's leak audit is
// identically zero even though requests shed both at admission and
// mid-queue.
func TestServeConservation(t *testing.T) {
	cfg := testConfig(PolicySLOAware, cluster.BaselineVanilla, 3)
	res := mustServe(t, cfg)

	// The run must actually exercise both shed paths, or the invariant test
	// proves nothing.
	if res.ShedAdmission == 0 {
		t.Error("config never shed at admission; invariant untested")
	}
	if res.ShedQueue == 0 {
		t.Error("config never shed mid-queue; invariant untested")
	}

	m := res.Fleet.Metrics
	if m == nil {
		t.Fatal("metrics registry missing")
	}
	arrived := m.Series(MetricArrived)
	admitted := m.Series(MetricAdmitted)
	shed := m.Series(MetricShed)
	queue := m.Series(MetricQueueDepth)
	if len(arrived) == 0 {
		t.Fatal("no samples recorded")
	}
	for i := range arrived {
		if arrived[i] != admitted[i]+shed[i]+queue[i] {
			t.Fatalf("tick %d: arrived %v != admitted %v + shed %v + queue %v",
				i, arrived[i], admitted[i], shed[i], queue[i])
		}
		if i > 0 && arrived[i] < arrived[i-1] {
			t.Fatalf("tick %d: arrived counter went backwards", i)
		}
	}

	// Drain identities over the final counters.
	if res.Arrived != res.Admitted+res.Shed() {
		t.Errorf("at drain: arrived %d != admitted %d + shed %d",
			res.Arrived, res.Admitted, res.Shed())
	}
	if res.Admitted != res.Completed+res.Failed {
		t.Errorf("at drain: admitted %d != completed %d + failed %d",
			res.Admitted, res.Completed, res.Failed)
	}
	// Per-tenant tallies sum to the totals.
	var ta, tadm, tshed, tdone int
	for _, ts := range res.Tenants {
		ta += ts.Arrived
		tadm += ts.Admitted
		tshed += ts.Shed
		tdone += ts.Completed
	}
	if ta != res.Arrived || tadm != res.Admitted || tshed != res.Shed() || tdone != res.Completed {
		t.Errorf("tenant tallies (%d,%d,%d,%d) disagree with totals (%d,%d,%d,%d)",
			ta, tadm, tshed, tdone, res.Arrived, res.Admitted, res.Shed(), res.Completed)
	}

	// Shedding must not leak host resources: every audit clean.
	if !res.Fleet.CleanPerHost() {
		t.Error("per-host audits not clean after shedding run")
	}
	if !res.Fleet.Leaks.Clean() {
		t.Errorf("fleet-wide leak audit: %s", res.Fleet.Leaks)
	}
}

// TestServeQueueCapSheds pins the bounded-queue behavior: with a tiny cap
// even the FIFO baseline sheds, and the audits stay clean.
func TestServeQueueCapSheds(t *testing.T) {
	cfg := testConfig(PolicyFIFO, cluster.BaselineVanilla, 5)
	cfg.QueueCap = 4
	res := mustServe(t, cfg)
	if res.ShedAdmission == 0 {
		t.Error("queue cap 4 under overload never shed")
	}
	if res.Arrived != res.Admitted+res.Shed() {
		t.Errorf("conservation broken under queue cap: %d != %d + %d",
			res.Arrived, res.Admitted, res.Shed())
	}
	if !res.Fleet.CleanPerHost() || !res.Fleet.Leaks.Clean() {
		t.Error("audits not clean under queue-cap shedding")
	}
}

// TestServeHeadline pins the acceptance headline at test scale: past
// vanilla's saturation point FIFO's p99 sojourn blows through the SLO while
// SLO-aware shedding holds p99 near its target by trading goodput.
func TestServeHeadline(t *testing.T) {
	fifo := mustServe(t, testConfig(PolicyFIFO, cluster.BaselineVanilla, 1))
	slo := mustServe(t, testConfig(PolicySLOAware, cluster.BaselineVanilla, 1))
	if fifo.Sojourns.N() == 0 || slo.Sojourns.N() == 0 {
		t.Fatal("headline runs completed nothing")
	}
	fifoP99 := fifo.Sojourns.P99()
	sloP99 := slo.Sojourns.P99()
	if fifoP99 <= fifo.SLO {
		t.Errorf("fifo under overload: p99 %v inside SLO %v — not saturated", fifoP99, fifo.SLO)
	}
	// Allow a small estimation margin over the target.
	if limit := slo.SLO * 5 / 4; sloP99 > limit {
		t.Errorf("slo-aware p99 %v above %v (SLO %v + margin)", sloP99, limit, slo.SLO)
	}
	if slo.Shed() == 0 {
		t.Error("slo-aware held p99 without shedding — config not past saturation")
	}
}

// TestServeFairnessBounds sanity-checks Jain's index: within (0, 1] and 1.0
// when nothing sheds.
func TestServeFairnessBounds(t *testing.T) {
	cfg := testConfig(PolicyFIFO, cluster.BaselineFastIOV, 2)
	res := mustServe(t, cfg)
	if f := res.Fairness(); f != 1 {
		t.Errorf("fifo admits everything; fairness = %v, want 1", f)
	}
	shedding := mustServe(t, testConfig(PolicyTokenBucket, cluster.BaselineVanilla, 2))
	if f := shedding.Fairness(); f <= 0 || f > 1 {
		t.Errorf("fairness %v outside (0, 1]", f)
	}
}

func TestServeConfigErrors(t *testing.T) {
	if _, err := Run(Config{Baseline: cluster.BaselineVanilla, Policy: "bogus"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Run(Config{Baseline: cluster.BaselineVanilla, Policy: PolicyFIFO, Workload: "nope"}); err == nil {
		t.Error("bad workload accepted")
	}
	if _, err := Run(Config{Baseline: cluster.BaselineVanilla, Policy: PolicyFIFO, Workload: "idle:rate=0"}); err == nil {
		t.Error("arrival-free workload accepted")
	}
	if _, err := Run(Config{Baseline: "bogus", Policy: PolicyFIFO}); err == nil {
		t.Error("unknown baseline accepted")
	}
}
