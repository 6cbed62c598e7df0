package serve

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/fleet"
)

// crashConfig is the serving-under-failure testbed: a mid-window host crash
// with recovery, so dispatchers see both the kill (in-flight starts die)
// and the detection window (placements land on a host already dead).
func crashConfig(policy, baseline string, seed uint64, plan string) Config {
	pl, err := fault.ParsePlan(plan)
	if err != nil {
		panic(fmt.Sprintf("crashConfig: %v", err))
	}
	return Config{
		Baseline: baseline,
		Policy:   policy,
		Hosts:    2,
		Rate:     48,
		Window:   3 * time.Second,
		Seed:     seed,
		Faults:   pl,
		Metrics:  true,
		Audit:    true,
	}
}

const crashPlan = "host-crash@600ms:host=0;host-recover=300ms"

// TestServeCrashDeterminism double-runs the serving plane over a crashing,
// recovering fleet for every admission policy: reroute backoffs, fresh
// retry ids, and the heartbeat monitor are all on the simulated clock, so
// fingerprints must stay byte-identical.
func TestServeCrashDeterminism(t *testing.T) {
	for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		for _, policy := range Policies() {
			t.Run(baseline+"/"+policy, func(t *testing.T) {
				cfg := crashConfig(policy, baseline, 7, crashPlan)
				a := mustServe(t, cfg)
				b := mustServe(t, cfg)
				if a.Fleet.HostCrashes == 0 {
					t.Fatal("no crash fired; the property is vacuous")
				}
				if !bytes.Equal(a.Fingerprint(), b.Fingerprint()) {
					t.Errorf("crash serving run diverged:\n--- run1\n%s\n--- run2\n%s",
						a.Fingerprint(), b.Fingerprint())
				}
			})
		}
	}
}

// TestServeCrashRerouting: a mid-window crash must actually be seen by the
// serving layer (lost attempts counted) and absorbed by it (reroutes
// recover some of them), while request conservation still closes:
// admitted == completed + failed, with give-ups inside failed.
func TestServeCrashRerouting(t *testing.T) {
	for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		t.Run(baseline, func(t *testing.T) {
			res := mustServe(t, crashConfig(PolicySLOAware, baseline, 3, crashPlan))
			if res.Fleet.HostCrashes == 0 {
				t.Fatal("no crash fired")
			}
			if res.CrashLost == 0 {
				t.Error("crash killed no start attempts; reroute path untested")
			}
			if res.Rerouted == 0 {
				t.Error("no attempt was rerouted")
			}
			if res.Rerouted+res.CrashGiveups != res.CrashLost {
				t.Errorf("lost %d != rerouted %d + gaveup %d",
					res.CrashLost, res.Rerouted, res.CrashGiveups)
			}
			if res.Admitted != res.Completed+res.Failed {
				t.Errorf("admitted %d != completed %d + failed %d",
					res.Admitted, res.Completed, res.Failed)
			}
			if res.CrashGiveups > res.Failed {
				t.Errorf("give-ups %d exceed failures %d", res.CrashGiveups, res.Failed)
			}
			if !res.Fleet.Leaks.Clean() {
				t.Errorf("fleet audit dirty under serving crash churn:\n%s", res.Fleet.Leaks)
			}
		})
	}
}

// TestServeCrashTraceBinding: rerouted attempts mint fresh container ids,
// so the trace layer's one-proc-per-container binding (and the critical
// path extraction built on it) must keep working across a crash.
func TestServeCrashTraceBinding(t *testing.T) {
	cfg := crashConfig(PolicyFIFO, cluster.BaselineFastIOV, 5, crashPlan)
	cfg.Trace = true
	res := mustServe(t, cfg)
	if res.Fleet.HostCrashes == 0 || res.CrashLost == 0 {
		t.Fatal("crash/reroute did not fire; binding property untested")
	}
	// mustServe already fails the test if critical-path verification (run
	// inside fleet.Finish for traced runs) rejects the binding.
	if res.Fleet.Trace == nil {
		t.Fatal("trace missing")
	}
}

// TestServeAdmissionSeesShrunkenFleet: while a host is down the admission
// view's free-VF headroom (the sampled fleet_free_vfs gauge feeds the same
// FreeVFHeadroom signal) excludes the dead host's whole pool, so
// capacity-sensitive policies see the shrunken fleet immediately.
func TestServeAdmissionSeesShrunkenFleet(t *testing.T) {
	// No recovery: host 0 (the full 256-VF profile) stays dark for the
	// rest of the window.
	cfg := crashConfig(PolicySLOAware, cluster.BaselineVanilla, 9, "host-crash@500ms:host=0")
	res := mustServe(t, cfg)
	if res.Fleet.HostCrashes != 1 {
		t.Fatalf("%d crashes, want 1", res.Fleet.HostCrashes)
	}
	headroom := res.Fleet.Metrics.Series(MetricHeadroom)
	raw := res.Fleet.Metrics.Series(fleet.MetricFleetFreeVFs)
	if len(headroom) < 4 || len(raw) != len(headroom) {
		t.Fatalf("bad sample counts: headroom %d raw %d", len(headroom), len(raw))
	}
	// Host 0 is the full DefaultHostSpec 256-VF profile; once the heartbeat
	// monitor flips it Down the admission headroom must shed its whole pool
	// (host 1's cap is 128) while the raw free-VF gauge still counts the
	// corpse's stranded pool.
	first, last := headroom[0], headroom[len(headroom)-1]
	if first <= 256 {
		t.Fatalf("pre-crash headroom %v does not cover host 0's pool", first)
	}
	if last > 128 {
		t.Errorf("post-crash admission headroom %v still counts the dead host", last)
	}
	if rawLast := raw[len(raw)-1]; rawLast <= 128 {
		t.Errorf("raw free-VF gauge %v lost the dead host's pool; contrast property is vacuous", rawLast)
	}
}

// TestServeCrashMetricsGated: the crash instruments register only under
// host-fault plans, so fault-free metric output is byte-identical to
// pre-failure-domain builds.
func TestServeCrashMetricsGated(t *testing.T) {
	plain := mustServe(t, testConfig(PolicyFIFO, cluster.BaselineVanilla, 2))
	if m := plain.Fleet.Metrics; m == nil {
		t.Fatal("metrics registry missing")
	} else if s := m.Series(MetricCrashLost); s != nil {
		t.Error("crash-lost instrument registered on a fault-free run")
	}
	crashed := mustServe(t, crashConfig(PolicyFIFO, cluster.BaselineVanilla, 2, crashPlan))
	if s := crashed.Fleet.Metrics.Series(MetricCrashLost); s == nil {
		t.Error("crash-lost instrument missing under a host-crash plan")
	}
}

// TestServeAllHostsDownGiveUp: with every host crashed and no recovery, the
// serving layer must not hot-spin — admitted requests back off and give up
// within their SLO budget, and the run drains.
func TestServeAllHostsDownGiveUp(t *testing.T) {
	cfg := crashConfig(PolicyFIFO, cluster.BaselineVanilla, 4,
		"host-crash@400ms:host=0;host-crash@400ms:host=1")
	res := mustServe(t, cfg)
	if res.Fleet.HostCrashes != 2 {
		t.Fatalf("%d crashes, want 2", res.Fleet.HostCrashes)
	}
	if res.CrashGiveups == 0 {
		t.Error("dark fleet produced no give-ups")
	}
	if res.Admitted != res.Completed+res.Failed {
		t.Errorf("admitted %d != completed %d + failed %d",
			res.Admitted, res.Completed, res.Failed)
	}
	if !res.Fleet.Leaks.Clean() {
		t.Errorf("dark-fleet audit dirty:\n%s", res.Fleet.Leaks)
	}
}
