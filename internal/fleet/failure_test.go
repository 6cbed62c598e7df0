package fleet

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
)

// mustPlan parses a fault-plan string through the public grammar so the
// failure-domain tests exercise the host-clause syntax end to end.
func mustPlan(t *testing.T, s string) *fault.Plan {
	t.Helper()
	pl, err := fault.ParsePlan(s)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", s, err)
	}
	return pl
}

// hostCrashCfg is the failure-domain test fleet: arrivals spread over the
// default 2s jitter so crash clauses in the hundreds of milliseconds land
// mid-burst.
func hostCrashCfg(baseline, policy string, seed uint64, plan *fault.Plan) Config {
	return Config{
		Baseline:  baseline,
		Policy:    policy,
		HostSpecs: HeterogeneousSpecs(4),
		Requests:  32,
		Seed:      seed,
		Faults:    plan,
		Audit:     true,
	}
}

// TestHostCrashConservation sweeps crash plans × baselines × seeds and
// requires the ledger-adjusted fleet audit to close to identically zero:
// a crash releases nothing, but everything it strands is on the
// LostToCrash ledger, so conservation still balances fleet-wide.
func TestHostCrashConservation(t *testing.T) {
	plans := map[string]string{
		"crash-only":      "host-crash@400ms:host=1",
		"crash-recover":   "host-crash@400ms:host=1;host-recover=300ms",
		"crash-mtbf":      "host-crash@300ms:host=0,mtbf=900ms;host-recover=200ms",
		"two-hosts":       "host-crash@250ms:host=0;host-crash@700ms:host=2;host-recover=350ms",
		"crash-and-sites": "host-crash@500ms:host=1;vfio-reset:p=0.05;scrubber:p=0.05,lat=2;host-recover=250ms",
	}
	for name, ps := range plans {
		for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
			for _, seed := range []uint64{1, 7} {
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, baseline, seed), func(t *testing.T) {
					res, err := Run(hostCrashCfg(baseline, PolicyLeastLoaded, seed, mustPlan(t, ps)))
					if err != nil {
						t.Fatal(err)
					}
					if res.HostCrashes == 0 {
						t.Fatal("no host crash fired; the property is vacuous")
					}
					if res.Ledger.Len() != res.HostCrashes {
						t.Errorf("ledger has %d entries for %d crashes", res.Ledger.Len(), res.HostCrashes)
					}
					if res.Started+res.Rejected+res.LostStarts != res.Requests {
						t.Errorf("started %d + rejected %d + lost %d != requests %d",
							res.Started, res.Rejected, res.LostStarts, res.Requests)
					}
					for i, rep := range res.PerHost {
						if !rep.Clean() {
							t.Errorf("host %d dirty under crash churn:\n%s", i, rep)
						}
					}
					if !res.Leaks.Clean() {
						t.Errorf("ledger-adjusted fleet audit dirty:\n%s", res.Leaks)
					}
				})
			}
		}
	}
}

// TestCrashResultDoesNotPinFleet: a host-crash run's Result carries the
// LostToCrash ledger by value, so holding the Result does not keep the
// Fleet (its kernel, hosts, event queue and coroutine records) alive.
func TestCrashResultDoesNotPinFleet(t *testing.T) {
	collected := make(chan struct{})
	res := func() *Result {
		f, err := New(hostCrashCfg(cluster.BaselineFastIOV, PolicyLeastLoaded, 1,
			mustPlan(t, "host-crash@400ms:host=1")))
		if err != nil {
			t.Fatal(err)
		}
		// A finalizer never runs on an object in a reference cycle, and the
		// fleet is in several (procs and their kernel), so the sentinel is
		// a leaf only the fleet holds: its placement-count array.
		runtime.SetFinalizer(&f.placements[0], func(*int) { close(collected) })
		return f.Run()
	}()
	if res.Err != nil || res.Ledger.Len() == 0 {
		t.Fatalf("want a crash run with a ledger: err %v, %d entries", res.Err, res.Ledger.Len())
	}
	for range 20 {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(res)
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("the fleet is still reachable while its result is held")
}

// TestHostCrashDeterminism double-runs a crashing, recovering, re-arming
// fleet and requires byte-identical fingerprints — crashes are simulation
// events like any other.
func TestHostCrashDeterminism(t *testing.T) {
	plan := "host-crash@300ms:host=0,mtbf=800ms;daemon-crash@450ms:host=1;host-recover=250ms"
	for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		for _, policy := range Policies() {
			t.Run(baseline+"/"+policy, func(t *testing.T) {
				cfg := hostCrashCfg(baseline, policy, 5, mustPlan(t, plan))
				a, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Fingerprint(), b.Fingerprint()) {
					t.Errorf("crash run diverged:\n--- run1\n%s\n--- run2\n%s",
						a.Fingerprint(), b.Fingerprint())
				}
			})
		}
	}
}

// TestRecoveryAsymmetry is the PR's headline property: re-booting a crashed
// vanilla host re-zeroes its whole VF pool serially (the recovery-time
// cliff), while FastIOV reloads fastiovd and only re-registers the scrub
// tracking — its recovery curve stays near-flat.
func TestRecoveryAsymmetry(t *testing.T) {
	plan := "host-crash@400ms:host=0;host-recover=200ms"
	recovery := func(baseline string) time.Duration {
		cfg := hostCrashCfg(baseline, PolicyLeastLoaded, 3, mustPlan(t, plan))
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recoveries) != 1 {
			t.Fatalf("%s: %d recoveries, want 1", baseline, len(res.Recoveries))
		}
		return res.MaxRecovery()
	}
	van := recovery(cluster.BaselineVanilla)
	fast := recovery(cluster.BaselineFastIOV)
	// Host 0 is the full 256-VF testbed profile: vanilla pays 256 serial
	// device resets (~2s); FastIOV pays one reset plus nanoseconds per
	// tracked page.
	if van < time.Second {
		t.Errorf("vanilla recovery %v, want the full-pool re-zeroing cliff (>1s)", van)
	}
	if fast >= van/10 {
		t.Errorf("FastIOV recovery %v not near-flat vs vanilla %v", fast, van)
	}
}

// TestDaemonCrashFailover: a fastiovd crash loses only the scrubber's
// volatile queue — the new daemon instance rebuilds it from the two-tier
// table, the conservation audit stays clean, and on vanilla (no daemon to
// crash) the clause is a no-op.
func TestDaemonCrashFailover(t *testing.T) {
	plan := "daemon-crash@600ms:host=0,mtbf=500ms"
	f, err := New(hostCrashCfg(cluster.BaselineFastIOV, PolicyRoundRobin, 2, mustPlan(t, plan)))
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.DaemonCrashes == 0 {
		t.Fatal("no daemon crash fired")
	}
	if got := f.Hosts[0].Lazy.ScrubberRestarts; got != res.DaemonCrashes {
		t.Errorf("host 0 scrubber restarted %d times for %d daemon crashes", got, res.DaemonCrashes)
	}
	if res.HostCrashes != 0 || res.Ledger != nil {
		t.Errorf("daemon crash touched the host ledger: crashes=%d ledger=%v", res.HostCrashes, res.Ledger)
	}
	if !res.Leaks.Clean() {
		t.Errorf("audit dirty after daemon failover:\n%s", res.Leaks)
	}

	vres, err := Run(hostCrashCfg(cluster.BaselineVanilla, PolicyRoundRobin, 2, mustPlan(t, plan)))
	if err != nil {
		t.Fatal(err)
	}
	if vres.DaemonCrashes != 0 {
		t.Errorf("vanilla counted %d daemon crashes with no daemon loaded", vres.DaemonCrashes)
	}
}

// TestAllHostsDownEndToEnd: with every host crashed and no recovery, the
// heartbeat monitor flips the fleet dark and every later request is an
// explicit scheduler rejection — and the dead fleet still audits to zero
// through the ledger.
func TestAllHostsDownEndToEnd(t *testing.T) {
	cfg := Config{
		Baseline:  cluster.BaselineVanilla,
		Policy:    PolicyVFAware,
		HostSpecs: HeterogeneousSpecs(2),
		Requests:  24,
		Seed:      4,
		Faults:    mustPlan(t, "host-crash@200ms:host=0;host-crash@200ms:host=1"),
		Audit:     true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostCrashes != 2 {
		t.Fatalf("%d host crashes, want 2", res.HostCrashes)
	}
	if res.Rejected == 0 {
		t.Error("dark fleet rejected nothing")
	}
	if res.Started+res.Rejected+res.LostStarts != res.Requests {
		t.Errorf("started %d + rejected %d + lost %d != requests %d",
			res.Started, res.Rejected, res.LostStarts, res.Requests)
	}
	if len(res.Recoveries) != 0 {
		t.Errorf("%d recoveries with no host-recover clause", len(res.Recoveries))
	}
	for i, rep := range res.PerHost {
		if !rep.Clean() {
			t.Errorf("dead host %d report dirty:\n%s", i, rep)
		}
	}
	if !res.Leaks.Clean() {
		t.Errorf("dead fleet audit dirty:\n%s", res.Leaks)
	}
}

// TestCrashClauseOutOfRange: a clause targeting a host the fleet doesn't
// have is a configuration error, not a silent no-op.
func TestCrashClauseOutOfRange(t *testing.T) {
	cfg := hostCrashCfg(cluster.BaselineVanilla, PolicyRoundRobin, 1,
		mustPlan(t, "host-crash@1s:host=9"))
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a crash clause targeting host 9 of a 4-host fleet")
	}
}

// TestHostFaultsObserverTransparency: tracing/metering a crashing fleet
// must not change its canonical bytes, same contract as fault-free runs.
func TestHostFaultsObserverTransparency(t *testing.T) {
	plan := "host-crash@350ms:host=1;host-recover=300ms"
	base := hostCrashCfg(cluster.BaselineFastIOV, PolicyVFAware, 6, mustPlan(t, plan))
	base.Audit = false
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hostCrashCfg(cluster.BaselineFastIOV, PolicyVFAware, 6, mustPlan(t, plan))
	cfg.Trace = true
	cfg.Metrics = true
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.HostCrashes == 0 {
		t.Fatal("no crash fired")
	}
	if !bytes.Equal(plain.Canonical(), observed.Canonical()) {
		t.Errorf("observers changed crashing-run canonical bytes:\n--- plain\n%s\n--- observed\n%s",
			plain.Canonical(), observed.Canonical())
	}
}

// TestCrashedGenerationsVerified pins that a traced fleet verifies the
// critical path of every completed start, on every host generation: the
// count Finish verified must equal the fleet's completed starts, and must
// exceed what the live generations' recorders hold, so starts that
// completed on a generation a crash later replaced are checked too.
func TestCrashedGenerationsVerified(t *testing.T) {
	plans := []string{
		"host-crash@1500ms:host=0;host-recover=200ms",
		"host-crash@1200ms:host=0;host-crash@1600ms:host=2;host-recover=200ms",
	}
	for _, ps := range plans {
		for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
			t.Run(baseline+"/"+ps, func(t *testing.T) {
				cfg := hostCrashCfg(baseline, PolicyLeastLoaded, 1, mustPlan(t, ps))
				cfg.Trace = true
				f, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := f.Run()
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				if len(res.Recoveries) == 0 {
					t.Fatal("no host recovered; the property is vacuous")
				}
				live := 0
				for _, h := range f.Hosts {
					for _, id := range h.Rec.Traces() {
						if h.Rec.Total(id) != 0 {
							live++
						}
					}
				}
				if res.VerifiedPaths != res.Totals.N() {
					t.Errorf("verified %d critical paths, want one per completed start (%d)",
						res.VerifiedPaths, res.Totals.N())
				}
				if res.VerifiedPaths <= live {
					t.Errorf("verified %d critical paths, no more than the %d on live generations",
						res.VerifiedPaths, live)
				}
			})
		}
	}
}
