package experiments

// Regression coverage for the boot-prefix snapshot cache: every scenario
// must fingerprint byte-identically with snapshot caching on and off. The
// snapshots-off executor re-simulates each boot from scratch and is the
// reference; the snapshots-on executor boots once per (boot inputs, seed)
// and clones. The spec matrix deliberately crosses the cache-key
// dimensions — baseline, tracing, metrics, faults, scrubber, arrival
// process, scenario kind, executor-wide observers — including scenarios
// that share one cached boot.

import (
	"bytes"
	"testing"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/harness"
	"fastiov/internal/serverless"
)

func transparencySpecs(t *testing.T) ([]startupSpec, []serverlessSpec) {
	t.Helper()
	pl, err := fault.ParsePlan("vfio-reset:p=0.2;dma-map:every=7")
	if err != nil {
		t.Fatal(err)
	}
	startups := []startupSpec{
		{bootSpec: bootSpec{Baseline: cluster.BaselineVanilla}, N: 40},
		// Same boot inputs as above, different wave: must share the cached
		// boot yet produce its own (Poisson) arrival pattern.
		{bootSpec: bootSpec{Baseline: cluster.BaselineVanilla}, N: 25,
			Arrival: &cluster.Arrival{Kind: cluster.ArrivalPoisson, RatePerSec: 200}},
		{bootSpec: bootSpec{Baseline: cluster.BaselineFastIOV, env: env{Observe: ObserveTrace}}, N: 40},
		{bootSpec: bootSpec{Baseline: cluster.BaselineFastIOV, env: env{Observe: ObserveMetrics}}, N: 30},
		{bootSpec: bootSpec{Baseline: cluster.BaselinePre50, DisableScrubber: true}, N: 20},
		{bootSpec: bootSpec{Baseline: cluster.BaselineFastIOV, env: env{Faults: pl}}, N: 30},
	}
	// A serverless scenario on the first startup's boot inputs: the two
	// scenario kinds must share one cached boot.
	serverlessRuns := []serverlessSpec{
		{bootSpec: bootSpec{Baseline: cluster.BaselineVanilla}, N: 12, App: serverless.Image},
	}
	return startups, serverlessRuns
}

// fingerprints executes the specs on one executor and returns each primary
// result's canonical fingerprint.
func fingerprints[S scenario[T], T any](t *testing.T, x *Exec, specs []S) [][]byte {
	t.Helper()
	results, err := runAll(x, specs)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([][]byte, len(results))
	for i, m := range results {
		fps[i] = specs[i].fingerprint(m.Primary())
	}
	return fps
}

// sameFingerprints fails for every scenario whose snapshot-cached result
// diverges from its from-scratch reference.
func sameFingerprints[S scenario[T], T any](t *testing.T, ref, snapped *Exec, specs []S) {
	t.Helper()
	want, got := fingerprints(t, ref, specs), fingerprints(t, snapped, specs)
	for i := range specs {
		if !bytes.Equal(want[i], got[i]) {
			off, detail := harness.FirstDivergence(want[i], got[i])
			t.Errorf("%s spec %d (%s): snapshot-cached result diverges from from-scratch boot at byte %d: %s",
				specs[i].scope(), i, specs[i].params(), off, detail)
		}
	}
}

// TestSnapshotCacheTransparency compares every scenario's fingerprint
// across snapshots-off (reference) and snapshots-on executors, with
// verification enabled on the snapshot path so each cached boot is also
// double-booted and byte-compared. It runs once with no executor-wide
// observers and once with tracing and metrics on executor-wide, which the
// scenarios must inherit into both their results and their boot keys.
func TestSnapshotCacheTransparency(t *testing.T) {
	startups, serverlessRuns := transparencySpecs(t)
	seeds := []uint64{1, 2}
	for _, tc := range []struct {
		observe Observe
		// boots is the number of distinct boot inputs across the specs:
		// the three vanilla scenarios share one, and executor-wide tracing
		// plus metrics merges the traced and the metered FastIOV boots.
		boots int
	}{
		{0, 5},
		{ObserveTrace | ObserveMetrics, 4},
	} {
		ref := NewExec(2, seeds)
		ref.SetSnapshots(false)
		ref.SetObserve(tc.observe)
		snapped := NewExec(2, seeds)
		snapped.SetVerify(true)
		snapped.SetObserve(tc.observe)
		if !snapped.Snapshots() {
			t.Fatal("snapshot caching must be on by default")
		}
		sameFingerprints(t, ref, snapped, startups)
		sameFingerprints(t, ref, snapped, serverlessRuns)

		// Every scenario job runs twice under verification and each run
		// requests its boot, so each distinct boot simulates once per seed
		// and every other boot request is a cache hit.
		jobs := (len(startups) + len(serverlessRuns)) * len(seeds)
		want := CacheStats{Runs: jobs + tc.boots*len(seeds), Hits: 2*jobs - tc.boots*len(seeds), Verified: jobs + tc.boots*len(seeds)}
		if st := snapped.CacheStats(); st != want {
			t.Errorf("observe=%b: cache traffic %+v, want %+v", tc.observe, st, want)
		}
	}
}

// TestSnapshotToggleRoundTrip pins the setter semantics used by the CLI's
// -snapshots flag.
func TestSnapshotToggleRoundTrip(t *testing.T) {
	x := NewExec(1, nil)
	if !x.Snapshots() {
		t.Fatal("snapshots must default on")
	}
	x.SetSnapshots(false)
	if x.Snapshots() {
		t.Fatal("SetSnapshots(false) did not stick")
	}
}
