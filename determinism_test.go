package fastiov_test

import (
	"bytes"
	"testing"

	"fastiov"
	"fastiov/internal/trace"
)

// testConcurrency keeps the property test fast: defConc(20) expands to a
// {10, 50, 20} sweep for sweep-style experiments and a straight n=20 for
// the rest, exercising every runner well below paper scale.
const testConcurrency = 20

// seedInsensitive lists experiments whose report legitimately does not
// change with the seed: they measure deterministic machinery with no
// arrival jitter or placement randomness on the measured path.
var seedInsensitive = map[string]string{
	"sec6.5":       "single-container fault-count/elapsed measurement over a fixed access sweep; no randomness on the measured path",
	"bg-dataplane": "single-container packet streaming through fixed cost models; start jitter does not affect throughput or latency",
}

// runAt executes one experiment on a fresh single-worker suite pinned to
// one seed and returns the report's canonical encoding.
func runAt(t *testing.T, id string, seed uint64) []byte {
	t.Helper()
	s := fastiov.NewSuite(fastiov.RunConfig{Workers: 1, Seeds: []uint64{seed}})
	rep, err := s.Run(id, testConcurrency)
	if err != nil {
		t.Fatalf("%s @seed=%d: %v", id, seed, err)
	}
	return rep.Encode()
}

// TestExperimentDeterminism is the suite-wide determinism property: every
// registered experiment, run twice at the same seed on fresh suites, must
// produce byte-identical reports; run at a different seed, the report must
// change (unless the experiment is documented seed-insensitive).
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry property test")
	}
	for _, e := range fastiov.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			a := runAt(t, e.ID, 7)
			b := runAt(t, e.ID, 7)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: two runs at seed 7 diverge:\n--- run1 ---\n%s\n--- run2 ---\n%s", e.ID, a, b)
			}
			c := runAt(t, e.ID, 8)
			if why, ok := seedInsensitive[e.ID]; ok {
				if !bytes.Equal(a, c) {
					t.Errorf("%s is listed seed-insensitive (%s) but seed 8 changed the report", e.ID, why)
				}
				return
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s: seed 8 produced the same report as seed 7 — seed is not reaching the simulation", e.ID)
			}
		})
	}
}

// faultSpec is a non-trivial plan exercising every injection mechanism:
// probabilistic failures, scripted every-Nth failures, latency inflation,
// and deterministic crash@<stage> startup aborts (which force the
// compensating-rollback path — and, because every harness run is
// leak-audited, prove registry-wide that rollback strands nothing).
const faultSpec = "cni-add:p=0.05;crash@boot:every=9;crash@dma:every=6;dma-map:every=5;mem-bw:lat=1.4;scrubber:p=0.3,lat=2;vfio-reset:p=0.08"

// runFaultedAt is runAt with the fault plan installed suite-wide.
func runFaultedAt(t *testing.T, id string, seed uint64) []byte {
	t.Helper()
	s := fastiov.NewSuite(fastiov.RunConfig{Workers: 1, Seeds: []uint64{seed}, FaultSpec: faultSpec})
	rep, err := s.Run(id, testConcurrency)
	if err != nil {
		t.Fatalf("%s @seed=%d faults=%q: %v", id, seed, faultSpec, err)
	}
	return rep.Encode()
}

// TestExperimentDeterminismUnderFaults extends the determinism property to
// fault injection: every registered experiment, run twice at the same seed
// under a non-trivial fault plan, must produce byte-identical reports —
// injection decisions, retries, backoff jitter, and failure accounting all
// derive from the seed.
func TestExperimentDeterminismUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry property test")
	}
	for _, e := range fastiov.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			a := runFaultedAt(t, e.ID, 7)
			b := runFaultedAt(t, e.ID, 7)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: two faulted runs at seed 7 diverge:\n--- run1 ---\n%s\n--- run2 ---\n%s", e.ID, a, b)
			}
		})
	}
}

// TestFaultsReachTheSimulation pins the complement: the fault plan must
// actually change a startup-path report, or the whole chaos surface is
// dead code.
func TestFaultsReachTheSimulation(t *testing.T) {
	clean := runAt(t, "tab1", 7)
	faulted := runFaultedAt(t, "tab1", 7)
	if bytes.Equal(clean, faulted) {
		t.Errorf("fault plan %q left tab1 byte-identical to the fault-free run", faultSpec)
	}
}

// TestBadFaultSpecSurfaces checks that a malformed RunConfig.FaultSpec is
// reported from Run and from every Experiments entry (NewSuite keeps its
// error-free signature).
func TestBadFaultSpecSurfaces(t *testing.T) {
	if err := fastiov.ValidateFaultSpec("vfio-reset:p=2"); err == nil {
		t.Error("ValidateFaultSpec accepted p=2")
	}
	s := fastiov.NewSuite(fastiov.RunConfig{Workers: 1, FaultSpec: "bogus-site:p=0.1"})
	if _, err := s.Run("tab1", testConcurrency); err == nil {
		t.Error("suite with malformed fault spec ran anyway")
	}
	for _, e := range s.Experiments() {
		if e.ID != "tab1" {
			continue
		}
		if _, err := e.Run(testConcurrency); err == nil {
			t.Error("Experiments entry of a suite with malformed fault spec ran anyway")
		}
	}
}

// TestSuiteVerifyDeterminism exercises the public verification mode on a
// representative experiment: parallel execution through the pool must be
// byte-equivalent to serial execution.
func TestSuiteVerifyDeterminism(t *testing.T) {
	s := fastiov.NewSuite(fastiov.RunConfig{
		Workers:           4,
		Seeds:             fastiov.SeedList(2),
		VerifyDeterminism: true,
	})
	if err := s.VerifyDeterminism("fig11", testConcurrency); err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Verified == 0 {
		t.Error("verify mode recorded no verified runs")
	}
}

// TestSuiteSharedCache checks the cross-experiment scenario cache: fig5 and
// tab1 render different views of the same vanilla startup scenario, so the
// second experiment must hit the cache instead of re-simulating.
func TestSuiteSharedCache(t *testing.T) {
	s := fastiov.NewSuite(fastiov.RunConfig{Workers: 1})
	if _, err := s.Run("fig5", testConcurrency); err != nil {
		t.Fatal(err)
	}
	runsAfterFirst := s.CacheStats().Runs
	if _, err := s.Run("tab1", testConcurrency); err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Runs != runsAfterFirst {
		t.Errorf("tab1 re-simulated a scenario fig5 already ran: runs %d -> %d", runsAfterFirst, st.Runs)
	}
	if st.Hits == 0 {
		t.Error("no cache hits recorded across fig5+tab1")
	}
}

// runTracedAt is runAt with event-sourced tracing enabled suite-wide.
func runTracedAt(t *testing.T, id string, seed uint64) []byte {
	t.Helper()
	s := fastiov.NewSuite(fastiov.RunConfig{Workers: 1, Seeds: []uint64{seed}, Trace: true})
	rep, err := s.Run(id, testConcurrency)
	if err != nil {
		t.Fatalf("%s @seed=%d traced: %v", id, seed, err)
	}
	return rep.Encode()
}

// TestTracingIsTransparent is the observer-effect property: enabling
// tracing must not change any experiment's rendered report. The probes
// record passively — every registered experiment run with RunConfig.Trace
// must render byte-identically to the untraced run at the same seed. (The
// determinism *fingerprint* gains a trace digest, but the report tables,
// text, and notes — everything Encode covers — must not move.) Because
// every traced startup also verifies the critical-path identity in-run
// (service + blocked + runnable == end-to-end total per container, see
// trace.VerifyCriticalPaths), a passing traced run additionally proves the
// decomposition sums exactly to the recorder's totals for every experiment
// in the registry.
func TestTracingIsTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry property test")
	}
	for _, e := range fastiov.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			if e.ID == "contention" {
				// The one experiment whose report is built FROM traces: it
				// pins tracing on regardless of RunConfig, so transparency
				// trivially holds; assert determinism instead.
				a, b := runTracedAt(t, e.ID, 7), runTracedAt(t, e.ID, 7)
				if !bytes.Equal(a, b) {
					t.Fatalf("contention: two traced runs at seed 7 diverge")
				}
				return
			}
			plain := runAt(t, e.ID, 7)
			traced := runTracedAt(t, e.ID, 7)
			if !bytes.Equal(plain, traced) {
				t.Fatalf("%s: tracing perturbed the report:\n--- untraced ---\n%s\n--- traced ---\n%s", e.ID, plain, traced)
			}
		})
	}
}

// TestTracedCriticalPathIdentity spells the decomposition invariant out on
// one explicit host run instead of relying on the suite's in-run check: for
// every completed container, service + blocked + runnable == the recorder's
// end-to-end total, and in this discrete-event simulation wakeups are
// instantaneous, so runnable is exactly zero.
func TestTracedCriticalPathIdentity(t *testing.T) {
	for _, baseline := range []string{fastiov.BaselineVanilla, fastiov.BaselineFastIOV} {
		opts, err := fastiov.OptionsFor(baseline)
		if err != nil {
			t.Fatal(err)
		}
		opts.Seed = 7
		opts.Trace = true
		h, err := fastiov.NewHost(fastiov.DefaultHostSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res := h.StartupExperiment(testConcurrency)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		a, err := trace.Analyze(res.Trace)
		if err != nil {
			t.Fatalf("%s: %v", baseline, err)
		}
		paths, err := a.CriticalPaths(res.Recorder)
		if err != nil {
			t.Fatalf("%s: %v", baseline, err)
		}
		if len(paths) != testConcurrency {
			t.Fatalf("%s: decomposed %d containers, want %d", baseline, len(paths), testConcurrency)
		}
		for _, d := range paths {
			if got := d.Service + d.BlockedTotal() + d.Runnable; got != d.Total {
				t.Errorf("%s ctr %d: service %v + blocked %v + runnable %v = %v != total %v",
					baseline, d.Container, d.Service, d.BlockedTotal(), d.Runnable, got, d.Total)
			}
			if d.Total != res.Recorder.Total(d.Container) {
				t.Errorf("%s ctr %d: decomposition total %v != recorder total %v",
					baseline, d.Container, d.Total, res.Recorder.Total(d.Container))
			}
			if d.Runnable != 0 {
				t.Errorf("%s ctr %d: runnable = %v, want 0 (DES wakeups are instantaneous)",
					baseline, d.Container, d.Runnable)
			}
		}
	}
}

// TestAuditIsTransparent is the acceptance property of the leak-audit
// layer: enabling Options.Audit on a fault-free run must not move a single
// byte of the measured output — the teardown phase runs after every
// telemetry mark, consumes no randomness, and (on traced runs) detaches
// the probe first, so the recorder, totals, and trace fingerprint are
// identical with auditing on or off. Only Result.Leaks appears, and it must
// be clean.
func TestAuditIsTransparent(t *testing.T) {
	for _, baseline := range []string{fastiov.BaselineVanilla, fastiov.BaselineFastIOV, fastiov.BaselineRebind} {
		for _, traced := range []bool{false, true} {
			run := func(auditOn bool) *fastiov.Result {
				opts, err := fastiov.OptionsFor(baseline)
				if err != nil {
					t.Fatal(err)
				}
				opts.Seed = 7
				opts.Trace = traced
				opts.Audit = auditOn
				h, err := fastiov.NewHost(fastiov.DefaultHostSpec(), opts)
				if err != nil {
					t.Fatal(err)
				}
				res := h.StartupExperiment(testConcurrency)
				if res.Err != nil {
					t.Fatalf("%s traced=%v audit=%v: %v", baseline, traced, auditOn, res.Err)
				}
				return res
			}
			plain, audited := run(false), run(true)
			if a, b := plain.Recorder.AppendCanonical(nil), audited.Recorder.AppendCanonical(nil); !bytes.Equal(a, b) {
				t.Errorf("%s traced=%v: auditing moved the telemetry record", baseline, traced)
			}
			if traced {
				if plain.Trace.Len() != audited.Trace.Len() || plain.Trace.Fingerprint() != audited.Trace.Fingerprint() {
					t.Errorf("%s: auditing moved the trace stream: %d/%016x vs %d/%016x", baseline,
						plain.Trace.Len(), plain.Trace.Fingerprint(), audited.Trace.Len(), audited.Trace.Fingerprint())
				}
			}
			if plain.Leaks != nil {
				t.Errorf("%s traced=%v: unaudited run populated Leaks", baseline, traced)
			}
			if audited.Leaks == nil || !audited.Leaks.Clean() {
				t.Errorf("%s traced=%v: audited run not clean: %v", baseline, traced, audited.Leaks)
			}
		}
	}
}

// TestMultiSeedChangesEstimates checks that sweeping seeds actually feeds
// the confidence intervals: a two-seed run must differ from a one-seed run.
func TestMultiSeedChangesEstimates(t *testing.T) {
	one := fastiov.NewSuite(fastiov.RunConfig{Workers: 1, Seeds: fastiov.SeedList(1)})
	two := fastiov.NewSuite(fastiov.RunConfig{Workers: 1, Seeds: fastiov.SeedList(2)})
	rep1, err := one.Run("fig11", testConcurrency)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := two.Run("fig11", testConcurrency)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rep1.Encode(), rep2.Encode()) {
		t.Error("two-seed sweep produced the same fig11 report as a single seed")
	}
}

// runMeteredAt is runAt with the simulated-time metrics subsystem enabled
// suite-wide.
func runMeteredAt(t *testing.T, id string, seed uint64) []byte {
	t.Helper()
	s := fastiov.NewSuite(fastiov.RunConfig{Workers: 1, Seeds: []uint64{seed}, Metrics: true})
	rep, err := s.Run(id, testConcurrency)
	if err != nil {
		t.Fatalf("%s @seed=%d metered: %v", id, seed, err)
	}
	return rep.Encode()
}

// TestMetricsAreTransparent is the zero-perturbation property of the
// metrics subsystem: enabling RunConfig.Metrics must not change any
// experiment's rendered report. Instruments are read-only closures, the
// sampler daemon only sleeps, and the probe observer never calls back into
// the scheduler — so a metered run renders byte-identically to an
// unmetered run at the same seed. (The determinism *fingerprint* gains a
// metrics digest, but nothing Encode covers may move.)
func TestMetricsAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry property test")
	}
	for _, e := range fastiov.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			if e.ID == "saturation" {
				// The one experiment whose report is built FROM metrics: it
				// pins metering on regardless of RunConfig, so transparency
				// trivially holds; assert determinism instead.
				a, b := runMeteredAt(t, e.ID, 7), runMeteredAt(t, e.ID, 7)
				if !bytes.Equal(a, b) {
					t.Fatalf("saturation: two metered runs at seed 7 diverge")
				}
				return
			}
			plain := runAt(t, e.ID, 7)
			metered := runMeteredAt(t, e.ID, 7)
			if !bytes.Equal(plain, metered) {
				t.Fatalf("%s: metrics perturbed the report:\n--- unmetered ---\n%s\n--- metered ---\n%s", e.ID, plain, metered)
			}
		})
	}
}

// TestExperimentDeterminismWithMetrics extends the determinism property to
// the metrics subsystem: every registered experiment, run twice at the
// same seed with metering on, must produce byte-identical reports — and
// because the metered run fingerprint folds in the registry's canonical
// exports, a pass extends byte-level reproducibility down to every sampled
// value.
func TestExperimentDeterminismWithMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry property test")
	}
	for _, e := range fastiov.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			a := runMeteredAt(t, e.ID, 7)
			b := runMeteredAt(t, e.ID, 7)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: two metered runs at seed 7 diverge:\n--- run1 ---\n%s\n--- run2 ---\n%s", e.ID, a, b)
			}
		})
	}
}

// TestStartupMetricsExportDeterminism checks the public one-shot metrics
// entry point renders byte-identical OpenMetrics, CSV, and dashboard
// exports across fresh runs at the same seed.
func TestStartupMetricsExportDeterminism(t *testing.T) {
	exports := func() [3][]byte {
		reg, err := fastiov.StartupMetrics(fastiov.BaselineVanilla, testConcurrency, 7)
		if err != nil {
			t.Fatal(err)
		}
		var om, csv bytes.Buffer
		if err := reg.WriteOpenMetrics(&om); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return [3][]byte{om.Bytes(), csv.Bytes(), []byte(reg.Dashboard(100))}
	}
	a, b := exports(), exports()
	for i, name := range []string{"OpenMetrics", "CSV", "dashboard"} {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("%s export differs across fresh runs at the same seed", name)
		}
	}
}
