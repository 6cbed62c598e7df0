package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/cri"
	"fastiov/internal/fault"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
	"fastiov/internal/telemetry"
)

// testFaultPlan mirrors the chaos experiment's plan shape: probabilistic
// failures across the classic sites plus latency inflation.
func testFaultPlan(p float64) *fault.Plan {
	pl := fault.NewPlan()
	pl.Set(fault.SiteVFIOReset, fault.Rule{Prob: p})
	pl.Set(fault.SiteDMAMap, fault.Rule{Prob: p / 2})
	pl.Set(fault.SiteCNIAdd, fault.Rule{Prob: p / 2})
	pl.Set(fault.SiteScrubber, fault.Rule{Prob: p, Latency: 2})
	pl.Set(fault.SiteMemBW, fault.Rule{Latency: 1 + p})
	return pl
}

func mustRun(t *testing.T, name string, n int) *Result {
	t.Helper()
	res, err := RunBaseline(name, n)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Totals.N() != n {
		t.Fatalf("%s: %d containers completed, want %d", name, res.Totals.N(), n)
	}
	return res
}

func TestNoNetStartupCompletes(t *testing.T) {
	res := mustRun(t, BaselineNoNet, 10)
	if mean := res.Totals.Mean(); mean <= 0 || mean > 5*time.Second {
		t.Errorf("no-net mean = %v, want sub-second-ish", mean)
	}
	if res.VFRelated.Max() != 0 {
		t.Error("no-net run recorded VF-related time")
	}
}

func TestVanillaSlowerThanNoNet(t *testing.T) {
	von := mustRun(t, BaselineVanilla, 50)
	non := mustRun(t, BaselineNoNet, 50)
	if von.Totals.Mean() <= non.Totals.Mean() {
		t.Errorf("vanilla (%v) should be slower than no-net (%v)",
			von.Totals.Mean(), non.Totals.Mean())
	}
}

func TestFastIOVFasterThanVanilla(t *testing.T) {
	van := mustRun(t, BaselineVanilla, 50)
	fio := mustRun(t, BaselineFastIOV, 50)
	if fio.Totals.Mean() >= van.Totals.Mean() {
		t.Errorf("fastiov (%v) should beat vanilla (%v)",
			fio.Totals.Mean(), van.Totals.Mean())
	}
	if fio.VFRelated.Mean() >= van.VFRelated.Mean() {
		t.Errorf("fastiov VF time (%v) should beat vanilla (%v)",
			fio.VFRelated.Mean(), van.VFRelated.Mean())
	}
}

func TestAblationVariantsBetweenVanillaAndFastIOV(t *testing.T) {
	van := mustRun(t, BaselineVanilla, 50).Totals.Mean()
	fio := mustRun(t, BaselineFastIOV, 50).Totals.Mean()
	for _, name := range []string{BaselineFastIOVL, BaselineFastIOVA, BaselineFastIOVS, BaselineFastIOVD} {
		v := mustRun(t, name, 50).Totals.Mean()
		if v < fio {
			t.Errorf("%s (%v) beat full FastIOV (%v): removing an optimization should not help", name, v, fio)
		}
		if v > van {
			t.Errorf("%s (%v) slower than vanilla (%v)", name, v, van)
		}
	}
}

func TestPreZeroingOrdering(t *testing.T) {
	van := mustRun(t, BaselineVanilla, 50).Totals.Mean()
	p10 := mustRun(t, BaselinePre10, 50).Totals.Mean()
	p100 := mustRun(t, BaselinePre100, 50).Totals.Mean()
	fio := mustRun(t, BaselineFastIOV, 50).Totals.Mean()
	if !(p100 <= p10 && p10 <= van) {
		t.Errorf("pre-zeroing not monotone: van=%v p10=%v p100=%v", van, p10, p100)
	}
	if fio >= p100 {
		t.Errorf("fastiov (%v) should beat pre100 (%v): pre-zeroing does not fix the devset lock", fio, p100)
	}
}

func TestIPvtapBetweenFastIOVAndVanilla(t *testing.T) {
	van := mustRun(t, BaselineVanilla, 50).Totals.Mean()
	ipv := mustRun(t, BaselineIPvtap, 50).Totals.Mean()
	fio := mustRun(t, BaselineFastIOV, 50).Totals.Mean()
	if ipv >= van {
		t.Errorf("ipvtap (%v) should beat vanilla SR-IOV (%v)", ipv, van)
	}
	if fio >= ipv {
		t.Errorf("fastiov (%v) should beat ipvtap (%v)", fio, ipv)
	}
}

func TestRebindFlawWorse(t *testing.T) {
	fixed := mustRun(t, BaselineVanilla, 30).Totals.Mean()
	rebind := mustRun(t, BaselineRebind, 30).Totals.Mean()
	if rebind <= fixed {
		t.Errorf("rebinding CNI (%v) should be slower than fixed (%v)", rebind, fixed)
	}
}

func TestNoSecurityViolationsAnyBaseline(t *testing.T) {
	for _, name := range Baselines() {
		opts, err := OptionsFor(name)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHost(DefaultHostSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res := h.StartupExperiment(30)
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		if h.Mem.Violations != 0 {
			t.Errorf("%s: %d residual-data exposures", name, h.Mem.Violations)
		}
		if h.Lazy != nil && h.Lazy.Corruptions != 0 {
			t.Errorf("%s: %d lazy-zeroing corruptions", name, h.Lazy.Corruptions)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := mustRun(t, BaselineVanilla, 25)
	b := mustRun(t, BaselineVanilla, 25)
	va, vb := a.Totals.Values(), b.Totals.Values()
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("runs diverge at container %d: %v vs %v", i, va[i], vb[i])
		}
	}
}

func TestVFRelatedShareGrowsWithConcurrency(t *testing.T) {
	small := mustRun(t, BaselineVanilla, 10)
	large := mustRun(t, BaselineVanilla, 100)
	shareSmall := float64(small.VFRelated.Mean()) / float64(small.Totals.Mean())
	shareLarge := float64(large.VFRelated.Mean()) / float64(large.Totals.Mean())
	if shareLarge <= shareSmall {
		t.Errorf("VF-related share should grow with concurrency: %.2f @10 vs %.2f @100",
			shareSmall, shareLarge)
	}
}

func TestVFIOStageDominatesVanilla(t *testing.T) {
	res := mustRun(t, BaselineVanilla, 100)
	rows := res.Recorder.Breakdown([]telemetry.Stage{
		telemetry.StageCgroup, telemetry.StageDMARAM, telemetry.StageVirtioFS,
		telemetry.StageDMAImage, telemetry.StageVFIODev, telemetry.StageVFDriver,
	})
	var vfioProp, maxOther float64
	for _, r := range rows {
		if r.Stage == telemetry.StageVFIODev {
			vfioProp = r.PropAvg
		} else if r.PropAvg > maxOther {
			maxOther = r.PropAvg
		}
	}
	if vfioProp <= maxOther {
		t.Errorf("4-vfio-dev (%.1f%%) should dominate all other stages (max %.1f%%)", vfioProp, maxOther)
	}
}

func TestTeardownReleasesResources(t *testing.T) {
	opts, _ := OptionsFor(BaselineFastIOV)
	h, err := NewHost(DefaultHostSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	freeVFs := h.NIC.FreeVFs()
	freePages := h.Mem.FreePages()
	res := h.StartupExperiment(20)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	h.K.Go("teardown", func(p *sim.Proc) {
		for _, sb := range res.Live() {
			if err := h.Eng.StopPodSandbox(p, sb); err != nil {
				t.Errorf("stop: %v", err)
			}
		}
	})
	h.K.Run()
	if h.NIC.FreeVFs() != freeVFs {
		t.Errorf("VFs leaked: %d free, want %d", h.NIC.FreeVFs(), freeVFs)
	}
	if h.Mem.FreePages() != freePages {
		t.Errorf("pages leaked: %d free, want %d", h.Mem.FreePages(), freePages)
	}
}

func TestUnknownBaselineRejected(t *testing.T) {
	if _, err := OptionsFor("nonsense"); err == nil {
		t.Error("unknown baseline accepted")
	}
}

// TestInvalidHostSpecRejected pins that a spec the substrates cannot be
// built from is an error from both boot entry points, not a panic.
func TestInvalidHostSpecRejected(t *testing.T) {
	opts, err := OptionsFor(BaselineFastIOV)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*HostSpec)
	}{
		{"negative VFs", func(s *HostSpec) { s.NumVFs = -1 }},
		{"VFs over card limit", func(s *HostSpec) { s.NumVFs = s.NIC.MaxVFs + 1 }},
		{"zero cores", func(s *HostSpec) { s.Cores = 0 }},
		{"zero page size", func(s *HostSpec) { s.Memory.PageSize = 0 }},
		{"memory below one page", func(s *HostSpec) { s.Memory.TotalBytes = s.Memory.PageSize - 1 }},
		{"zero zeroing streams", func(s *HostSpec) { s.Memory.ZeroStreams = 0 }},
		{"zero card VF limit", func(s *HostSpec) { s.NIC.MaxVFs = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := DefaultHostSpec()
			tc.edit(&spec)
			if _, err := NewHost(spec, opts); err == nil {
				t.Error("NewHost accepted the spec")
			}
			if _, err := RestoreSnapshot(&Snapshot{Spec: spec, Opts: opts}); err == nil {
				t.Error("RestoreSnapshot accepted the spec")
			}
		})
	}
}

// TestInvalidCostModelRejected pins that a cost model with a rate, chunk or
// batch that is not positive is an error naming the field, from both boot
// entry points, where a substrate would otherwise divide by it or loop on
// it. Zero durations stay legal: a zero poll interval turns polling off.
func TestInvalidCostModelRejected(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*cost.Model)
	}{
		{"ZeroBytesPerSec", func(c *cost.Model) { c.ZeroBytesPerSec = 0 }},
		{"ScrubPagesPerPass", func(c *cost.Model) { c.ScrubPagesPerPass = 0 }},
		{"LinkBps", func(c *cost.Model) { c.LinkBps = 0 }},
		{"VirtioBytesPerSec", func(c *cost.Model) { c.VirtioBytesPerSec = 0 }},
		{"VirtioChunk", func(c *cost.Model) { c.VirtioChunk = 0 }},
		{"ImageCopyBytesPerSec", func(c *cost.Model) { c.ImageCopyBytesPerSec = 0 }},
		{"CoalesceBatch", func(c *cost.Model) { c.CoalesceBatch = 0 }},
		{"VhostCopyBytesPerSec", func(c *cost.Model) { c.VhostCopyBytesPerSec = -1 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			opts, err := OptionsFor(BaselineFastIOV)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(&opts.Costs)
			if _, err := NewHost(DefaultHostSpec(), opts); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("NewHost: err = %v, want one naming %s", err, tc.field)
			}
			if _, err := RestoreSnapshot(&Snapshot{Spec: DefaultHostSpec(), Opts: opts}); err == nil {
				t.Error("RestoreSnapshot accepted the model")
			}
		})
	}
	opts, err := OptionsFor(BaselineVanilla)
	if err != nil {
		t.Fatal(err)
	}
	opts.Costs.AgentPollInterval = 0
	h, err := NewHost(DefaultHostSpec(), opts)
	if err != nil {
		t.Fatalf("a zero poll interval was rejected: %v", err)
	}
	if res := h.StartupExperiment(4); res.Err != nil {
		t.Fatal(res.Err)
	}
}

func TestVFExhaustion(t *testing.T) {
	opts, _ := OptionsFor(BaselineVanilla)
	spec := DefaultHostSpec()
	spec.NumVFs = 4
	h, err := NewHost(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := h.StartupExperiment(8)
	if res.Err == nil {
		t.Error("starting 8 containers with 4 VFs should fail")
	}
}

func TestStartupErrorsAggregated(t *testing.T) {
	// 8 containers racing for 4 VFs: every loser must surface in Result.Err,
	// not just the first — a concurrent wave can take several genuine
	// failures and dropping all but one hides real damage.
	opts, _ := OptionsFor(BaselineVanilla)
	spec := DefaultHostSpec()
	spec.NumVFs = 4
	h, err := NewHost(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := h.StartupExperiment(8)
	if res.Err == nil {
		t.Fatal("8 containers on 4 VFs succeeded")
	}
	joined, ok := res.Err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("Result.Err is not an aggregate: %v", res.Err)
	}
	if got := len(joined.Unwrap()); got != 4 {
		t.Errorf("aggregated %d errors, want 4 (one per VF-starved container): %v", got, res.Err)
	}
	if got := len(res.Live()); got != 4 {
		t.Errorf("Live() = %d sandboxes, want 4", got)
	}
	if len(res.Sandboxes) != 8 {
		t.Errorf("Sandboxes = %d entries, want 8 (index-aligned, nil for failures)", len(res.Sandboxes))
	}
}

func TestAuditPopulatesLeaksAndStaysClean(t *testing.T) {
	opts, _ := OptionsFor(BaselineFastIOV)
	opts.Audit = true
	h, err := NewHost(DefaultHostSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := h.StartupExperiment(20)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Leaks == nil {
		t.Fatal("audited run has nil Leaks")
	}
	if !res.Leaks.Clean() {
		t.Errorf("audited fault-free run is dirty:\n%s", res.Leaks)
	}
	// Unaudited runs must not populate (or tear down) anything.
	opts.Audit = false
	h2, err := NewHost(DefaultHostSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res2 := h2.StartupExperiment(20)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if res2.Leaks != nil {
		t.Error("unaudited run populated Leaks")
	}
	if res2.Leaks.Clean() {
		t.Error("nil leak report claims to be clean")
	}
}

// TestHostConservationUnderCrashChurn is the host-level alloc/free
// conservation property: churn waves under every combination of fault plan
// and crash point must end with a byte-clean audit against the boot
// baseline — the transaction either commits or compensates fully.
func TestHostConservationUnderCrashChurn(t *testing.T) {
	type tc struct {
		name  string
		base  string
		waves int
		n     int
		plan  func() *fault.Plan
	}
	crashAt := func(stages ...fault.CrashStage) func() *fault.Plan {
		return func() *fault.Plan {
			pl := testFaultPlan(0.05)
			for _, st := range stages {
				pl.Set(fault.CrashSite(st), fault.Rule{Prob: 0.25})
			}
			return pl
		}
	}
	cases := []tc{
		{"fault-free", BaselineFastIOV, 2, 10, fault.NewPlan},
		{"faults-only", BaselineFastIOV, 2, 10, func() *fault.Plan { return testFaultPlan(0.15) }},
		{"crash-every-stage", BaselineFastIOV, 3, 10, crashAt(fault.CrashStages()...)},
		{"crash-dma-rebind", BaselineRebind, 2, 8, crashAt(fault.CrashDMA)},
		{"crash-boot-rebind", BaselineRebind, 2, 8, crashAt(fault.CrashBoot)},
		{"crash-vhost-vanilla", BaselineVanilla, 2, 10, crashAt(fault.CrashVhost)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 7} {
				opts, err := OptionsFor(c.base)
				if err != nil {
					t.Fatal(err)
				}
				opts.Seed = seed
				opts.Faults = c.plan()
				h, err := NewHost(DefaultHostSpec(), opts)
				if err != nil {
					t.Fatal(err)
				}
				res := h.ChurnExperiment(c.waves, c.n)
				if res.Err != nil {
					t.Fatalf("seed %d: %v", seed, res.Err)
				}
				if !res.Leaks.Clean() {
					t.Errorf("seed %d: dirty audit after churn:\n%s", seed, res.Leaks)
				}
				if res.Started != c.waves*c.n {
					t.Errorf("seed %d: started %d, want %d", seed, res.Started, c.waves*c.n)
				}
				if res.Failed > 0 && res.Rollbacks == 0 {
					t.Errorf("seed %d: %d failures but no recorded rollbacks", seed, res.Failed)
				}
				if res.Reclaim.N() != res.Started-res.Failed {
					t.Errorf("seed %d: %d reclaim samples, want %d survivors",
						seed, res.Reclaim.N(), res.Started-res.Failed)
				}
			}
		})
	}
}

func TestArrivalProcesses(t *testing.T) {
	rng := sim.NewRand(3)
	burst := Arrival{Kind: ArrivalBurst}.times(rng, 100)
	for _, at := range burst {
		if at < 0 || at >= 50*time.Millisecond {
			t.Fatalf("burst arrival %v outside jitter window", at)
		}
	}
	pois := Arrival{Kind: ArrivalPoisson, RatePerSec: 100}.times(rng, 100)
	for i := 1; i < len(pois); i++ {
		if pois[i] < pois[i-1] {
			t.Fatal("poisson arrivals not monotone")
		}
	}
	// Mean inter-arrival should be ~10ms at 100/s; allow 3x slack.
	mean := pois[len(pois)-1] / time.Duration(len(pois))
	if mean < 3*time.Millisecond || mean > 30*time.Millisecond {
		t.Errorf("poisson mean gap %v, want ~10ms", mean)
	}
	uni := Arrival{Kind: ArrivalUniform, Window: 9 * time.Second}.times(rng, 10)
	if uni[0] != 0 || uni[9] != 9*time.Second {
		t.Errorf("uniform endpoints: %v .. %v", uni[0], uni[9])
	}
}

func TestPoissonArrivalExperiment(t *testing.T) {
	opts, _ := OptionsFor(BaselineVanilla)
	opts.Arrival = Arrival{Kind: ArrivalPoisson, RatePerSec: 20}
	h, err := NewHost(DefaultHostSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := h.StartupExperiment(30)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Totals.N() != 30 {
		t.Errorf("completed %d", res.Totals.N())
	}
}

func TestChurnRecyclesVFsAndMemory(t *testing.T) {
	// Serverless churn (§2.3: "VFs will be recycled when their assigned
	// containers terminate"): repeated start/stop waves must leave no
	// resource residue and keep working off the same VF pool.
	opts, _ := OptionsFor(BaselineFastIOV)
	spec := DefaultHostSpec()
	spec.NumVFs = 8 // fewer VFs than total launches: recycling is mandatory
	h, err := NewHost(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	freeVFs := h.NIC.FreeVFs()
	freePages := h.Mem.FreePages()
	for wave := 0; wave < 5; wave++ {
		res := h.StartupExperiment(8)
		if res.Err != nil {
			t.Fatalf("wave %d: %v", wave, res.Err)
		}
		h.K.Go("teardown", func(p *sim.Proc) {
			for _, sb := range res.Live() {
				if err := h.Eng.StopPodSandbox(p, sb); err != nil {
					t.Errorf("wave %d stop: %v", wave, err)
				}
			}
		})
		h.K.Run()
		if h.NIC.FreeVFs() != freeVFs {
			t.Fatalf("wave %d leaked VFs: %d free, want %d", wave, h.NIC.FreeVFs(), freeVFs)
		}
		if h.Mem.FreePages() != freePages {
			t.Fatalf("wave %d leaked pages: %d free, want %d", wave, h.Mem.FreePages(), freePages)
		}
	}
	if h.Mem.Violations != 0 {
		t.Errorf("churn exposed %d residual pages across tenants", h.Mem.Violations)
	}
	if h.Lazy.Corruptions != 0 {
		t.Errorf("churn corrupted %d pages", h.Lazy.Corruptions)
	}
}

func TestChurnRezeroesRecycledMemory(t *testing.T) {
	// The recycling security property: a second wave reusing the first
	// wave's pages must never read its data, under lazy zeroing.
	opts, _ := OptionsFor(BaselineFastIOV)
	spec := DefaultHostSpec()
	spec.Memory.TotalBytes = 8 << 30 // force page reuse across waves
	h, err := NewHost(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for wave := 0; wave < 3; wave++ {
		res := h.StartupExperiment(6)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		h.K.Go("rw", func(p *sim.Proc) {
			for _, sb := range res.Live() {
				// Tenant reads its whole RAM, then writes "secrets".
				if err := sb.MVM.VM.TouchRange(p, 0, 512<<20, false); err != nil {
					t.Error(err)
					return
				}
				if err := sb.MVM.VM.TouchRange(p, 0, 512<<20, true); err != nil {
					t.Error(err)
					return
				}
			}
			for _, sb := range res.Live() {
				if err := h.Eng.StopPodSandbox(p, sb); err != nil {
					t.Error(err)
				}
			}
		})
		h.K.Run()
	}
	if h.Mem.Violations != 0 {
		t.Errorf("%d cross-tenant reads of residual data", h.Mem.Violations)
	}
}

// TestSeedSweepVarianceSmall runs a 30-container vanilla host once per
// seed. Jitter only perturbs arrival offsets within 50 ms, so the per-seed
// mean startup times must agree within a few percent.
func TestSeedSweepVarianceSmall(t *testing.T) {
	opts, err := OptionsFor(BaselineVanilla)
	if err != nil {
		t.Fatal(err)
	}
	sweep := stats.NewSample()
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		opts.Seed = seed
		h, err := NewHost(DefaultHostSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res := h.StartupExperiment(30)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		sweep.Add(res.Totals.Mean())
	}
	spread := float64(sweep.Max()-sweep.Min()) / float64(sweep.Mean())
	if spread > 0.10 {
		t.Errorf("seed spread %.1f%% exceeds 10%%: %v", 100*spread, sweep.Values())
	}
}

// TestAuditTeardownSpawnsOneProc: an audited StartupExperiment stops its
// sandboxes from one proc, so it spawns exactly one proc more than the
// same wave unaudited, and leaves the host clean.
func TestAuditTeardownSpawnsOneProc(t *testing.T) {
	procs := func(audited bool) int {
		opts, _ := OptionsFor(BaselineFastIOV)
		opts.Audit = audited
		h, err := NewHost(DefaultHostSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res := h.StartupExperiment(20)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if audited && !res.Leaks.Clean() {
			t.Errorf("dirty audit:\n%s", res.Leaks)
		}
		_, _, n := h.K.Clock()
		return n
	}
	if plain, audited := procs(false), procs(true); audited != plain+1 {
		t.Errorf("audit teardown spawned %d procs for 20 sandboxes, want 1", audited-plain)
	}
}

// TestStopSandboxesPastError: a sandbox whose stop fails does not end the
// loop. The sandboxes after it still come down, nil entries are skipped,
// and the failure is reported.
func TestStopSandboxesPastError(t *testing.T) {
	opts, _ := OptionsFor(BaselineFastIOV)
	h, err := NewHost(DefaultHostSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	freeVFs := h.NIC.FreeVFs()
	res := h.StartupExperiment(4)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// A corrupted CNI result makes the second sandbox's CNI Del fail and
	// keeps its VF out.
	broken := res.Sandboxes[1]
	broken.CNIRes.VF = nil
	sbs := append([]*cri.Sandbox{nil}, res.Sandboxes...)
	var stopErr error
	h.K.Go("teardown", func(p *sim.Proc) { stopErr = h.StopSandboxes(p, sbs) })
	h.K.Run()
	if want := fmt.Sprintf("sandbox %d: cni del", broken.ID); stopErr == nil || !strings.Contains(stopErr.Error(), want) {
		t.Errorf("error %v, want it to report %q", stopErr, want)
	}
	if n := h.KVM.LiveVMs(); n != 0 {
		t.Errorf("%d microVMs left after teardown", n)
	}
	if got := h.NIC.FreeVFs(); got != freeVFs-1 {
		t.Errorf("%d free VFs after teardown, want %d (all but the corrupted sandbox's)", got, freeVFs-1)
	}
}
