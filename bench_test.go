// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`), plus native benchmarks of the
// two real concurrency libraries (hierarchical locks, lazy zeroing) and a
// tinymembench-style §6.5 measurement over real memory.
//
// Simulation benchmarks report the headline metric of their figure via
// b.ReportMetric (e.g. avg_s, reduction_pct) so `go test -bench` output
// doubles as a results table. cmd/fastiov-bench prints the full tables.
package fastiov

import (
	"fmt"
	"sync"
	"testing"

	"fastiov/internal/cluster"
	"fastiov/internal/fleet"
	"fastiov/internal/locks"
	"fastiov/internal/stats"
	"fastiov/internal/zeromem"
)

// benchN is the headline concurrency (the paper's c=200).
const benchN = 200

func runBaselineB(b *testing.B, name string, n int) *cluster.Result {
	b.Helper()
	res, err := cluster.RunBaseline(name, n)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- Fig. 1: SR-IOV overhead vs concurrency -----------------------------

func BenchmarkFig01_OverheadVsConcurrency(b *testing.B) {
	for _, c := range []int{10, 50, 100, 150, 200} {
		c := c
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				non := runBaselineB(b, cluster.BaselineNoNet, c)
				van := runBaselineB(b, cluster.BaselineVanilla, c)
				overhead := van.Totals.Mean() - non.Totals.Mean()
				b.ReportMetric(overhead.Seconds(), "overhead_s")
				b.ReportMetric(100*stats.OverheadRatio(non.Totals.Mean(), van.Totals.Mean()), "overhead_pct")
			}
		})
	}
}

// --- Fig. 5 / Tab. 1: breakdown of the vanilla startup ------------------

func BenchmarkFig05_Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runBaselineB(b, cluster.BaselineVanilla, benchN)
		b.ReportMetric(res.Totals.Mean().Seconds(), "avg_s")
		b.ReportMetric(res.Totals.Max().Seconds(), "makespan_s")
	}
}

func BenchmarkTab01_StageProportions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runBaselineB(b, cluster.BaselineVanilla, benchN)
		var vfShare float64
		for _, id := range res.Recorder.Traces() {
			vfShare += float64(res.Recorder.VFRelatedTime(id))
		}
		total := float64(res.Totals.Sum())
		b.ReportMetric(100*vfShare/total, "vf_related_pct")
	}
}

// --- Fig. 11: average startup, all baselines -----------------------------

func BenchmarkFig11_AvgStartup(b *testing.B) {
	for _, name := range cluster.Baselines() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runBaselineB(b, name, benchN)
				b.ReportMetric(res.Totals.Mean().Seconds(), "avg_s")
				b.ReportMetric(res.VFRelated.Mean().Seconds(), "vf_s")
			}
		})
	}
}

// --- Fig. 12: startup-time distribution ----------------------------------

func BenchmarkFig12_CDF(b *testing.B) {
	for _, name := range []string{cluster.BaselineNoNet, cluster.BaselineFastIOV, cluster.BaselinePre100, cluster.BaselineVanilla} {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runBaselineB(b, name, benchN)
				b.ReportMetric(res.Totals.P50().Seconds(), "p50_s")
				b.ReportMetric(res.Totals.P99().Seconds(), "p99_s")
			}
		})
	}
}

// --- Fig. 13: impacting factors ------------------------------------------

func BenchmarkFig13a_Concurrency(b *testing.B) {
	for _, c := range []int{10, 50, 100, 200} {
		c := c
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				van := runBaselineB(b, cluster.BaselineVanilla, c)
				fio := runBaselineB(b, cluster.BaselineFastIOV, c)
				b.ReportMetric(100*stats.ReductionRatio(van.Totals.Mean(), fio.Totals.Mean()), "reduction_pct")
			}
		})
	}
}

func benchWithRAM(b *testing.B, name string, n int, ram int64) *cluster.Result {
	b.Helper()
	opts, err := cluster.OptionsFor(name)
	if err != nil {
		b.Fatal(err)
	}
	opts.Layout.RAMBytes = ram
	h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
	if err != nil {
		b.Fatal(err)
	}
	res := h.StartupExperiment(n)
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	return res
}

func BenchmarkFig13b_Memory(b *testing.B) {
	for _, ram := range []int64{512 << 20, 1 << 30, 2 << 30} {
		ram := ram
		b.Run(fmt.Sprintf("mem=%dMB", ram>>20), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				van := benchWithRAM(b, cluster.BaselineVanilla, 50, ram)
				fio := benchWithRAM(b, cluster.BaselineFastIOV, 50, ram)
				b.ReportMetric(van.Totals.Mean().Seconds(), "vanilla_s")
				b.ReportMetric(fio.Totals.Mean().Seconds(), "fastiov_s")
			}
		})
	}
}

func BenchmarkFig13c_FullyLoaded(b *testing.B) {
	spec := cluster.DefaultHostSpec()
	for _, c := range []int{10, 50, 100, 200} {
		c := c
		perCtr := spec.Memory.TotalBytes * 8 / 10 / int64(c)
		unit := int64(512 << 20)
		ram := (perCtr - (256 << 20) - (48 << 20)) / unit * unit
		if ram < unit {
			ram = unit
		}
		b.Run(fmt.Sprintf("c=%d_mem=%dMB", c, ram>>20), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				van := benchWithRAM(b, cluster.BaselineVanilla, c, ram)
				fio := benchWithRAM(b, cluster.BaselineFastIOV, c, ram)
				b.ReportMetric(100*stats.ReductionRatio(van.Totals.Mean(), fio.Totals.Mean()), "reduction_pct")
			}
		})
	}
}

// --- Fig. 14: software CNI comparison ------------------------------------

func BenchmarkFig14_SoftwareCNI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ipv := runBaselineB(b, cluster.BaselineIPvtap, benchN)
		fio := runBaselineB(b, cluster.BaselineFastIOV, benchN)
		b.ReportMetric(ipv.Totals.Mean().Seconds(), "ipvtap_s")
		b.ReportMetric(fio.Totals.Mean().Seconds(), "fastiov_s")
		b.ReportMetric(100*stats.ReductionRatio(ipv.Totals.Mean(), fio.Totals.Mean()), "reduction_pct")
	}
}

// --- Fig. 15 / Fig. 16: serverless applications --------------------------

func BenchmarkFig15_Serverless(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig15", benchN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16_Concurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig16a-d", 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16_Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig16e-h", 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16_FullyLoaded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig16i-l", 100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §6.5: memory access performance, real-memory analog ----------------
//
// tinymembench-style: memcpy over 2048-byte blocks. The "fastiov" variant
// routes every block's first page touch through the lazy-zeroing registry
// (the EPT-fault interception analog); subsequent touches are direct. The
// paper's claim: within 1%.

const memBenchPages = 512
const memBenchPageSize = 64 << 10

func BenchmarkMemAccessBaseline(b *testing.B) {
	a := zeromem.NewArena(memBenchPages, memBenchPageSize)
	a.EagerZeroAll()
	src := make([]byte, 2048)
	b.SetBytes(int64(memBenchPages * memBenchPageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pg := 0; pg < memBenchPages; pg++ {
			page := a.Acquire(pg)
			for off := 0; off+2048 <= len(page); off += 2048 {
				copy(page[off:off+2048], src)
			}
		}
	}
}

func BenchmarkMemAccessWithLazyRegistry(b *testing.B) {
	a := zeromem.NewArena(memBenchPages, memBenchPageSize)
	r := zeromem.NewRegistry(a)
	pages := make([]int, memBenchPages)
	for i := range pages {
		pages[i] = i
	}
	r.Register(1, pages)
	src := make([]byte, 2048)
	b.SetBytes(int64(memBenchPages * memBenchPageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pg := 0; pg < memBenchPages; pg++ {
			page := r.OnFault(1, pg) // first iteration zeroes; rest pass through
			for off := 0; off+2048 <= len(page); off += 2048 {
				copy(page[off:off+2048], src)
			}
		}
	}
}

// --- Real lock-framework benchmarks (devset open path) ------------------

func BenchmarkLocksGlobalMutexOpens(b *testing.B) {
	var mu sync.Mutex
	counts := make([]int, 8)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			d := i % 8
			i++
			mu.Lock()
			counts[d]++
			counts[d]--
			mu.Unlock()
		}
	})
}

func BenchmarkLocksParentChildOpens(b *testing.B) {
	ds := locks.NewDevset(8)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			d := i % 8
			i++
			ds.Open(d)
			ds.Close(d)
		}
	})
}

func BenchmarkLocksParentChildGlobalSnapshot(b *testing.B) {
	ds := locks.NewDevset(64)
	for i := 0; i < 64; i++ {
		ds.Open(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds.TotalOpen() != 64 {
			b.Fatal("snapshot wrong")
		}
	}
}

// --- Real zeroing-discipline benchmarks ----------------------------------

func BenchmarkZeroEagerFullArena(b *testing.B) {
	b.SetBytes(memBenchPages * memBenchPageSize)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := zeromem.NewArena(memBenchPages, memBenchPageSize)
		b.StartTimer()
		a.EagerZeroAll()
	}
}

func BenchmarkZeroLazyTouchAll(b *testing.B) {
	b.SetBytes(memBenchPages * memBenchPageSize)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := zeromem.NewArena(memBenchPages, memBenchPageSize)
		b.StartTimer()
		for pg := 0; pg < memBenchPages; pg++ {
			a.Acquire(pg)
		}
	}
}

func BenchmarkZeroLazyTouchTenth(b *testing.B) {
	// The FastIOV win: a workload touching 10% of its memory only ever
	// pays 10% of the zeroing.
	b.SetBytes(memBenchPages * memBenchPageSize / 10)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := zeromem.NewArena(memBenchPages, memBenchPageSize)
		b.StartTimer()
		for pg := 0; pg < memBenchPages/10; pg++ {
			a.Acquire(pg)
		}
	}
}

// --- Simulator throughput -------------------------------------------------

// BenchmarkStartupC200 is the kernel-throughput headline: wall-clock cost
// of one complete c=200 startup simulation, per baseline. The CI bench
// smoke job tracks it; BENCH_kernel.json records the seed numbers
// (~40 ms/op before the flat event queue / coroutine / snapshot overhaul,
// ~7 ms/op after, on the reference container).
func BenchmarkStartupC200(b *testing.B) {
	for _, name := range cluster.Baselines() {
		name := name
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runBaselineB(b, name, benchN)
			}
		})
	}
}

// BenchmarkHostBoot boots the paper-default host (256 VFs, 256 GB of 2 MB
// pages) for vanilla and fastiov. A boot holds no per-VF and no per-page
// state: a VF's records are built at its first lease and content state at
// a page's first transition away from dirty, so its cost is a few
// kilobytes whatever the VF count and memory size.
func BenchmarkHostBoot(b *testing.B) {
	for _, name := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		b.Run(name, func(b *testing.B) {
			opts, err := cluster.OptionsFor(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.NewHost(cluster.DefaultHostSpec(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleet100x20 is the scale headline: 100 heterogeneous hosts on
// one shared kernel, 2000 container starts placed by the least-loaded
// policy, leak-audited per host and fleet-wide.
func BenchmarkFleet100x20(b *testing.B) { benchFleet(b, 100) }

// BenchmarkFleet1000x20 is the same run at ten times the hosts: 1000
// hosts, 20000 starts. It is the starting point for sharding the fleet
// kernel; CI runs it once as an ungated smoke run.
func BenchmarkFleet1000x20(b *testing.B) { benchFleet(b, 1000) }

// benchFleet runs a fastiov fleet of the given number of heterogeneous
// hosts with 20 least-loaded starts per host, leak-audited.
func benchFleet(b *testing.B, hosts int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.Run(fleet.Config{
			Baseline:  cluster.BaselineFastIOV,
			Policy:    fleet.PolicyLeastLoaded,
			HostSpecs: fleet.HeterogeneousSpecs(hosts),
			Requests:  hosts * 20,
			Seed:      1,
			Audit:     true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Leaks.Clean() {
			b.Fatal("fleet leak audit dirty")
		}
	}
}

func BenchmarkSimulatorFullStartup200(b *testing.B) {
	// Wall-clock cost of simulating a complete 200-container FastIOV
	// startup (events, locks, zeroing protocol, telemetry).
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunBaseline(cluster.BaselineFastIOV, 200)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Totals.Mean().Seconds(), "virtual_avg_s")
	}
}

// --- Ablations and extensions beyond the paper's figures -----------------

func BenchmarkAblationBusScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("abl-busscan", 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("abl-pagesize", 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSlotReset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("abl-slotreset", 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFutureVDPA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("future-vdpa", benchN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataPlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("bg-dataplane", 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtArrivals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("ext-arrivals", 100); err != nil {
			b.Fatal(err)
		}
	}
}
