package fastiovd

import (
	"testing"
	"time"

	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

// BenchmarkFastiovdRegisterScrub measures fastiovd's host-side cost per
// microVM lifetime. Each op allocates a 256-page (512 MB) region, registers
// it for a fresh pid, takes an EPT fault on every tenth page, lets the
// background scrubber drain the rest, then releases the pid and frees the
// region dirty for the next op. bench-smoke gates its allocs/op against the
// value recorded in BENCH_kernel.json.
func BenchmarkFastiovdRegisterScrub(b *testing.B) {
	const pages = 256
	k := sim.NewKernel()
	mem := hostmem.New(k, hostmem.DefaultConfig(), testCosts)
	mod := New(k, mem, &testCosts)
	mod.StartScrubber(2*time.Millisecond, 8)
	k.Go("vm-churn", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			pid := i + 1
			region, err := mem.Allocate(p, pages*mem.PageSize())
			if err != nil {
				b.Error(err)
				return
			}
			mod.Register(p, pid, region)
			for _, run := range region.Runs {
				for pg := run.Start; pg < run.Start+run.Count; pg++ {
					if (pg-region.Runs[0].Start)%10 == 0 {
						mod.OnEPTFault(p, pid, pg)
					}
				}
			}
			for mod.Tracked(pid) > 0 || len(mod.inflight) > 0 {
				p.Sleep(time.Millisecond)
			}
			mod.Release(pid)
			mem.Free(p, region)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	if got := mod.LazyZeroed + mod.ScrubZeroed; got != b.N*pages {
		b.Fatalf("zeroed %d pages, want %d", got, b.N*pages)
	}
}
