package serve

import (
	"io"
	"testing"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
)

// BenchmarkJourneyExports measures both journey exports, the Chrome
// trace-event track group and the canonical JSONL span log, over one fixed
// serving run: vanilla, slo-aware admission on the default fleet at
// 64 req/s for the default window under a repeating host crash, seed 1.
// The run is simulated once, outside the timer; an op is one WriteChrome
// and one WriteLog to io.Discard.
// bench-smoke runs it at -cpu 1 and gates its allocs/op against the value
// recorded in BENCH_kernel.json.
func BenchmarkJourneyExports(b *testing.B) {
	plan, err := fault.ParsePlan("host-crash@600ms:host=0,mtbf=2s;host-recover=300ms")
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Baseline: cluster.BaselineVanilla, Policy: PolicySLOAware, Hosts: DefaultHosts,
		Rate: 64, Seed: 1, Faults: plan, Journeys: true})
	if err != nil {
		b.Fatal(err)
	}
	res := s.Run()
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := res.Journey.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := res.Journey.WriteLog(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Journey.Len()), "spans/op")
}
