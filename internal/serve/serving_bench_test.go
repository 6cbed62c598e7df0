package serve_test

import (
	"io"
	"testing"

	"fastiov/internal/cluster"
	"fastiov/internal/experiments"
	"fastiov/internal/fault"
	"fastiov/internal/serve"
)

// BenchmarkServeJourneys runs the serving pair of perfbench's
// serve-crash-observed workload: vanilla then fastiov, slo-aware admission
// on 4 hosts at 64 req/s under a repeating host crash, seed 1, with the
// kernel trace, metrics, the slowatch alert rules and the leak audit on,
// and journeys on or off per sub-benchmark. An op is both Server.Runs
// plus the exports perfbench writes (the journey log and Chrome trace
// when journeys are on, OpenMetrics always), to io.Discard; serve.New
// runs outside the timer and the allocation count. The difference of the
// two sub-benchmarks is what recording journeys costs.
// bench-smoke runs it at -cpu 1 and gates each sub-benchmark's allocs/op
// against the value recorded in BENCH_kernel.json.
func BenchmarkServeJourneys(b *testing.B) {
	plan, err := fault.ParsePlan("host-crash@600ms:host=0,mtbf=2s;host-recover=300ms")
	if err != nil {
		b.Fatal(err)
	}
	for _, journeys := range []bool{true, false} {
		name := "journeys=off"
		if journeys {
			name = "journeys=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, base := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
					b.StopTimer()
					s, err := serve.New(serve.Config{Baseline: base, Policy: serve.PolicySLOAware,
						Hosts: serve.DefaultHosts, Rate: 64, Seed: 1, Faults: plan, Trace: true, Metrics: true,
						Journeys: journeys, Audit: true, AlertSpec: experiments.DefaultSlowatchRules})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					res := s.Run()
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					if journeys {
						if err := res.Journey.WriteLog(io.Discard); err != nil {
							b.Fatal(err)
						}
						if err := res.Journey.WriteChrome(io.Discard); err != nil {
							b.Fatal(err)
						}
					}
					if err := res.Fleet.Metrics.WriteOpenMetrics(io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
