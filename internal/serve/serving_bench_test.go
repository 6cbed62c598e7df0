package serve_test

import (
	"io"
	"testing"

	"fastiov/internal/cluster"
	"fastiov/internal/experiments"
	"fastiov/internal/fault"
	"fastiov/internal/serve"
)

// observedConfig is perfbench's serve-crash-observed configuration for
// one baseline at seed 1: slo-aware admission on 4 hosts at 64 req/s
// under a repeating host crash, with the kernel trace, metrics, the
// slowatch alert rules and the leak audit on, and journeys as asked.
func observedConfig(tb testing.TB, baseline string, journeys bool) serve.Config {
	plan, err := fault.ParsePlan("host-crash@600ms:host=0,mtbf=2s;host-recover=300ms")
	if err != nil {
		tb.Fatal(err)
	}
	return serve.Config{Baseline: baseline, Policy: serve.PolicySLOAware,
		Hosts: serve.DefaultHosts, Rate: 64, Seed: 1, Faults: plan, Trace: true, Metrics: true,
		Journeys: journeys, Audit: true, AlertSpec: experiments.DefaultSlowatchRules}
}

// TestObservedTraceBytesPerEvent pins the kernel trace's density on the
// seed-1 serve-crash-observed pair: each baseline's stored bytes per event
// may rise at most 5% above the value measured when the stream was coded
// against each proc's last event (1.947 vanilla, 1.961 fastiov; the
// stream coded against the previous record took 3.73 and 4.39).
func TestObservedTraceBytesPerEvent(t *testing.T) {
	for _, c := range []struct {
		baseline string
		measured float64
	}{
		{cluster.BaselineVanilla, 1.947},
		{cluster.BaselineFastIOV, 1.961},
	} {
		s, err := serve.New(observedConfig(t, c.baseline, true))
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		tr := res.Fleet.Trace
		per := float64(tr.Bytes()) / float64(tr.Len())
		t.Logf("%s: %d events in %d bytes (%.3f B/event)", c.baseline, tr.Len(), tr.Bytes(), per)
		if limit := c.measured * 1.05; per > limit {
			t.Errorf("%s: %.3f B/event, want at most %.3f", c.baseline, per, limit)
		}
	}
}

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
					s, err := serve.New(observedConfig(b, base, journeys))
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
