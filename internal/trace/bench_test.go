package trace

import (
	"strconv"
	"testing"
	"time"

	"fastiov/internal/sim"
)

// BenchmarkTraceRecordAnalyze measures one traced run of a probe-heavy
// synthetic kernel: 200 procs each alternate a contended Resource.Use with
// a Sleep 50 times (about 80k probe events per op), recorded through
// Attach, then analyzed and fingerprinted.
// bench-smoke runs it at -cpu 1 and gates its allocs/op against the value
// recorded in BENCH_kernel.json.
func BenchmarkTraceRecordAnalyze(b *testing.B) {
	b.ReportAllocs()
	var events int
	for range b.N {
		k := sim.NewKernel(1)
		tr := Attach(k)
		membw := sim.NewResource("membw", 8)
		for i := range 200 {
			k.Go("ctr-"+strconv.Itoa(i), func(p *sim.Proc) {
				for range 50 {
					membw.Use(p, 1, time.Microsecond)
					p.Sleep(time.Microsecond)
				}
			})
		}
		k.Run()
		a, err := Analyze(tr)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Profile()) != 1 || tr.Fingerprint() == 0 {
			b.Fatal("unexpected trace")
		}
		events = tr.Len()
	}
	b.ReportMetric(float64(events), "events/op")
}
