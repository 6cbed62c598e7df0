package trace

import (
	"strconv"
	"testing"
	"time"

	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
)

// probeHeavyRun records a synthetic kernel through Attach: procs procs each
// alternate a contended Resource.Use with a Sleep rounds times.
func probeHeavyRun(procs, rounds int) *Trace {
	k := sim.NewKernel()
	tr := Attach(k)
	membw := sim.NewResource("membw", 8)
	for i := range procs {
		k.Go("ctr-"+strconv.Itoa(i), func(p *sim.Proc) {
			for range rounds {
				membw.Use(p, 1, time.Microsecond)
				p.Sleep(time.Microsecond)
			}
		})
	}
	k.Run()
	return tr
}

// probeWindows returns a recorder holding one completed startup window per
// probeHeavyRun proc, container i for "ctr-<i>", each spanning the whole
// stream.
func probeWindows(tr *Trace, procs int) *telemetry.Recorder {
	rec := telemetry.NewRecorder()
	for i := range procs {
		rec.MarkStart(i, 0)
		rec.MarkEnd(i, time.Duration(tr.last.at))
	}
	return rec
}

// BenchmarkTraceRecordAnalyze measures one traced run of a probe-heavy
// synthetic kernel (probeHeavyRun with 200 procs and 50 rounds, about 80k
// probe events per op), then analyzes and fingerprints it.
// bench-smoke runs it at -cpu 1 and gates its allocs/op and B/op against
// the values recorded in BENCH_kernel.json.
func BenchmarkTraceRecordAnalyze(b *testing.B) {
	b.ReportAllocs()
	var events int
	for range b.N {
		tr := probeHeavyRun(200, 50)
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
