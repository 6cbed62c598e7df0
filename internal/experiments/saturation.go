package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/metrics"
	"fastiov/internal/stats"
)

// saturationSweep expands a max concurrency into the sweep the saturation
// experiment measures: the standard ladder below max, then max itself.
func saturationSweep(max int) []int {
	out := []int{}
	for _, c := range []int{10, 25, 50, 100} {
		if c < max {
			out = append(out, c)
		}
	}
	return append(out, max)
}

// Saturation contrasts host saturation over time between vanilla and
// FastIOV across a concurrency sweep, using the simulated-time metrics
// registry: the vfio devset lock queue depth (exact, kept by the locks)
// and the zeroing-bandwidth utilization curve. The paper's §3.2 claim is
// visible as a time series: under vanilla the devset queue grows roughly
// linearly with concurrency and membw pins at 100% through the zeroing
// phase, while FastIOV keeps the queue near zero and defers zeroing off
// the startup path.
func (x *Exec) Saturation(n int) (*Report, error) {
	if n <= 0 {
		n = DefaultConcurrency
	}
	concs := saturationSweep(n)
	baselines := []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}
	var specs []scenario[*cluster.Result]
	for _, c := range concs {
		specs = append(specs, startups(c, baselines...)...)
	}
	for _, sc := range specs {
		sc.host.Opts.Metrics = true
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "saturation", Title: fmt.Sprintf("Host saturation time series: devset queue depth and membw utilization (concurrency≤%d)", n)}
	t := stats.NewTable("baseline", "conc", "q-peak", "q-mean", "membw-peak%", "membw-mean%", "membw-busy", "zeroed-GB", "samples")
	// peaks[baseline] collects the exact devset queue peak at each swept
	// concurrency, for the growth note.
	peaks := map[string][]int{}
	for i, sc := range specs {
		b, reg := sc.host.Opts.Name, rs[i].Primary().Metrics
		q := reg.Summary(cluster.MetricDevsetQueueDepth)
		u := reg.Summary(cluster.MetricMembwUtil)
		peak := int(reg.Final(cluster.MetricDevsetQueuePeak))
		peaks[b] = append(peaks[b], peak)
		t.AddRow(b, concs[i/len(baselines)], peak, q.Mean, u.Max, u.Mean,
			membwBusy(reg),
			reg.Final(cluster.MetricZeroedBytes)/float64(1<<30),
			reg.Samples())
	}
	rep.Table = t

	// Render the dashboards of the max-concurrency runs: the panels every
	// baseline shares, sparkline width aligned to the telemetry timeline.
	var text strings.Builder
	base := (len(concs) - 1) * len(baselines)
	for i, b := range baselines {
		reg := rs[base+i].Primary().Metrics
		fmt.Fprintf(&text, "%s, concurrency %d:\n%s", b, n, reg.DashboardFor(100, cluster.SaturationPanels()...))
		if i < len(baselines)-1 {
			text.WriteString("\n")
		}
	}
	rep.Text = text.String()

	// Quantify the two saturation claims from the max-concurrency runs.
	van := rs[base].Primary().Metrics
	fast := rs[base+1].Primary().Metrics
	vanPeaks := peaks[cluster.BaselineVanilla]
	fastMax := 0
	for _, p := range peaks[cluster.BaselineFastIOV] {
		if p > fastMax {
			fastMax = p
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"vanilla devset queue peak grows with concurrency (%s across c=%s; %.2f waiters per container at c=%d) while fastiov's peak never exceeds %d",
		joinInts(vanPeaks), joinInts(concs), float64(vanPeaks[len(vanPeaks)-1])/float64(n), n, fastMax))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"membw at c=%d: vanilla pins all streams (100%%) for %.0f%% of samples (mean %.0f%%); fastiov defers zeroing off the startup path (mean %.0f%%, busy %v vs %v)",
		n, 100*fractionAt(van.Series(cluster.MetricMembwUtil), 100), van.Summary(cluster.MetricMembwUtil).Mean,
		fast.Summary(cluster.MetricMembwUtil).Mean,
		membwBusy(van).Round(time.Millisecond), membwBusy(fast).Round(time.Millisecond)))
	seedNote(rep, x, "saturation dashboard")
	return rep, nil
}

// membwBusy reads a sealed host registry's membw busy integral back as a
// duration (the counter exports it in stream-seconds).
func membwBusy(reg *metrics.Registry) time.Duration {
	return time.Duration(math.Round(reg.Final(cluster.MetricMembwBusy) * float64(time.Second)))
}

// fractionAt returns the fraction of samples at or above the threshold.
func fractionAt(series []float64, threshold float64) float64 {
	if len(series) == 0 {
		return 0
	}
	n := 0
	for _, v := range series {
		if v >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(series))
}

// joinInts renders a small int slice as "a→b→c".
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, v := range xs {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, "→")
}
