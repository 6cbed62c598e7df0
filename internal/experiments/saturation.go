package experiments

import (
	"fmt"
	"strings"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/hostmem"
	"fastiov/internal/stats"
	"fastiov/internal/vfio"
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
// registry: the vfio devset lock queue depth (exact, event-driven) and the
// zeroing-bandwidth utilization curve. The paper's §3.2 claim is visible as
// a time series: under vanilla the devset queue grows roughly linearly with
// concurrency and membw pins at 100% through the zeroing phase, while
// FastIOV keeps the queue near zero and defers zeroing off the startup
// path.
func (x *Exec) Saturation(n int) (*Report, error) {
	if n <= 0 {
		n = DefaultConcurrency
	}
	concs := saturationSweep(n)
	baselines := []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}
	var specs []startupSpec
	for _, c := range concs {
		for _, b := range baselines {
			specs = append(specs, startupSpec{bootSpec: bootSpec{Baseline: b, env: env{Observe: ObserveMetrics}}, N: c})
		}
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
	idx := 0
	for _, c := range concs {
		for _, b := range baselines {
			reg := rs[idx].Primary().Metrics
			idx++
			q := reg.Summary(cluster.MetricDevsetQueueDepth)
			u := reg.Summary(cluster.MetricMembwUtil)
			peak := reg.QueuePeak(vfio.DevsetLockPrefix)
			peaks[b] = append(peaks[b], peak)
			t.AddRow(b, c, peak, q.Mean, u.Max, u.Mean,
				reg.BusyIntegral(hostmem.MemBWName),
				reg.Final(cluster.MetricZeroedBytes)/float64(1<<30),
				reg.Samples())
		}
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
		van.BusyIntegral(hostmem.MemBWName).Round(time.Millisecond), fast.BusyIntegral(hostmem.MemBWName).Round(time.Millisecond)))
	seedNote(rep, x, "saturation dashboard")
	return rep, nil
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
