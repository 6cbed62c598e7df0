package experiments

import (
	"fmt"
	"strings"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/stats"
	"fastiov/internal/trace"
	"fastiov/internal/vfio"
)

// contentionTopK bounds the per-baseline rows of the contention table.
const contentionTopK = 5

// devsetLock reports whether a profiled primitive is a VFIO devset lock
// (the global mutex, or the parent rwlock of the decomposed scheme).
func devsetLock(name string) bool { return strings.Contains(name, vfio.DevsetLockPrefix) }

// Contention traces the §3 startup scenario end to end and reports what the
// per-stage telemetry cannot: the per-lock contention profile (which
// primitive containers waited on, for how long, behind whom) and the
// per-container critical-path decomposition (service vs blocked vs
// runnable). Vanilla exposes the devset global mutex as the dominant
// blocker; FastIOV's decomposed locking is shown for contrast.
func (x *Exec) Contention(n int) (*Report, error) {
	baselines := []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}
	specs := startups(n, baselines...)
	for _, sc := range specs {
		sc.host.Opts.Trace = true
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("baseline", "lock", "waits", "acqs", "total-wait", "mean-wait", "max-wait", "mean-hold", "max-q", "top-blocker")
	rep := &Report{ID: "contention", Title: fmt.Sprintf("Lock contention and critical paths under concurrent startup (concurrency=%d)", n)}
	var text strings.Builder
	for i, b := range baselines {
		res := rs[i].Primary()
		a, err := trace.Analyze(res.Trace)
		if err != nil {
			return nil, fmt.Errorf("contention: %s: %w", b, err)
		}
		profile := a.Profile()
		shown := profile
		if len(shown) > contentionTopK {
			shown = shown[:contentionTopK]
		}
		for _, s := range shown {
			blocker := "-"
			if top := s.TopBlockers(res.Trace, 1); len(top) > 0 {
				blocker = top[0].Name
			}
			t.AddRow(b, s.Name(), s.Waits, s.Acquires, s.TotalWait, s.MeanWait(), s.MaxWait, s.MeanHold(), s.MaxQueue, blocker)
		}

		paths, err := a.CriticalPaths(res.Recorder)
		if err != nil {
			return nil, fmt.Errorf("contention: %s: %w", b, err)
		}
		sum := trace.Summarize(paths)
		pct := func(d time.Duration) float64 {
			if sum.MeanTotal == 0 {
				return 0
			}
			return 100 * float64(d) / float64(sum.MeanTotal)
		}
		fmt.Fprintf(&text, "critical path (%s, mean over %d containers, total %v):\n",
			b, sum.Containers, sum.MeanTotal.Round(time.Microsecond))
		fmt.Fprintf(&text, "  service  %12v  %5.1f%%\n", sum.MeanService.Round(time.Microsecond), pct(sum.MeanService))
		for j, tgt := range sum.Targets {
			if j >= contentionTopK {
				break
			}
			fmt.Fprintf(&text, "  blocked  %12v  %5.1f%%  on %s\n", tgt.Mean.Round(time.Microsecond), tgt.Share, tgt.Name)
		}
		fmt.Fprintf(&text, "  runnable %12v  %5.1f%%\n", sum.MeanRunnable.Round(time.Microsecond), pct(sum.MeanRunnable))
		if len(profile) > 0 {
			fmt.Fprintf(&text, "  wait histogram of %s (<1µs..≥10s): %s\n", profile[0].Name(), profile[0].WaitHist)
		}

		if len(profile) > 0 {
			note := fmt.Sprintf("%s: top blocker is %s", b, profile[0].Name())
			var devsetShare float64
			for _, tgt := range sum.Targets {
				if devsetLock(tgt.Name) {
					devsetShare += tgt.Share
				}
			}
			if devsetShare > 0 {
				note += fmt.Sprintf("; waiting on devset locks is %.1f%% of mean startup time", devsetShare)
			}
			rep.Notes = append(rep.Notes, note)
		}
	}
	rep.Table = t
	rep.Text = text.String()
	rep.Notes = append(rep.Notes,
		"per-container decomposition satisfies service + blocked + runnable == end-to-end total (verified on every traced run)")
	seedNote(rep, x, "contention profile")
	return rep, nil
}
