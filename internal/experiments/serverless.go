package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/cri"
	"fastiov/internal/fault"
	"fastiov/internal/serverless"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
)

// completions launches n tasks of app on the recipe's host and collects
// their completion times (the duration from startup-command issuance to
// computation finish, §6.6). Tasks killed by injected faults are dropped
// from the sample — a faulted sweep measures the survivors — while genuine
// errors still abort the run. Without faults every task completes, so the
// sample is built identically to the pre-fault layer. Once the sample is
// taken, one proc stops every started sandbox in task order.
func completions(r recipe, n int, app serverless.App) scenario[*stats.Sample] {
	return scenario[*stats.Sample]{recipe: r, work: "serverless", args: struct {
		N   int
		App serverless.App
	}{n, app}, fingerprint: sampleFingerprint,
		run: func(sys system) (*stats.Sample, error) {
			h := sys.host
			// The teardown proc runs on one of the task phase's coroutines.
			defer h.K.Hold()()
			completions := make([]time.Duration, n)
			sandboxes := make([]*cri.Sandbox, n)
			var errs []error
			rng := h.Env.Rand
			for i := 0; i < n; i++ {
				at := rng.Duration(cluster.StartJitter)
				h.K.GoAtName(at, sim.DecimalName("task-", i), func(p *sim.Proc) {
					issued := p.Now()
					sb, err := h.Eng.RunPodSandbox(p, i)
					if err != nil {
						if !fault.IsFault(err) {
							errs = append(errs, err)
						}
						return
					}
					sandboxes[i] = sb
					if err := serverless.Execute(p, h.Eng, sb, app); err != nil {
						errs = append(errs, err)
						return
					}
					completions[i] = p.Now() - issued
				})
			}
			h.K.Run()
			if len(errs) > 0 {
				return nil, errs[0]
			}
			done := completions[:0]
			for _, d := range completions {
				if d > 0 {
					done = append(done, d)
				}
			}
			sample := stats.FromDurations(done)
			sample.Sort()
			var err error
			h.K.Go("teardown", func(p *sim.Proc) { err = h.StopSandboxes(p, sandboxes) })
			h.K.Run()
			return sample, err
		}}
}

func sampleFingerprint(sample *stats.Sample) []byte {
	var b []byte
	for _, d := range sample.Values() {
		b = fmt.Appendf(b, "%d\n", d)
	}
	return b
}

// meanCompletion is the cross-seed estimate of mean completion time.
func meanCompletion(m *Multi[*stats.Sample]) stats.Estimate { return m.Metric((*stats.Sample).Mean) }

func completionsAt(r recipe, c point) scenario[*stats.Sample] { return completions(r, c.n, c.app) }

// forApps crosses every SeBS application with each setting.
func forApps(settings []point) []point {
	var points []point
	for _, app := range serverless.Apps() {
		for _, s := range settings {
			s.app = app
			points = append(points, s)
		}
	}
	return points
}

// Fig15 reproduces Figure 15: task-completion-time distribution for the
// four SeBS applications at c=200, vanilla vs FastIOV.
func (x *Exec) Fig15(n int) (*Report, error) {
	points := forApps(atConcurrencies([]int{n}))
	ps, err := pairs(x, points, completionsAt)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("app", "vanilla avg", "vanilla p99", "fastiov avg", "fastiov p99", "avg red. %", "p99 red. %")
	rep := &Report{ID: "fig15", Title: fmt.Sprintf("Serverless application performance (concurrency=%d)", n), Table: t}
	var minRed, maxRed float64 = 101, -1
	for i, c := range points {
		van, fio := ps[i][0], ps[i][1]
		vanAvg, fioAvg := meanCompletion(van), meanCompletion(fio)
		vanP99, fioP99 := van.Metric((*stats.Sample).P99), fio.Metric((*stats.Sample).P99)
		avgRed := 100 * stats.ReductionRatio(vanAvg.Mean, fioAvg.Mean)
		p99Red := 100 * stats.ReductionRatio(vanP99.Mean, fioP99.Mean)
		t.AddRow(c.app.Name, vanAvg, vanP99, fioAvg, fioP99, avgRed, p99Red)
		minRed, maxRed = min(minRed, avgRed), max(maxRed, avgRed)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"average completion reduced %.1f%%-%.1f%% across apps; paper: 12.1%%-53.5%%, shrinking from image to inference",
		minRed, maxRed))
	return rep, nil
}

// fig16 fills rep's table with every SeBS app's average task completion on
// vanilla and FastIOV at each setting, and their reduction ratio; label
// renders a setting's columns between the app's and the averages.
func (x *Exec) fig16(rep *Report, settings []point, label func(point) []any) (*Report, error) {
	points := forApps(settings)
	ps, err := pairs(x, points, completionsAt)
	if err != nil {
		return nil, err
	}
	for i, c := range points {
		van, fio := meanCompletion(ps[i][0]), meanCompletion(ps[i][1])
		row := append([]any{c.app.Name}, label(c)...)
		rep.Table.AddRow(append(row, van, fio, 100*stats.ReductionRatio(van.Mean, fio.Mean))...)
	}
	return rep, nil
}

// ramLabel renders a point's per-container guest RAM.
func ramLabel(c point) string { return fmt.Sprintf("%dMB", c.layout.RAMBytes>>20) }

// Fig16Concurrency reproduces Fig. 16a-d: per-app average task completion
// and reduction ratio across concurrency levels.
func (x *Exec) Fig16Concurrency(concurrencies []int) (*Report, error) {
	if len(concurrencies) == 0 {
		concurrencies = []int{10, 50, 100, 200}
	}
	return x.fig16(&Report{ID: "fig16a-d", Title: "Serverless apps: varying concurrency",
		Table: stats.NewTable("app", "concurrency", "vanilla avg", "fastiov avg", "R-ratio %"),
		Notes: []string{"paper: higher gain at higher concurrency (Fig. 16a-d)"},
	}, atConcurrencies(concurrencies), func(c point) []any { return []any{c.n} })
}

// Fig16Memory reproduces Fig. 16e-h: per-app completion across memory
// allocations at fixed concurrency.
func (x *Exec) Fig16Memory(memories []int64, concurrency int) (*Report, error) {
	if len(memories) == 0 {
		memories = []int64{512 << 20, 1 << 30, 2 << 30}
	}
	if concurrency <= 0 {
		concurrency = 50
	}
	return x.fig16(&Report{ID: "fig16e-h", Title: fmt.Sprintf("Serverless apps: varying memory (concurrency=%d)", concurrency),
		Table: stats.NewTable("app", "memory/ctr", "vanilla avg", "fastiov avg", "R-ratio %"),
		Notes: []string{"paper: higher gain with larger allocations; FastIOV completion flat or decreasing (Fig. 16e-h)"},
	}, atMemories(memories, concurrency), func(c point) []any { return []any{ramLabel(c)} })
}

// Fig16FullyLoaded reproduces Fig. 16i-l: per-app completion on a fully
// loaded server (memory divided evenly among containers).
func (x *Exec) Fig16FullyLoaded(concurrencies []int) (*Report, error) {
	if len(concurrencies) == 0 {
		concurrencies = []int{10, 50, 100, 200}
	}
	return x.fig16(&Report{ID: "fig16i-l", Title: "Serverless apps: fully loaded server",
		Table: stats.NewTable("app", "concurrency", "memory/ctr", "vanilla avg", "fastiov avg", "R-ratio %"),
		Notes: []string{"paper: clear reduction at all settings, most pronounced at low concurrency (Fig. 16i-l)"},
	}, fullyLoaded(concurrencies), func(c point) []any { return []any{c.n, ramLabel(c)} })
}
