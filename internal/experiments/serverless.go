package experiments

import (
	"errors"
	"fmt"
	"time"

	"fastiov/internal/audit"
	"fastiov/internal/cluster"
	"fastiov/internal/cri"
	"fastiov/internal/fault"
	"fastiov/internal/serverless"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
)

// serverlessCompletions launches n tasks of app on a prepared host and
// collects their completion times (the duration from startup-command
// issuance to computation finish, §6.6). Tasks killed by injected faults
// are dropped from the sample — a faulted sweep measures the survivors —
// while genuine errors still abort the run. Without faults every task
// completes, so the sample is built identically to the pre-fault layer.
// With opts.Audit set, every completed sandbox is stopped after the sample
// is taken and the host's conservation counters are checked against the
// boot baseline.
func serverlessCompletions(h *cluster.Host, opts cluster.Options, n int, app serverless.App) (*stats.Sample, error) {
	completions := make([]time.Duration, n)
	sandboxes := make([]*cri.Sandbox, n)
	var firstErr error
	rng := h.K.Rand()
	for i := 0; i < n; i++ {
		i := i
		at := rng.Duration(opts.StartJitter)
		h.K.GoAt(at, fmt.Sprintf("task-%d", i), func(p *sim.Proc) {
			issued := p.Now()
			sb, err := h.Eng.RunPodSandbox(p, i)
			if err != nil {
				if !fault.IsFault(err) && firstErr == nil {
					firstErr = err
				}
				return
			}
			sandboxes[i] = sb
			if err := serverless.Execute(p, h.Eng, sb, app); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			completions[i] = p.Now() - issued
		})
	}
	h.K.Run()
	if firstErr != nil {
		return nil, firstErr
	}
	if h.Mem.Violations != 0 {
		return nil, fmt.Errorf("%s/%s: %d residual-data violations", opts.Name, app.Name, h.Mem.Violations)
	}
	done := completions[:0]
	for _, d := range completions {
		if d > 0 {
			done = append(done, d)
		}
	}
	sample := stats.FromDurations(done)
	if opts.Audit {
		var errs []error
		for _, sb := range sandboxes {
			if sb == nil {
				continue
			}
			sb := sb
			h.K.Go(fmt.Sprintf("stop-%d", sb.ID), func(p *sim.Proc) {
				if err := h.Eng.StopPodSandbox(p, sb); err != nil {
					errs = append(errs, err)
				}
			})
		}
		h.K.Run()
		if err := errors.Join(errs...); err != nil {
			return nil, fmt.Errorf("%s/%s: stop: %w", opts.Name, app.Name, err)
		}
		if rep := audit.NewReport(h.Baseline, h.AuditSnapshot()); !rep.Clean() {
			return nil, fmt.Errorf("%s/%s: dirty leak audit:\n%s", opts.Name, app.Name, rep)
		}
	}
	return sample, nil
}

// runServerless runs one serverless scenario directly (no pool, no cache),
// returning the raw completion sample — retained for tests that need direct
// access rather than a rendered report.
func runServerless(baseline string, n int, app serverless.App, mutate func(*cluster.Options)) (*stats.Sample, error) {
	opts, err := cluster.OptionsFor(baseline)
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(&opts)
	}
	h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
	if err != nil {
		return nil, err
	}
	return serverlessCompletions(h, opts, n, app)
}

// Fig15 reproduces Figure 15: task-completion-time distribution for the
// four SeBS applications at c=200, vanilla vs FastIOV.
func (x *Exec) Fig15(n int) (*Report, error) {
	apps := serverless.Apps()
	var specs []serverlessSpec
	for _, app := range apps {
		specs = append(specs,
			serverlessSpec{bootSpec: bootSpec{Baseline: cluster.BaselineVanilla}, N: n, App: app},
			serverlessSpec{bootSpec: bootSpec{Baseline: cluster.BaselineFastIOV}, N: n, App: app})
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("app", "vanilla avg", "vanilla p99", "fastiov avg", "fastiov p99", "avg red. %", "p99 red. %")
	rep := &Report{ID: "fig15", Title: fmt.Sprintf("Serverless application performance (concurrency=%d)", n), Table: t}
	var minRed, maxRed float64 = 101, -1
	for i, app := range apps {
		vanAvg, fioAvg := meanCompletion(rs[2*i]), meanCompletion(rs[2*i+1])
		vanP99, fioP99 := rs[2*i].Metric((*stats.Sample).P99), rs[2*i+1].Metric((*stats.Sample).P99)
		avgRed := 100 * stats.ReductionRatio(vanAvg.Mean, fioAvg.Mean)
		p99Red := 100 * stats.ReductionRatio(vanP99.Mean, fioP99.Mean)
		t.AddRow(app.Name, vanAvg, vanP99, fioAvg, fioP99, avgRed, p99Red)
		if avgRed < minRed {
			minRed = avgRed
		}
		if avgRed > maxRed {
			maxRed = avgRed
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"average completion reduced %.1f%%-%.1f%% across apps; paper: 12.1%%-53.5%%, shrinking from image to inference",
		minRed, maxRed))
	return rep, nil
}

// Fig16Concurrency reproduces Fig. 16a-d: per-app average task completion
// and reduction ratio across concurrency levels.
func (x *Exec) Fig16Concurrency(concurrencies []int) (*Report, error) {
	if len(concurrencies) == 0 {
		concurrencies = []int{10, 50, 100, 200}
	}
	apps := serverless.Apps()
	var specs []serverlessSpec
	for _, app := range apps {
		for _, c := range concurrencies {
			specs = append(specs,
				serverlessSpec{bootSpec: bootSpec{Baseline: cluster.BaselineVanilla}, N: c, App: app},
				serverlessSpec{bootSpec: bootSpec{Baseline: cluster.BaselineFastIOV}, N: c, App: app})
		}
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("app", "concurrency", "vanilla avg", "fastiov avg", "R-ratio %")
	rep := &Report{ID: "fig16a-d", Title: "Serverless apps: varying concurrency", Table: t}
	k := 0
	for _, app := range apps {
		for _, c := range concurrencies {
			van, fio := rs[k], rs[k+1]
			k += 2
			t.AddRow(app.Name, c, meanCompletion(van), meanCompletion(fio),
				100*stats.ReductionRatio(meanCompletion(van).Mean, meanCompletion(fio).Mean))
		}
	}
	rep.Notes = append(rep.Notes, "paper: higher gain at higher concurrency (Fig. 16a-d)")
	return rep, nil
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
	apps := serverless.Apps()
	var specs []serverlessSpec
	for _, app := range apps {
		for _, ram := range memories {
			l := layoutWithRAM(ram)
			specs = append(specs,
				serverlessSpec{bootSpec: bootSpec{Baseline: cluster.BaselineVanilla, Layout: &l}, N: concurrency, App: app},
				serverlessSpec{bootSpec: bootSpec{Baseline: cluster.BaselineFastIOV, Layout: &l}, N: concurrency, App: app})
		}
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("app", "memory/ctr", "vanilla avg", "fastiov avg", "R-ratio %")
	rep := &Report{ID: "fig16e-h", Title: fmt.Sprintf("Serverless apps: varying memory (concurrency=%d)", concurrency), Table: t}
	k := 0
	for _, app := range apps {
		for _, ram := range memories {
			van, fio := rs[k], rs[k+1]
			k += 2
			t.AddRow(app.Name, fmt.Sprintf("%dMB", ram>>20), meanCompletion(van), meanCompletion(fio),
				100*stats.ReductionRatio(meanCompletion(van).Mean, meanCompletion(fio).Mean))
		}
	}
	rep.Notes = append(rep.Notes, "paper: higher gain with larger allocations; FastIOV completion flat or decreasing (Fig. 16e-h)")
	return rep, nil
}

// Fig16FullyLoaded reproduces Fig. 16i-l: per-app completion on a fully
// loaded server (memory divided evenly among containers).
func (x *Exec) Fig16FullyLoaded(concurrencies []int) (*Report, error) {
	if len(concurrencies) == 0 {
		concurrencies = []int{10, 50, 100, 200}
	}
	spec := cluster.DefaultHostSpec()
	apps := serverless.Apps()
	var specs []serverlessSpec
	ramByConc := make(map[int]int64)
	for _, app := range apps {
		for _, c := range concurrencies {
			l := fullyLoadedLayout(spec, c)
			ramByConc[c] = l.RAMBytes
			specs = append(specs,
				serverlessSpec{bootSpec: bootSpec{Baseline: cluster.BaselineVanilla, Layout: &l}, N: c, App: app},
				serverlessSpec{bootSpec: bootSpec{Baseline: cluster.BaselineFastIOV, Layout: &l}, N: c, App: app})
		}
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("app", "concurrency", "memory/ctr", "vanilla avg", "fastiov avg", "R-ratio %")
	rep := &Report{ID: "fig16i-l", Title: "Serverless apps: fully loaded server", Table: t}
	k := 0
	for _, app := range apps {
		for _, c := range concurrencies {
			van, fio := rs[k], rs[k+1]
			k += 2
			t.AddRow(app.Name, c, fmt.Sprintf("%dMB", ramByConc[c]>>20), meanCompletion(van), meanCompletion(fio),
				100*stats.ReductionRatio(meanCompletion(van).Mean, meanCompletion(fio).Mean))
		}
	}
	rep.Notes = append(rep.Notes, "paper: clear reduction at all settings, most pronounced at low concurrency (Fig. 16i-l)")
	return rep, nil
}
