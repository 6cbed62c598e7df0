package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/stats"
)

// churn runs waves waves of n concurrent starts on the recipe's host,
// tearing every survivor down between waves.
func churn(r recipe, waves, n int) scenario[*cluster.ChurnResult] {
	return scenario[*cluster.ChurnResult]{recipe: r, work: "recovery", args: struct{ Waves, N int }{waves, n},
		fingerprint: churnFingerprint,
		run: func(sys system) (*cluster.ChurnResult, error) {
			res := sys.host.ChurnExperiment(waves, n)
			if res.Err != nil {
				return nil, res.Err
			}
			res.Reclaim.Sort()
			return res, nil
		}}
}

// churnFingerprint canonically serializes a churn run.
func churnFingerprint(res *cluster.ChurnResult) []byte {
	var b []byte
	b = fmt.Appendf(b, "started %d failed %d rollbacks %d leaks %d\n",
		res.Started, res.Failed, res.Rollbacks, res.Leaks.Count())
	for _, d := range res.Reclaim.Values() {
		b = fmt.Appendf(b, "reclaim %d\n", d)
	}
	b = fmt.Appendf(b, "rollback time %d\n", res.RollbackTime)
	for _, st := range res.FaultStats {
		b = fmt.Appendf(b, "fault %s occ=%d inj=%d\n", st.Site, st.Occurrences, st.Injected)
	}
	return b
}

// recoveryPlan merges the chaos plan at fault probability pFault with
// crash clauses at probability pCrash for the listed stages.
func recoveryPlan(stages []fault.CrashStage, pCrash, pFault float64) *fault.Plan {
	pl := chaosPlan(pFault)
	for _, st := range stages {
		pl.Set(fault.CrashSite(st), fault.Rule{Prob: pCrash})
	}
	return pl
}

// recoveryWaves is the wave count of the recovery experiment: enough
// recycling that a leak anywhere compounds visibly, small enough to keep
// the sweep fast.
const recoveryWaves = 3

// Recovery sweeps crash points and fault rates over churn waves of n
// concurrent starts under a fault-heavy plan, interrupting startup at
// every crash point in turn (then all at once, then all at once on the
// flawed rebinding CNI, whose rollback must also unwind a vfio
// registration). Reports success rate, reclaim latency percentiles,
// per-container rollback cost, and the leak count — which must be
// identically zero: a dirty audit fails the experiment rather than rendering
// a number.
func (x *Exec) Recovery(n int) (*Report, error) {
	// Each recipe is pinned to its own plan: the executor's fault plan and
	// observers do not apply.
	var labels []string
	var specs []scenario[*cluster.ChurnResult]
	add := func(label, baseline string, pl *fault.Plan) {
		r := onHost(baseline)
		r.host.Opts.Faults = pl
		r.pinned = true
		labels, specs = append(labels, label), append(specs, churn(r, recoveryWaves, n))
	}
	add("fault-free", cluster.BaselineFastIOV, fault.NewPlan())
	for _, st := range fault.CrashStages() {
		add(string(fault.CrashSite(st)), cluster.BaselineFastIOV, recoveryPlan([]fault.CrashStage{st}, 0.15, 0.05))
	}
	add("crash@all", cluster.BaselineFastIOV, recoveryPlan(fault.CrashStages(), 0.05, 0.10))
	add("rebind+crash@all", cluster.BaselineRebind, recoveryPlan(fault.CrashStages(), 0.05, 0.10))
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("plan", "success %", "reclaim p50", "reclaim p99", "rollback mean", "rollbacks/run", "leaks")
	rep := &Report{ID: "recovery", Title: fmt.Sprintf(
		"Recovery: churn under crash injection (%d waves x %d containers)", recoveryWaves, n)}
	for i, label := range labels {
		perSeed := rs[i].PerSeed()
		rates := make([]float64, 0, len(perSeed))
		rollbacks := make([]float64, 0, len(perSeed))
		leaks := 0
		for _, cr := range perSeed {
			rates = append(rates, 100*cr.SuccessRate())
			rollbacks = append(rollbacks, float64(cr.Rollbacks))
			leaks += cr.Leaks.Count()
		}
		rbMean, _, _ := stats.FloatEstimateOf(rollbacks)
		t.AddRow(label, estString(rates, 1),
			rs[i].Metric(func(cr *cluster.ChurnResult) time.Duration { return cr.Reclaim.Percentile(50) }),
			rs[i].Metric(func(cr *cluster.ChurnResult) time.Duration { return cr.Reclaim.Percentile(99) }),
			rs[i].Metric(func(cr *cluster.ChurnResult) time.Duration {
				if cr.Rollbacks == 0 {
					return 0
				}
				return cr.RollbackTime / time.Duration(cr.Rollbacks)
			}),
			fmt.Sprintf("%.1f", rbMean), leaks)
	}
	rep.Table = t
	rep.Notes = append(rep.Notes,
		"every start is transactional: a crash at any stage rolls acquisitions back in reverse order, and the post-churn audit (VFs, pages, IOMMU mappings, devset opens, vhost registrations) must diff clean against host boot — a leak fails the experiment",
		"reclaim columns time StopPodSandbox per survivor; rollback mean covers crashed containers only")
	seedNote(rep, x, "leak audit")
	return rep, nil
}
