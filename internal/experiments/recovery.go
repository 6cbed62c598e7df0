package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/stats"
)

// recoverySpec identifies one schedulable churn-under-crashes run: Waves
// waves of N concurrent starts with every survivor torn down between
// waves, under a crash- and fault-heavy plan, audited against the host's
// boot baseline after the final wave.
type recoverySpec struct {
	Baseline string
	N        int
	Waves    int
	Faults   *fault.Plan
}

func (recoverySpec) scope() string { return "recovery" }

func (s recoverySpec) params() string {
	p := fmt.Sprintf("b=%s n=%d waves=%d", s.Baseline, s.N, s.Waves)
	if !s.Faults.Empty() {
		p += " faults=" + s.Faults.String()
	}
	return p
}

// run executes the spec at one seed. A genuine error or a dirty leak audit
// fails the run: leak-free recycling is the experiment's contract, not a
// statistic.
func (s recoverySpec) run(_ *Exec, seed uint64) (*cluster.ChurnResult, error) {
	opts, err := cluster.OptionsFor(s.Baseline)
	if err != nil {
		return nil, err
	}
	opts.Seed = seed
	opts.Faults = s.Faults
	h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
	if err != nil {
		return nil, err
	}
	res := h.ChurnExperiment(s.Waves, s.N)
	if res.Err != nil {
		return nil, fmt.Errorf("%s: %w", s.Baseline, res.Err)
	}
	if !res.Leaks.Clean() {
		return nil, fmt.Errorf("%s: dirty leak audit after churn:\n%s", s.Baseline, res.Leaks)
	}
	res.Reclaim.Sort()
	return res, nil
}

// fingerprint canonically serializes a churn run.
func (recoverySpec) fingerprint(res *cluster.ChurnResult) []byte {
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
	type row struct {
		label string
		spec  recoverySpec
	}
	mk := func(baseline string, pl *fault.Plan) recoverySpec {
		return recoverySpec{Baseline: baseline, N: n, Waves: recoveryWaves, Faults: pl}
	}
	rows := []row{{"fault-free", mk(cluster.BaselineFastIOV, fault.NewPlan())}}
	for _, st := range fault.CrashStages() {
		rows = append(rows, row{
			string(fault.CrashSite(st)),
			mk(cluster.BaselineFastIOV, recoveryPlan([]fault.CrashStage{st}, 0.15, 0.05)),
		})
	}
	rows = append(rows,
		row{"crash@all", mk(cluster.BaselineFastIOV, recoveryPlan(fault.CrashStages(), 0.05, 0.10))},
		row{"rebind+crash@all", mk(cluster.BaselineRebind, recoveryPlan(fault.CrashStages(), 0.05, 0.10))},
	)

	specs := make([]recoverySpec, len(rows))
	for i, r := range rows {
		specs[i] = r.spec
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("plan", "success %", "reclaim p50", "reclaim p99", "rollback mean", "rollbacks/run", "leaks")
	rep := &Report{ID: "recovery", Title: fmt.Sprintf(
		"Recovery: churn under crash injection (%d waves x %d containers)", recoveryWaves, n)}
	for i, r := range rows {
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
		t.AddRow(r.label, pctString(rates),
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
