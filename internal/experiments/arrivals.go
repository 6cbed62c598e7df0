package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/stats"
)

// ExtArrivals extends the paper's evaluation beyond its burst arrival
// pattern (the Alibaba production statistic behind c=200, §1): how much of
// FastIOV's gain depends on requests arriving simultaneously? Poisson and
// uniformly spread arrivals relax the contention the devset lock turns
// into queueing delay.
func (x *Exec) ExtArrivals(n int) (*Report, error) {
	if n <= 0 {
		n = DefaultConcurrency
	}
	patterns := []struct {
		label   string
		arrival cluster.Arrival
	}{
		{"burst (paper)", cluster.Arrival{Kind: cluster.ArrivalBurst}},
		{"poisson 50/s", cluster.Arrival{Kind: cluster.ArrivalPoisson, RatePerSec: 50}},
		{"uniform 20s", cluster.Arrival{Kind: cluster.ArrivalUniform, Window: 20 * time.Second}},
	}
	var specs []scenario[*cluster.Result]
	for _, pat := range patterns {
		van, fio := onHost(cluster.BaselineVanilla), onHost(cluster.BaselineFastIOV)
		van.host.Opts.Arrival, fio.host.Opts.Arrival = pat.arrival, pat.arrival
		specs = append(specs, startup(van, n), startup(fio, n))
	}
	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("arrival pattern", "vanilla avg", "fastiov avg", "reduction %")
	rep := &Report{ID: "ext-arrivals", Title: fmt.Sprintf("Arrival-pattern sensitivity (n=%d)", n), Table: t}
	for i, pat := range patterns {
		van, fio := rs[2*i], rs[2*i+1]
		perSeed := make([]float64, len(van.PerSeed()))
		for k := range van.PerSeed() {
			perSeed[k] = 100 * stats.ReductionRatio(
				van.PerSeed()[k].Totals.Mean(), fio.PerSeed()[k].Totals.Mean())
		}
		t.AddRow(pat.label, meanTotal(van), meanTotal(fio), estString(perSeed, 1))
	}
	rep.Notes = append(rep.Notes,
		"the devset queue saturates under burst and moderate Poisson load, where FastIOV's gain is largest; once arrivals spread widely the queue drains between requests and the gain shrinks")
	seedNote(rep, x, "per-pattern means")
	return rep, nil
}
