package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/serve"
	"fastiov/internal/stats"
)

// availCell is one rung of the availability experiment's failure ladder: a
// host MTBF (how often the 256-VF profile host crashes) paired with an MTTR
// (the crash-to-reboot delay of the host-recover clause).
type availCell struct {
	MTBF time.Duration
	MTTR time.Duration
}

// DefaultAvailLadder is the MTBF/MTTR ladder the availability experiment
// sweeps: an MTBF ladder at fixed MTTR (how much failure frequency the
// serving plane absorbs), then an MTTR ladder at fixed MTBF (how much the
// repair-time knob matters — which is exactly where the baselines split,
// because MTTR is dominated by the recovery boot the baseline chooses).
var DefaultAvailLadder = []availCell{
	{MTBF: 1 * time.Second, MTTR: 300 * time.Millisecond},
	{MTBF: 2 * time.Second, MTTR: 300 * time.Millisecond},
	{MTBF: 4 * time.Second, MTTR: 300 * time.Millisecond},
	{MTBF: 2 * time.Second, MTTR: 150 * time.Millisecond},
	{MTBF: 2 * time.Second, MTTR: 600 * time.Millisecond},
}

// DefaultAvailRate is the availability experiment's pinned offered load:
// under the healthy fleet's saturation point, so every goodput loss in the
// table is attributable to the failure ladder rather than overload.
const DefaultAvailRate = 32.0

// availPlan renders one ladder cell as a fault plan: host 0 — the full
// 256-VF testbed profile, the worst host to lose — crashes at t=MTBF and
// every MTBF thereafter, and every crash schedules a reboot after MTTR.
func availPlan(c availCell) string {
	return fmt.Sprintf("host-crash@%s:host=0,mtbf=%s;host-recover=%s", c.MTBF, c.MTBF, c.MTTR)
}

// Availability sweeps admission policy × baseline over the failure ladder:
// the fleet-availability study. The serving control plane runs its open-loop
// window while host 0 crashes on an MTBF clock and reboots MTTR later, so
// every layer of the failure path is exercised together: the kernel kills
// the host's procs, the LostToCrash ledger absorbs what they stranded, the
// heartbeat monitor flips the host out of the scheduler, dispatchers reroute
// crash-lost starts under the bounded backoff policy, and admission control
// sees the shrunken fleet through the health-aware headroom signal. The
// headline is the recovery-time asymmetry: a vanilla reboot re-zeroes the
// whole 256-VF pool serially (a ~2s cliff on every crash), while FastIOV
// reloads fastiovd and re-registers scrub state in microseconds — so
// vanilla's effective outage per crash is MTTR plus the cliff, and its
// goodput degrades much faster as MTBF shrinks.
func (x *Exec) Availability(n int) (*Report, error) {
	hosts, policies, err := x.serveSweep()
	if err != nil {
		return nil, err
	}
	rate := DefaultAvailRate
	if x.serveRate > 0 {
		rate = x.serveRate
	}
	ladder := append([]availCell(nil), DefaultAvailLadder...)
	switch {
	case x.availMTBF > 0:
		// An explicit -mtbf pins a single ladder cell at the default MTTR.
		ladder = []availCell{{MTBF: x.availMTBF, MTTR: 300 * time.Millisecond}}
	case n > 0:
		// A concurrency override marks a below-paper-scale run (the defConc
		// convention): just the ladder's middle cell.
		ladder = ladder[1:2]
	}
	baselines := []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}

	var specs []serveSpec
	for _, p := range policies {
		for _, b := range baselines {
			for _, c := range ladder {
				pl, err := fault.ParsePlan(availPlan(c))
				if err != nil {
					return nil, fmt.Errorf("experiments: availability plan: %w", err)
				}
				specs = append(specs, serveSpec{Baseline: b, Policy: p, Hosts: hosts, Rate: rate, env: env{Faults: pl}})
			}
		}
	}

	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "availability", Title: fmt.Sprintf(
		"Fleet availability: policy × baseline under host crash/recovery (%d hosts, rate %g req/s, %s window, SLO %s)",
		hosts, rate, serve.DefaultWindow, serve.DefaultSLO)}
	t := stats.NewTable("baseline", "policy", "mtbf", "mttr", "crashes", "recovery", "lost", "rerouted", "gaveup", "goodput", "p99", "p99.9")
	// Recovery time and goodput by (baseline, policy, cell index) for notes.
	type key struct {
		b, p string
		c    int
	}
	recs := map[key]time.Duration{}
	goods := map[key]float64{}
	i := 0
	for _, p := range policies {
		for _, b := range baselines {
			for ci, c := range ladder {
				m := rs[i]
				pri := m.Primary()
				rec := m.Metric(func(r *serve.Result) time.Duration { return r.Fleet.MaxRecovery() })
				t.AddRow(b, p, c.MTBF, c.MTTR,
					pri.Fleet.HostCrashes,
					rec,
					pri.CrashLost, pri.Rerouted, pri.CrashGiveups,
					pri.Goodput(),
					m.Metric(func(r *serve.Result) time.Duration { return r.Sojourns.P99() }),
					m.Metric(func(r *serve.Result) time.Duration { return r.Sojourns.P999() }))
				k := key{b, p, ci}
				recs[k] = rec.Mean
				goods[k] = pri.Goodput()
				i++
			}
		}
	}
	rep.Table = t

	// Headline: the recovery cliff, read off any shared (policy, cell).
	hp := policies[len(policies)-1]
	hc := 0
	vanRec, okV := recs[key{cluster.BaselineVanilla, hp, hc}]
	fastRec, okF := recs[key{cluster.BaselineFastIOV, hp, hc}]
	if okV && okF && fastRec > 0 && vanRec > fastRec {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"the recovery cliff: a crashed vanilla host re-zeroes its whole VF pool serially before rejoining (%v per crash), while FastIOV rebuilds fastiovd's scrub state from the two-tier tables (%v) — %.0f× faster, so vanilla's effective outage per crash is MTTR plus the cliff",
			vanRec.Round(time.Millisecond), fastRec.Round(time.Microsecond),
			float64(vanRec)/float64(fastRec)))
	}
	if okV && okF {
		vg, fg := goods[key{cluster.BaselineVanilla, hp, hc}], goods[key{cluster.BaselineFastIOV, hp, hc}]
		if fg > vg {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"at MTBF %s the cliff is goodput: FastIOV serves %.1f/s inside the SLO against vanilla's %.1f/s under the identical crash schedule (%s policy)",
				ladder[hc].MTBF, fg, vg, hp))
		}
	}
	seedNote(rep, x, "availability table")
	return rep, nil
}
