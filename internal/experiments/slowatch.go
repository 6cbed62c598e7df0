package experiments

import (
	"fmt"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/journey"
	"fastiov/internal/serve"
	"fastiov/internal/stats"
)

// DefaultSlowatchRules are the alert rules the slowatch experiment (and the
// CLI's -alerts export) evaluate: a multi-window burn-rate page on the
// sojourn latency objective plus a fast-sustain ticket on crash-lost
// starts. The burn rule's 1s bound is the fast-burn objective half the 2s
// SLO (the classic page-before-the-SLO-is-spent setup): it pages when more
// than a quarter of recent completions blow 1s over both the 500ms (short)
// and 2s (long) trailing windows. The value rule files as soon as crash
// losses stay nonzero for 50ms.
const DefaultSlowatchRules = "alert slo-burn: burnrate(serve_sojourn_seconds, slo=1s, short=500ms, long=2s) > 0.25;" +
	"alert crash-seen: value(serve_requests_crash_lost_total) > 0 for 50ms"

// DefaultSlowatchRate is the experiment's pinned offered load: under the
// healthy fleet's saturation point, so the only thing that can trip the
// burn-rate page is the injected incident, not steady-state overload.
const DefaultSlowatchRate = 24.0

// slowatchCrashPlan is the crash scenario: host 0 — the 256-VF testbed
// profile, the worst host to lose — first dies at 600ms and keeps crashing
// every ~2s (mtbf), rebooting 300ms after each crash. The repeating
// schedule keeps the incident alive long enough for the long burn-rate
// window to confirm it. Onset for detection latency is the first crash-
// ledger instant.
const slowatchCrashPlan = "host-crash@600ms:host=0,mtbf=2s;host-recover=300ms"

// slowatchFlashAt is the flash-crowd scenario's onset: the instant the
// servingFlashSpec burst clause fires.
const slowatchFlashAt = 3 * time.Second

// slowatchScenario is one incident the alerting engine must detect: a fault
// plan or workload burst, plus the simulated onset instant latency is
// measured from.
type slowatchScenario struct {
	Name     string
	Workload string
	Faults   string
	// onset extracts the incident instant from a finished run ("" = never).
	onset func(r *serve.Result) (time.Duration, bool)
}

func slowatchScenarios() []slowatchScenario {
	return []slowatchScenario{
		{
			Name:   "host-crash",
			Faults: slowatchCrashPlan,
			onset: func(r *serve.Result) (time.Duration, bool) {
				l := r.Fleet.Ledger
				if l == nil || l.Len() == 0 {
					return 0, false
				}
				return l.Entries[0].At, true
			},
		},
		{
			Name:     "flash-crowd",
			Workload: serve.DefaultWorkloadSpec + servingFlashSpec,
			onset: func(*serve.Result) (time.Duration, bool) {
				return slowatchFlashAt, true
			},
		},
	}
}

// Slowatch runs the SLO-watch study: alert detection latency per incident.
// Each scenario injects one incident into the serving window — a host crash
// with recovery, or a 6× flash crowd — while the simulated-time alert engine
// evaluates the multi-window burn-rate rules against the live metrics
// registry. The reported detection latency is simulated seconds from
// incident onset (the crash ledger instant, or the burst clause) to the
// rule's first firing; the resolve column is when the page clears again. The
// headline is the observability face of the recovery asymmetry: vanilla's
// serial VF-pool re-zero turns a 300ms reboot into a multi-second outage the
// burn-rate rule pages on, while FastIOV's microsecond scrub-state rebuild
// keeps the error fraction low enough that the same page resolves almost
// immediately — or never fires at all.
func (x *Exec) Slowatch(n int) (*Report, error) {
	hosts, policies, err := x.serveSweep()
	if err != nil {
		return nil, err
	}
	rate := DefaultSlowatchRate
	if x.serveRate > 0 {
		rate = x.serveRate
	}
	scenarios := slowatchScenarios()
	if n > 0 {
		// A concurrency override marks a below-paper-scale run (the defConc
		// convention): the crash scenario only.
		scenarios = scenarios[:1]
	}
	baselines := []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}

	var specs []serveSpec
	for _, sc := range scenarios {
		for _, p := range policies {
			for _, b := range baselines {
				sp := serveSpec{
					Baseline: b, Policy: p, Hosts: hosts, Rate: rate,
					Workload: sc.Workload,
					Alerts:   DefaultSlowatchRules,
					env:      env{Observe: ObserveMetrics | ObserveJourneys},
				}
				if sc.Faults != "" {
					pl, err := fault.ParsePlan(sc.Faults)
					if err != nil {
						return nil, fmt.Errorf("experiments: slowatch plan: %w", err)
					}
					sp.Faults = pl
				} else {
					// Pin the fault-free plan so an executor-wide -faults
					// override cannot blur the scenario's single incident.
					sp.Faults = &fault.Plan{}
				}
				specs = append(specs, sp)
			}
		}
	}

	rs, err := runAll(x, specs)
	if err != nil {
		return nil, err
	}

	rules, err := journey.ParseRules(DefaultSlowatchRules)
	if err != nil {
		return nil, fmt.Errorf("experiments: slowatch rules: %w", err)
	}

	rep := &Report{ID: "slowatch", Title: fmt.Sprintf(
		"SLO watch: alert detection latency per incident (%d hosts, rate %g req/s, %s window, SLO %s)",
		hosts, rate, serve.DefaultWindow, serve.DefaultSLO)}
	t := stats.NewTable("scenario", "baseline", "policy", "rule", "onset", "fired", "detect", "resolved")
	// Detection and resolve latency for the slo-burn page, keyed by
	// (scenario, baseline, policy) for the notes.
	type key struct{ s, b, p string }
	detects := map[key]time.Duration{}
	fired := map[key]bool{}
	resolved := map[key]bool{}
	i := 0
	for _, sc := range scenarios {
		for _, p := range policies {
			for _, b := range baselines {
				pri := rs[i].Primary()
				i++
				onset, onsetOK := sc.onset(pri)
				eng := pri.Alerts
				for _, ru := range rules {
					onsetCell, firedCell, detectCell, resolvedCell := "—", "—", "—", "—"
					if onsetOK {
						onsetCell = onset.String()
					}
					if eng != nil && onsetOK {
						if at, ok := eng.FirstFiring(ru.Name, onset); ok {
							firedCell = at.String()
							detectCell = (at - onset).String()
							if ru.Name == "slo-burn" {
								detects[key{sc.Name, b, p}] = at - onset
								fired[key{sc.Name, b, p}] = true
							}
							if res, ok := eng.FirstResolve(ru.Name, at); ok {
								resolvedCell = res.String()
								if ru.Name == "slo-burn" {
									resolved[key{sc.Name, b, p}] = true
								}
							}
						}
					}
					t.AddRow(sc.Name, b, p, ru.Name, onsetCell, firedCell, detectCell, resolvedCell)
				}
			}
		}
	}
	rep.Table = t

	// Headline: the crash scenario's page asymmetry under the strictest
	// shared policy.
	hp := policies[len(policies)-1]
	vk := key{"host-crash", cluster.BaselineVanilla, hp}
	fk := key{"host-crash", cluster.BaselineFastIOV, hp}
	switch {
	case fired[vk] && !fired[fk]:
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"the page asymmetry: vanilla's serial VF-pool re-zero trips the slo-burn page %s after the crash, while FastIOV's scrub-state rebuild recovers so fast the same rule never fires at all (%s policy)",
			detects[vk], hp))
	case fired[vk] && fired[fk] && resolved[fk] && detects[fk] >= detects[vk]:
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"both baselines page on the crash, but FastIOV's resolves: the burn rate drops back under threshold once the %s-class recovery clears the backlog, while vanilla's cliff keeps it firing (%s policy)",
			cluster.BaselineFastIOV, hp))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"detection latency is simulated time from incident onset (crash-ledger instant or burst clause) to first rule firing; rules: %s",
		DefaultSlowatchRules))
	seedNote(rep, x, "slowatch table")
	return rep, nil
}
