package experiments

// Registry-level observer-transparency coverage for request-journey
// tracing: enabling journeys on the executor must not change a single
// rendered report byte, for every experiment in the registry. The journey
// recorder and alert engine are pure observers — if attaching them
// perturbs an admission decision, a placement, or a single timestamp, the
// reports diverge and this test names the experiment. The same runs pin the
// registry's scenario-cache traffic, so a change to how scenarios inherit
// executor settings and become cache keys cannot silently merge or split
// scenarios.

import (
	"strings"
	"testing"
)

// journeyTransparencyN keeps the double full-registry run affordable: the
// serving-stack experiments accept it as a concurrency override and the
// kernel-side ones as a reduced sweep.
const journeyTransparencyN = 8

// registryTraffic is the full registry's cache traffic on NewExec(2,
// {1,2}) at journeyTransparencyN, journeys on or off: the CLI's
// "-experiment all -n 8 -workers 2 -seeds 2" summary line.
var registryTraffic = CacheStats{Runs: 454, Hits: 224}

func runRegistryReports(t *testing.T, journeys bool) map[string]string {
	t.Helper()
	x := NewExec(2, []uint64{1, 2})
	x.SetObserve(Observers(false, false, journeys))
	out := make(map[string]string)
	for _, e := range Registry() {
		rep, err := e.Run(x, journeyTransparencyN)
		if err != nil {
			t.Fatalf("%s (journeys=%v): %v", e.ID, journeys, err)
		}
		out[e.ID] = rep.String()
	}
	if st := x.CacheStats(); st.Runs != registryTraffic.Runs || st.Hits != registryTraffic.Hits {
		t.Errorf("journeys=%v: cache traffic %d runs, %d hits; want %d runs, %d hits",
			journeys, st.Runs, st.Hits, registryTraffic.Runs, registryTraffic.Hits)
	}
	return out
}

func TestJourneyReportTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("double full-registry run")
	}
	want := runRegistryReports(t, false)
	got := runRegistryReports(t, true)
	for _, e := range Registry() {
		if want[e.ID] != got[e.ID] {
			t.Errorf("%s: journey-traced report differs from untraced:\n--- untraced\n%s\n--- journeyed\n%s",
				e.ID, want[e.ID], got[e.ID])
		}
	}
}

func TestSlowatchSmoke(t *testing.T) {
	x := NewExec(2, []uint64{1, 2})
	rep, err := x.Slowatch(8) // n > 0: crash scenario only
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"host-crash", "slo-burn", "crash-seen", "vanilla", "fastiov"} {
		if !strings.Contains(out, want) {
			t.Errorf("slowatch report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "flash-crowd") {
		t.Errorf("n>0 run must restrict to the crash scenario:\n%s", out)
	}
	// The crash ticket pages on both baselines: no crash-seen row may be
	// blank in the fired column.
	found := false
	for _, note := range rep.Notes {
		if strings.Contains(note, "detection latency is simulated time") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing methodology note: %v", rep.Notes)
	}
	// The headline asymmetry at default rate: vanilla's slo-burn fires,
	// fastiov's never does.
	var vanillaFired, fastiovQuiet bool
	for _, row := range strings.Split(rep.Table.CSV(), "\n") {
		cells := strings.Split(row, ",")
		if len(cells) < 8 || cells[3] != "slo-burn" {
			continue
		}
		switch cells[1] {
		case "vanilla":
			if cells[5] != "—" {
				vanillaFired = true
			}
		case "fastiov":
			if cells[5] == "—" {
				fastiovQuiet = true
			}
		}
	}
	if !vanillaFired || !fastiovQuiet {
		t.Errorf("page asymmetry missing (vanilla fired=%v, fastiov quiet=%v):\n%s",
			vanillaFired, fastiovQuiet, rep.Table.CSV())
	}
}
