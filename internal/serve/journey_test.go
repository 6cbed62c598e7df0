package serve

// Conservation and transparency properties of the journey recorder: every
// arrival mints exactly one root span, children nest inside their parents,
// the queue-wait + dispatch decomposition reproduces every completed
// sojourn exactly, the copied startup stage spans match the host telemetry
// recorders span for span, and a journey-traced run renders byte-identically
// to an untraced one.

import (
	"bytes"
	"testing"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/telemetry"
)

// runJourney runs cfg (with journeys forced on) keeping the live server so
// tests can reach the fleet's telemetry recorders.
func runJourney(t *testing.T, cfg Config) (*Server, *Result) {
	t.Helper()
	cfg.Journeys = true
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New(%s/%s): %v", cfg.Baseline, cfg.Policy, err)
	}
	res := s.Run()
	if res.Err != nil {
		t.Fatalf("serve.Run(%s/%s): %v", cfg.Baseline, cfg.Policy, res.Err)
	}
	if res.Journey == nil {
		t.Fatal("journeys on but Result.Journey is nil")
	}
	return s, res
}

func mustDur(t *testing.T, sp telemetry.Span, key string) time.Duration {
	t.Helper()
	v := sp.Attr(key)
	d, err := time.ParseDuration(v)
	if err != nil {
		t.Fatalf("span %s (trace %d): attr %s=%q: %v", sp.Name, sp.Trace, key, v, err)
	}
	return d
}

// checkJourney asserts the structural conservation properties on one run.
func checkJourney(t *testing.T, s *Server, res *Result) {
	t.Helper()
	jr := res.Journey
	if jr.Roots() != res.Arrived {
		t.Errorf("%d arrivals minted %d root spans", res.Arrived, jr.Roots())
	}
	// Children nest within their parents on the same trace.
	for id := 0; id < jr.Len(); id++ {
		sp := jr.Span(id)
		if sp.Parent < 0 {
			continue
		}
		par := jr.Span(int(sp.Parent))
		if par.Trace != sp.Trace {
			t.Fatalf("span %d (%s) trace %d has parent %d (%s) on trace %d",
				id, sp.Name, sp.Trace, sp.Parent, par.Name, par.Trace)
		}
		if sp.Start < par.Start || sp.End > par.End {
			t.Errorf("span %d (%s) [%s,%s] escapes parent %d (%s) [%s,%s]",
				id, sp.Name, sp.Start, sp.End, sp.Parent, par.Name, par.Start, par.End)
		}
	}
	// Per completed request: queue-wait + dispatch tile the sojourn exactly.
	var journeySojourns []time.Duration
	for _, trace := range jr.Traces() {
		rid, ok := jr.RootOf(trace)
		if !ok {
			t.Fatalf("trace %d has no root", trace)
		}
		root := jr.Span(rid)
		if root.Attr("outcome") != "completed" {
			continue
		}
		sojourn := mustDur(t, root, "sojourn")
		journeySojourns = append(journeySojourns, sojourn)
		var qw, disp time.Duration
		seen := 0
		for _, cid := range jr.Children(rid) {
			c := jr.Span(cid)
			switch c.Name {
			case "queue-wait":
				qw = c.Dur()
				seen++
			case "dispatch":
				disp = c.Dur()
				seen++
			}
		}
		if seen != 2 {
			t.Fatalf("trace %d: completed root has %d of queue-wait/dispatch children", trace, seen)
		}
		if qw+disp != sojourn {
			t.Errorf("trace %d: queue-wait %s + dispatch %s != sojourn %s", trace, qw, disp, sojourn)
		}
	}
	// The journey's completed sojourns are exactly the serve sample.
	if len(journeySojourns) != res.Completed {
		t.Errorf("journey has %d completed roots, serve completed %d", len(journeySojourns), res.Completed)
	}
	want := append([]time.Duration(nil), res.Sojourns.Values()...)
	got := append([]time.Duration(nil), journeySojourns...)
	sortDurs(want)
	sortDurs(got)
	for i := range got {
		if i < len(want) && got[i] != want[i] {
			t.Fatalf("sojourn multiset mismatch at %d: journey %s vs sample %s", i, got[i], want[i])
		}
	}
	// Every ok attempt's copied stage spans match the host telemetry
	// recorder span for span (only checkable while the host generation that
	// ran the start is still live — callers pass crash-free configs here).
	if res.Fleet.HostCrashes == 0 {
		okAttempts := 0
		for id := 0; id < jr.Len(); id++ {
			sp := jr.Span(id)
			if sp.Name != "attempt" || sp.Attr("outcome") != "ok" {
				continue
			}
			okAttempts++
			host := atoiAttr(t, sp, "host")
			ctr := atoiAttr(t, sp, "ctr")
			rec := s.F.Hosts[host].Rec
			byStage := map[string]time.Duration{}
			for _, cid := range jr.Children(id) {
				c := jr.Span(cid)
				if c.Name == "placement" || c.Name == "reroute-wait" {
					continue
				}
				byStage[c.Name] += c.Dur()
			}
			if len(byStage) == 0 {
				t.Errorf("ok attempt %d (ctr %d) carries no stage spans", id, ctr)
			}
			for name, d := range byStage {
				if want := rec.StageTime(ctr, telemetry.Stage(name)); want != d {
					t.Errorf("ctr %d stage %s: journey %s != telemetry %s", ctr, name, d, want)
				}
			}
		}
		if res.Completed > 0 && okAttempts < res.Completed {
			t.Errorf("%d completions but only %d ok attempts", res.Completed, okAttempts)
		}
	}
}

func sortDurs(ds []time.Duration) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func atoiAttr(t *testing.T, sp telemetry.Span, key string) int {
	t.Helper()
	n := 0
	v := sp.Attr(key)
	if v == "" {
		t.Fatalf("span %s (trace %d): missing attr %s", sp.Name, sp.Trace, key)
	}
	for _, ch := range v {
		if ch < '0' || ch > '9' {
			t.Fatalf("span %s (trace %d): attr %s=%q not an int", sp.Name, sp.Trace, key, v)
		}
		n = n*10 + int(ch-'0')
	}
	return n
}

func TestJourneyConservation(t *testing.T) {
	for _, policy := range Policies() {
		for _, baseline := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
			t.Run(baseline+"/"+policy, func(t *testing.T) {
				s, res := runJourney(t, testConfig(policy, baseline, 7))
				checkJourney(t, s, res)
			})
		}
	}
}

// TestJourneyConservationUnderCrash reruns the structural properties with a
// host crash mid-window: crash-lost attempts, reroute waits, and killed pod
// procs (sealed spans) must still nest and conserve.
func TestJourneyConservationUnderCrash(t *testing.T) {
	pl, err := fault.ParsePlan("host-crash@600ms:host=0;host-recover=300ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(PolicySLOAware, cluster.BaselineFastIOV, 3)
	cfg.Faults = pl
	s, res := runJourney(t, cfg)
	if res.Fleet.HostCrashes == 0 {
		t.Fatal("crash plan injected no crash")
	}
	checkJourney(t, s, res)
}

// TestJourneyTransparency pins the observer contract: a journey-traced run
// (with and without an alert engine) renders its canonical report bytes
// identically to the untraced reference.
func TestJourneyTransparency(t *testing.T) {
	for _, policy := range []string{PolicyFIFO, PolicySLOAware} {
		base := testConfig(policy, cluster.BaselineFastIOV, 11)
		ref := mustServe(t, base)

		traced := base
		traced.Journeys = true
		alerted := traced
		alerted.AlertSpec = "alert burn: burnrate(serve_sojourn_seconds, slo=2s, short=250ms, long=1s) > 0.1"
		for name, cfg := range map[string]Config{"journeys": traced, "journeys+alerts": alerted} {
			res := mustServe(t, cfg)
			if !bytes.Equal(res.Canonical(), ref.Canonical()) {
				t.Errorf("%s/%s: %s run's canonical bytes differ from untraced", cfg.Baseline, policy, name)
			}
		}
	}
}

// TestSojournExemplarResolves is the acceptance walk: pick a sojourn
// histogram exemplar, resolve its trace ID to the journey root, and check
// the root's child stages sum exactly to the exemplar's recorded sojourn.
func TestSojournExemplarResolves(t *testing.T) {
	_, res := runJourney(t, testConfig(PolicySLOAware, cluster.BaselineFastIOV, 5))
	if res.SojournHist == nil {
		t.Fatal("metrics on but no sojourn histogram")
	}
	exs := res.SojournHist.Exemplars()
	if len(exs) == 0 {
		t.Fatal("no sojourn exemplars recorded")
	}
	jr := res.Journey
	for _, ex := range exs {
		rid, ok := jr.RootOf(ex.Trace)
		if !ok {
			t.Fatalf("exemplar trace %d has no journey root", ex.Trace)
		}
		root := jr.Span(rid)
		if root.Attr("outcome") != "completed" {
			t.Fatalf("exemplar trace %d resolves to a %q root", ex.Trace, root.Attr("outcome"))
		}
		sojourn := mustDur(t, root, "sojourn")
		var sum time.Duration
		for _, cid := range jr.Children(rid) {
			c := jr.Span(cid)
			if c.Name == "queue-wait" || c.Name == "dispatch" {
				sum += c.Dur()
			}
		}
		if sum != sojourn {
			t.Errorf("exemplar trace %d: stages sum %s != sojourn %s", ex.Trace, sum, sojourn)
		}
	}
}
