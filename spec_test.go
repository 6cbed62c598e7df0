package fastiov

import (
	"testing"

	"fastiov/internal/fault"
	"fastiov/internal/journey"
	"fastiov/internal/serve"
)

// TestShippedSpecsCanonical pins the canonical rendering of every spec
// literal the repo ships: the serving defaults, the availability ladder's
// crash plans, the slowatch and perfbench crash plans, and each -faults,
// -tenants and alert-rule string in CI, README and EXPERIMENTS.md. The
// renderings enter cache keys and reports, so a lexer change that moved
// any of them would change what a shipped spec means.
func TestShippedSpecsCanonical(t *testing.T) {
	faults := []struct{ spec, canon string }{
		// availPlan for each DefaultAvailLadder cell.
		{"host-crash@1s:host=0,mtbf=1s;host-recover=300ms", "host-crash@1s:mtbf=1s;host-recover=300ms"},
		{"host-crash@2s:host=0,mtbf=2s;host-recover=300ms", "host-crash@2s:mtbf=2s;host-recover=300ms"},
		{"host-crash@4s:host=0,mtbf=4s;host-recover=300ms", "host-crash@4s:mtbf=4s;host-recover=300ms"},
		{"host-crash@2s:host=0,mtbf=2s;host-recover=150ms", "host-crash@2s:mtbf=2s;host-recover=150ms"},
		{"host-crash@2s:host=0,mtbf=2s;host-recover=600ms", "host-crash@2s:mtbf=2s;host-recover=600ms"},
		// slowatch's crash scenario and perfbench's serveCrashPlan.
		{"host-crash@600ms:host=0,mtbf=2s;host-recover=300ms", "host-crash@600ms:mtbf=2s;host-recover=300ms"},
		// CI, README and EXPERIMENTS.md.
		{"vfio-reset:p=0.08;dma-map:every=5;cni-add:p=0.05;scrubber:p=0.3,lat=2", "cni-add:p=0.05;dma-map:every=5;scrubber:p=0.3,lat=2;vfio-reset:p=0.08"},
		{"crash@dma:p=0.2;crash@boot:every=7;vfio-reset:p=0.1;cni-add:p=0.05", "cni-add:p=0.05;crash@boot:every=7;crash@dma:p=0.2;vfio-reset:p=0.1"},
		{"crash@dma:p=0.2;vfio-reset:p=0.1;cni-add:p=0.05", "cni-add:p=0.05;crash@dma:p=0.2;vfio-reset:p=0.1"},
		{"vfio-reset:p=0.1;cni-add:p=0.05", "cni-add:p=0.05;vfio-reset:p=0.1"},
		{"host-crash@600ms:host=0;host-recover=300ms", "host-crash@600ms;host-recover=300ms"},
		{"vfio-reset:p=0.1;dma-map:every=5", "dma-map:every=5;vfio-reset:p=0.1"},
		{"vfio-reset:p=0.1;dma-map:every=5,limit=3;mem-bw:lat=1.5", "dma-map:every=5,limit=3;mem-bw:lat=1.5;vfio-reset:p=0.1"},
		{"crash@dma:p=0.2;crash@boot:every=7", "crash@boot:every=7;crash@dma:p=0.2"},
	}
	for _, c := range faults {
		pl, err := fault.ParsePlan(c.spec)
		if err != nil {
			t.Errorf("fault.ParsePlan(%q): %v", c.spec, err)
		} else if got := pl.String(); got != c.canon {
			t.Errorf("fault.ParsePlan(%q).String() = %q, want %q", c.spec, got, c.canon)
		}
	}

	tenants := []struct{ spec, canon string }{
		{serve.DefaultWorkloadSpec, "api:rate=30;batch:rate=30,prio=low;web:rate=60,prio=high"},
		// The serving and slowatch flash-crowd workload.
		{serve.DefaultWorkloadSpec + ";flash@3s:x=6,for=2s", "api:rate=30;batch:rate=30,prio=low;web:rate=60,prio=high;flash@3s:x=6,for=2s"},
		{"api:rate=40;batch:rate=20,prio=low", "api:rate=40;batch:rate=20,prio=low"},
		{"web:rate=60,prio=high;batch:rate=30,prio=low;flash@3s:x=6,for=2s", "batch:rate=30,prio=low;web:rate=60,prio=high;flash@3s:x=6,for=2s"},
	}
	for _, c := range tenants {
		w, err := serve.ParseWorkload(c.spec)
		if err != nil {
			t.Errorf("serve.ParseWorkload(%q): %v", c.spec, err)
		} else if got := w.String(); got != c.canon {
			t.Errorf("serve.ParseWorkload(%q).String() = %q, want %q", c.spec, got, c.canon)
		}
	}

	alerts := []struct{ spec, canon string }{
		{DefaultAlertRules, "alert slo-burn: burnrate(serve_sojourn_seconds, slo=1s, short=500ms, long=2s) > 0.25;" +
			"alert crash-seen: value(serve_requests_crash_lost_total) > 0 for 50ms"},
		{"alert slo-burn: burnrate(serve_sojourn_seconds, slo=2s, short=500ms, long=2s) > 0.25",
			"alert slo-burn: burnrate(serve_sojourn_seconds, slo=2s, short=500ms, long=2s) > 0.25"},
	}
	for _, c := range alerts {
		rules, err := journey.ParseRules(c.spec)
		if err != nil {
			t.Errorf("journey.ParseRules(%q): %v", c.spec, err)
		} else if got := journey.FormatRules(rules); got != c.canon {
			t.Errorf("journey.ParseRules(%q) renders %q, want %q", c.spec, got, c.canon)
		}
	}
}
