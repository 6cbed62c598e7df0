package fault

import (
	"strings"
	"testing"
	"time"
)

func TestParsePlanValid(t *testing.T) {
	pl, err := ParsePlan("vfio-reset:p=0.1;dma-map:every=5,limit=3;mem-bw:lat=1.5")
	if err != nil {
		t.Fatal(err)
	}
	r, ok := pl.Rule(SiteVFIOReset)
	if !ok || r.Prob != 0.1 {
		t.Errorf("vfio-reset rule = %+v, %v", r, ok)
	}
	r, ok = pl.Rule(SiteDMAMap)
	if !ok || r.EveryN != 5 || r.Limit != 3 {
		t.Errorf("dma-map rule = %+v, %v", r, ok)
	}
	r, ok = pl.Rule(SiteMemBW)
	if !ok || r.Latency != 1.5 {
		t.Errorf("mem-bw rule = %+v, %v", r, ok)
	}
	if pl.Empty() {
		t.Error("parsed plan reports empty")
	}
}

func TestParsePlanWhitespaceAndEmpty(t *testing.T) {
	for _, spec := range []string{"", "   ", ";", " ; ; "} {
		pl, err := ParsePlan(spec)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", spec, err)
		}
		if !pl.Empty() {
			t.Errorf("ParsePlan(%q) not empty", spec)
		}
	}
	pl, err := ParsePlan("  scrubber : p = 0.5 , lat = 2 ")
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := pl.Rule(SiteScrubber); r.Prob != 0.5 || r.Latency != 2 {
		t.Errorf("whitespace-tolerant parse got %+v", r)
	}
}

func TestParsePlanErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"bogus-site:p=0.1", "unknown site"},
		{"vfio-reset", "want site:key"},
		{"vfio-reset:p", "want key=val"},
		{"vfio-reset:p=1.5", "out of [0,1]"},
		{"vfio-reset:p=-0.1", "out of [0,1]"},
		{"vfio-reset:p=NaN", "non-finite"},
		{"vfio-reset:p=+Inf", "non-finite"},
		{"vfio-reset:p=abc", "invalid syntax"},
		{"vfio-reset:every=0", "want integer >= 1"},
		{"vfio-reset:every=-2", "want integer >= 1"},
		{"vfio-reset:every=x", "want integer >= 1"},
		{"vfio-reset:limit=-1", "want integer >= 0"},
		{"vfio-reset:lat=0", "must be > 0"},
		{"vfio-reset:lat=-1", "must be > 0"},
		{"vfio-reset:speed=9", "unknown key"},
		{"vfio-reset:p=0.1;vfio-reset:p=0.2", "specified twice"},
		{"vfio-reset:p=0.1,p=0.2", "duplicate key"},
	}
	for _, c := range cases {
		pl, err := ParsePlan(c.spec)
		if err == nil {
			t.Errorf("ParsePlan(%q) = %v, want error", c.spec, pl)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParsePlan(%q) error %q missing %q", c.spec, err, c.wantSub)
		}
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	specs := []string{
		"vfio-reset:p=0.1",
		"dma-map:every=5,limit=3;vfio-reset:p=0.1",
		"cni-add:p=0.05;mem-bw:lat=1.5;scrubber:p=0.3,lat=2",
	}
	for _, spec := range specs {
		pl, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		if got := pl.String(); got != spec {
			t.Errorf("String() = %q, want %q", got, spec)
		}
	}
	// Unsorted input canonicalizes to sorted output and re-parses to the
	// same rendering (the cache-key property).
	pl, err := ParsePlan("vfio-reset:p=0.2;bus-reset:every=2")
	if err != nil {
		t.Fatal(err)
	}
	want := "bus-reset:every=2;vfio-reset:p=0.2"
	if got := pl.String(); got != want {
		t.Errorf("canonical String() = %q, want %q", got, want)
	}
	// Inert rules and a host-recover with no crash clause change nothing,
	// so they drop out of the rendering.
	for spec, want := range map[string]string{
		"vfio-reset:p=0.1;dma-map:limit=3":           "vfio-reset:p=0.1",
		"vfio-reset:p=0.1;mem-bw:lat=1":              "vfio-reset:p=0.1",
		"vfio-reset:p=0.1;host-recover=1s":           "vfio-reset:p=0.1",
		"host-crash@1s;host-recover=1s;mem-bw:lat=1": "host-crash@1s;host-recover=1s",
	} {
		pl, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		if got := pl.String(); got != want {
			t.Errorf("ParsePlan(%q).String() = %q, want %q", spec, got, want)
		}
	}
}

func TestPlanEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Error("nil plan not empty")
	}
	if nilPlan.String() != "" {
		t.Error("nil plan renders non-empty")
	}
	if !NewPlan().Empty() {
		t.Error("fresh plan not empty")
	}
	// Inert rules (zero value, Latency exactly 1) keep a plan empty.
	pl := NewPlan()
	pl.Set(SiteVFIOReset, Rule{})
	pl.Set(SiteMemBW, Rule{Latency: 1})
	if !pl.Empty() {
		t.Error("plan of inert rules not empty")
	}
	if inj := NewInjector(7, pl); inj != nil {
		t.Error("empty plan produced a non-nil injector")
	}
	if got := pl.String(); got != "" {
		t.Errorf("plan of inert rules renders %q, want \"\"", got)
	}
	// Parsed inert rules and a bare host-recover are empty too, and an
	// empty plan renders as "".
	for _, spec := range []string{"vfio-reset:limit=5", "mem-bw:lat=1", "host-recover=1s"} {
		pl, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		if !pl.Empty() || pl.String() != "" {
			t.Errorf("ParsePlan(%q): Empty()=%v String()=%q, want true and \"\"", spec, pl.Empty(), pl.String())
		}
	}
}

func TestNilInjectorIsFree(t *testing.T) {
	var inj *Injector
	if err := inj.Fail(SiteVFIOReset); err != nil {
		t.Errorf("nil injector failed: %v", err)
	}
	if d := inj.Inflate(SiteMemBW, time.Second); d != time.Second {
		t.Errorf("nil injector inflated to %v", d)
	}
	if inj.Rand() != nil {
		t.Error("nil injector has a PRNG")
	}
	if inj.Snapshot() != nil {
		t.Error("nil injector has a snapshot")
	}
	if inj.Injected() != 0 {
		t.Error("nil injector injected > 0")
	}
}

func TestInjectorEveryN(t *testing.T) {
	pl := NewPlan()
	pl.Set(SiteDMAMap, Rule{EveryN: 3})
	inj := NewInjector(1, pl)
	var fired []int
	for i := 1; i <= 10; i++ {
		if err := inj.Fail(SiteDMAMap); err != nil {
			fired = append(fired, i)
		}
	}
	want := []int{3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}

func TestInjectorLimit(t *testing.T) {
	pl := NewPlan()
	pl.Set(SiteCNIAdd, Rule{EveryN: 1, Limit: 2})
	inj := NewInjector(1, pl)
	n := 0
	for i := 0; i < 10; i++ {
		if inj.Fail(SiteCNIAdd) != nil {
			n++
		}
	}
	if n != 2 {
		t.Errorf("injected %d failures, want limit 2", n)
	}
	if inj.Injected() != 2 {
		t.Errorf("Injected() = %d, want 2", inj.Injected())
	}
}

func TestInjectorProbDeterminism(t *testing.T) {
	mk := func(seed uint64) []bool {
		inj := NewInjector(seed, Uniform(0.3, SiteVFIOReset))
		out := make([]bool, 200)
		for i := range out {
			out[i] = inj.Fail(SiteVFIOReset) != nil
		}
		return out
	}
	a, b := mk(42), mk(42)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverges across identical injectors", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Errorf("p=0.3 injected %d/%d times — probability not reaching decisions", hits, len(a))
	}
	c := mk(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 43 produced the same decision stream as seed 42")
	}
}

func TestInjectorUnknownSiteInert(t *testing.T) {
	inj := NewInjector(1, Uniform(1, SiteVFIOReset))
	if err := inj.Fail(SiteScrubber); err != nil {
		t.Errorf("unconfigured site failed: %v", err)
	}
	if d := inj.Inflate(SiteScrubber, time.Second); d != time.Second {
		t.Errorf("unconfigured site inflated to %v", d)
	}
}

func TestInjectorInflate(t *testing.T) {
	pl := NewPlan()
	pl.Set(SiteMemBW, Rule{Latency: 2.5})
	inj := NewInjector(1, pl)
	if d := inj.Inflate(SiteMemBW, 100*time.Millisecond); d != 250*time.Millisecond {
		t.Errorf("Inflate = %v, want 250ms", d)
	}
	if err := inj.Fail(SiteMemBW); err != nil {
		t.Errorf("latency-only site failed: %v", err)
	}
}

func TestSnapshotSortedAndCounted(t *testing.T) {
	pl := NewPlan()
	pl.Set(SiteVFIOReset, Rule{EveryN: 2})
	pl.Set(SiteCNIAdd, Rule{EveryN: 1})
	pl.Set(SiteMemBW, Rule{Latency: 2}) // configured, never fires
	inj := NewInjector(1, pl)
	for i := 0; i < 4; i++ {
		inj.Fail(SiteVFIOReset)
	}
	inj.Fail(SiteCNIAdd)
	snap := inj.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d sites, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Site >= snap[i].Site {
			t.Fatalf("snapshot not sorted: %v", snap)
		}
	}
	got := map[Site]SiteStat{}
	for _, st := range snap {
		got[st.Site] = st
	}
	if st := got[SiteVFIOReset]; st.Occurrences != 4 || st.Injected != 2 {
		t.Errorf("vfio-reset stat = %+v", st)
	}
	if st := got[SiteCNIAdd]; st.Occurrences != 1 || st.Injected != 1 {
		t.Errorf("cni-add stat = %+v", st)
	}
	if st := got[SiteMemBW]; st.Occurrences != 0 || st.Injected != 0 {
		t.Errorf("mem-bw stat = %+v", st)
	}
}

func TestCrashSites(t *testing.T) {
	for _, st := range CrashStages() {
		s := CrashSite(st)
		if !IsCrashSite(s) {
			t.Errorf("IsCrashSite(%s) = false", s)
		}
	}
	for _, s := range []Site{SiteVFIOReset, SiteDMAMap, "crash@", "crash@bogus", "dma"} {
		if IsCrashSite(s) {
			t.Errorf("IsCrashSite(%s) = true", s)
		}
	}
	// Crash sites are not part of the classic site list: Uniform must not
	// configure them, or chaos plans would silently start crashing startups.
	for _, s := range Sites() {
		if IsCrashSite(s) {
			t.Errorf("Sites() includes crash site %s", s)
		}
	}
}

func TestParsePlanCrashClauses(t *testing.T) {
	pl, err := ParsePlan("crash@dma:p=0.2;crash@boot:every=7,limit=3")
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := pl.Rule(CrashSite(CrashDMA)); !ok || r.Prob != 0.2 {
		t.Errorf("crash@dma rule = %+v, %v", r, ok)
	}
	if r, ok := pl.Rule(CrashSite(CrashBoot)); !ok || r.EveryN != 7 || r.Limit != 3 {
		t.Errorf("crash@boot rule = %+v, %v", r, ok)
	}
	// Canonical rendering round-trips (the cache-key property).
	want := "crash@boot:every=7,limit=3;crash@dma:p=0.2"
	if got := pl.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if pl2, err := ParsePlan(pl.String()); err != nil || pl2.String() != want {
		t.Errorf("round trip: %v, %v", pl2, err)
	}
	for _, c := range []struct{ spec, wantSub string }{
		{"crash@bogus:p=0.1", "unknown site"},
		{"crash@:p=0.1", "unknown site"},
		{"crash@dma:lat=2", "not valid for crash sites"},
	} {
		if _, err := ParsePlan(c.spec); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParsePlan(%q) error = %v, want %q", c.spec, err, c.wantSub)
		}
	}
}

func TestParsePlanHostClauses(t *testing.T) {
	pl, err := ParsePlan("host-crash@2s:host=1,mtbf=5s;daemon-crash@500ms;host-recover=1s")
	if err != nil {
		t.Fatal(err)
	}
	if !pl.HasHostFaults() {
		t.Error("parsed host clauses but HasHostFaults is false")
	}
	if pl.Empty() {
		t.Error("host-clause plan reports empty")
	}
	hs := pl.HostClauses()
	if len(hs) != 2 {
		t.Fatalf("HostClauses() = %v, want 2 clauses", hs)
	}
	// Sorted by time: the daemon crash at 500ms precedes the host crash.
	if !hs[0].Daemon || hs[0].At != 500*time.Millisecond || hs[0].Host != 0 {
		t.Errorf("clause 0 = %+v", hs[0])
	}
	if hs[1].Daemon || hs[1].At != 2*time.Second || hs[1].Host != 1 || hs[1].MTBF != 5*time.Second {
		t.Errorf("clause 1 = %+v", hs[1])
	}
	if pl.RecoverAfter() != time.Second {
		t.Errorf("RecoverAfter() = %v, want 1s", pl.RecoverAfter())
	}
	// Canonical rendering: site rules first, host clauses sorted, recover
	// last; host=0 is omitted.
	want := "daemon-crash@500ms;host-crash@2s:host=1,mtbf=5s;host-recover=1s"
	if got := pl.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if pl2, err := ParsePlan(pl.String()); err != nil || pl2.String() != want {
		t.Errorf("round trip: %v, %v", pl2, err)
	}
	// Host clauses mix freely with site rules; canonical keeps site rules
	// ahead of the host block.
	mixed, err := ParsePlan("host-crash@1s:host=2;vfio-reset:p=0.1;host-recover=300ms")
	if err != nil {
		t.Fatal(err)
	}
	wantMixed := "vfio-reset:p=0.1;host-crash@1s:host=2;host-recover=300ms"
	if got := mixed.String(); got != wantMixed {
		t.Errorf("mixed String() = %q, want %q", got, wantMixed)
	}
}

func TestParsePlanHostClauseErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"host-crash@2s:lat=2", "lat is not valid for crash clauses"},
		{"daemon-crash@2s:lat=1.5", "lat is not valid for crash clauses"},
		{"host-crash@-1s", "want time >= 0"},
		{"host-crash@", "invalid duration"},
		{"host-crash@2s:host=-1", "want integer >= 0"},
		{"host-crash@2s:host=x", "want integer >= 0"},
		{"host-crash@2s:mtbf=0s", "want duration > 0"},
		{"host-crash@2s:mtbf=-5s", "want duration > 0"},
		{"host-crash@2s:speed=9", "unknown key"},
		{"host-crash@2s:host", "want key=val"},
		{"host-crash@2s:host=1,host=2", "duplicate key"},
		{"host-recover=0s", "want duration > 0"},
		{"host-recover=-1s", "want duration > 0"},
		{"host-recover=x", "invalid duration"},
		{"host-recover=1s;host-recover=2s", "specified twice"},
	}
	for _, c := range cases {
		pl, err := ParsePlan(c.spec)
		if err == nil {
			t.Errorf("ParsePlan(%q) = %v, want error", c.spec, pl)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParsePlan(%q) error %q missing %q", c.spec, err, c.wantSub)
		}
	}
}

func TestHostClausePlanGatesInjector(t *testing.T) {
	// A host-clause-only plan is not empty (it must enter cache keys) but
	// builds no site injector: the per-host fault machinery stays byte-
	// transparent for site-free plans.
	pl, err := ParsePlan("host-crash@1s;host-recover=500ms")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Empty() {
		t.Error("host-clause plan reports empty")
	}
	if inj := NewInjector(7, pl); inj != nil {
		t.Error("host-clause-only plan produced a site injector")
	}
	// A bare host-recover with no crash clause is inert: empty plan.
	bare, err := ParsePlan("host-recover=1s")
	if err != nil {
		t.Fatal(err)
	}
	if !bare.Empty() {
		t.Error("bare host-recover plan not empty")
	}
	if bare.HasHostFaults() {
		t.Error("bare host-recover plan claims host faults")
	}
}

func TestInjectorCrashEveryN(t *testing.T) {
	pl := NewPlan()
	pl.Set(CrashSite(CrashVhost), Rule{EveryN: 2})
	inj := NewInjector(1, pl)
	var fired []int
	for i := 1; i <= 6; i++ {
		if err := inj.Fail(CrashSite(CrashVhost)); err != nil {
			if !IsFault(err) {
				t.Errorf("crash error not an injected fault: %v", err)
			}
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 2 || fired[1] != 4 || fired[2] != 6 {
		t.Errorf("fired at %v, want [2 4 6]", fired)
	}
	// Unconfigured crash sites stay free, like every other site.
	if err := inj.Fail(CrashSite(CrashBoot)); err != nil {
		t.Errorf("unconfigured crash site failed: %v", err)
	}
}

func TestCrashStagesOrdered(t *testing.T) {
	want := []CrashStage{CrashCNI, CrashMicroVM, CrashVFIOReg, CrashDMA,
		CrashVhost, CrashDev, CrashFirmware, CrashBoot}
	got := CrashStages()
	if len(got) != len(want) {
		t.Fatalf("CrashStages() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CrashStages()[%d] = %s, want %s (startup order)", i, got[i], want[i])
		}
	}
}

func TestUniform(t *testing.T) {
	pl := Uniform(0.5)
	for _, s := range Sites() {
		if r, ok := pl.Rule(s); !ok || r.Prob != 0.5 {
			t.Errorf("Uniform missing site %s: %+v, %v", s, r, ok)
		}
	}
	pl = Uniform(0.1, SiteDMAMap)
	if _, ok := pl.Rule(SiteVFIOReset); ok {
		t.Error("site-restricted Uniform configured an unlisted site")
	}
}
