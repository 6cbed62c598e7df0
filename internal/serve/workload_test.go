package serve

import (
	"strings"
	"testing"
	"time"
)

func TestParseWorkloadValid(t *testing.T) {
	w, err := ParseWorkload("web:rate=60,prio=high;batch:rate=30,prio=low,weight=2;flash@3s:x=6,for=2s")
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Tenants) != 2 {
		t.Fatalf("tenants = %d, want 2", len(w.Tenants))
	}
	// Canonical order is by name: batch before web.
	b, web := w.Tenants[0], w.Tenants[1]
	if b.Name != "batch" || b.Rate != 30 || b.Priority != PrioLow || b.Weight != 2 {
		t.Errorf("batch = %+v", b)
	}
	if web.Name != "web" || web.Rate != 60 || web.Priority != PrioHigh || web.Weight != 1 {
		t.Errorf("web = %+v", web)
	}
	if w.Flash == nil || w.Flash.At != 3*time.Second || w.Flash.Factor != 6 || w.Flash.For != 2*time.Second {
		t.Errorf("flash = %+v", w.Flash)
	}
	if got := w.TotalRate(); got != 90 {
		t.Errorf("TotalRate = %v, want 90", got)
	}
	// Empty clauses are skipped and whitespace around separators ignored.
	for spec, want := range map[string]string{
		"api:rate=10;":                       "api:rate=10",
		";; api : rate = 10 , prio = high ;": "api:rate=10,prio=high",
		"api:rate=10; flash@ 3s : x = 6 ;":   "api:rate=10;flash@3s:x=6,for=1s",
	} {
		w, err := ParseWorkload(spec)
		if err != nil {
			t.Errorf("ParseWorkload(%q): %v", spec, err)
		} else if got := w.String(); got != want {
			t.Errorf("ParseWorkload(%q) = %q, want %q", spec, got, want)
		}
	}
}

func TestParseWorkloadDefaults(t *testing.T) {
	w, err := ParseWorkload("api:rate=10")
	if err != nil {
		t.Fatal(err)
	}
	tn := w.Tenants[0]
	if tn.Priority != PrioNormal || tn.Weight != 1 {
		t.Errorf("defaults = %+v, want prio=normal weight=1", tn)
	}
	if w.Flash != nil {
		t.Errorf("unexpected flash %+v", w.Flash)
	}
	// flash "for" defaults to 1s.
	w2, err := ParseWorkload("api:rate=10;flash@1s:x=2")
	if err != nil {
		t.Fatal(err)
	}
	if w2.Flash.For != time.Second {
		t.Errorf("flash for = %v, want 1s", w2.Flash.For)
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"", "empty workload"},
		{"   ", "empty workload"},
		{";", "no tenants"},
		{"api", "want name:key=value"},
		{"API:rate=10", "bad tenant name"},
		{"a_b:rate=10", "bad tenant name"},
		{":rate=10", "bad tenant name"},
		{"api:rate", "bad key=value"},
		{"api:prio=high", "missing rate"},
		{"api:rate=abc", "bad rate"},
		{"api:rate=NaN", "bad rate"},
		{"api:rate=+Inf", "bad rate"},
		{"api:rate=-1", "bad rate"},
		{"api:rate=10,prio=urgent", "unknown priority"},
		{"api:rate=10,weight=0", "bad weight"},
		{"api:rate=10,weight=x", "bad weight"},
		{"api:rate=10,speed=9", "unknown key"},
		{"api:rate=10,rate=20", "duplicate key"},
		{"api:rate=10;flash@1s:x=2,x=3", "duplicate key"},
		{"api:rate=10;api:rate=20", "duplicate tenant"},
		{"flash@1s:x=2", "no tenants"},
		{"api:rate=10;flash@1s:x=2;flash@2s:x=3", "duplicate flash"},
		{"api:rate=10;flash@-1s:x=2", "bad flash start"},
		{"api:rate=10;flash@oops:x=2", "bad flash start"},
		{"api:rate=10;flash@1s:for=2s", "flash missing x"},
		{"api:rate=10;flash@1s:x=0", "bad flash factor"},
		{"api:rate=10;flash@1s:x=NaN", "bad flash factor"},
		{"api:rate=10;flash@1s:x=2,for=0s", "bad flash duration"},
		{"api:rate=10;flash@1s:x=2,dur=1s", "unknown key"},
	}
	for _, c := range cases {
		w, err := ParseWorkload(c.spec)
		if err == nil {
			t.Errorf("ParseWorkload(%q) = %v, want error", c.spec, w)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseWorkload(%q) error %q missing %q", c.spec, err, c.wantSub)
		}
	}
}

// TestWorkloadStringFixedPoint pins the grammar's canonical-form contract:
// String re-parses to an identical workload and re-encoding is a fixed point
// even for inputs whose duration syntax normalizes (90s -> 1m30s).
func TestWorkloadStringFixedPoint(t *testing.T) {
	specs := []string{
		DefaultWorkloadSpec,
		"api:rate=10",
		"web:rate=60,prio=high;batch:rate=30,prio=low,weight=2",
		"a:rate=0.5;b:rate=1e-05",
		"api:rate=10;flash@90s:x=6,for=150s", // durations normalize
	}
	for _, spec := range specs {
		w, err := ParseWorkload(spec)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", spec, err)
		}
		canon := w.String()
		w2, err := ParseWorkload(canon)
		if err != nil {
			t.Fatalf("re-parse of canonical %q: %v", canon, err)
		}
		if got := w2.String(); got != canon {
			t.Errorf("String not a fixed point: %q -> %q -> %q", spec, canon, got)
		}
	}
}

func TestWorkloadScaled(t *testing.T) {
	w, err := ParseWorkload("a:rate=10;b:rate=30")
	if err != nil {
		t.Fatal(err)
	}
	s := w.Scaled(80)
	if got := s.TotalRate(); got != 80 {
		t.Errorf("scaled total = %v, want 80", got)
	}
	if s.Tenants[0].Rate != 20 || s.Tenants[1].Rate != 60 {
		t.Errorf("proportions not preserved: %+v", s.Tenants)
	}
	// target <= 0 is a no-op copy, and the copy must not alias the original.
	u := w.Scaled(0)
	u.Tenants[0].Rate = 999
	if w.Tenants[0].Rate != 10 {
		t.Error("Scaled copy aliases the source workload")
	}
}

func TestArrivalsDeterministicAndOrdered(t *testing.T) {
	w, err := ParseWorkload("web:rate=40,prio=high;api:rate=20;flash@2s:x=4,for=1s")
	if err != nil {
		t.Fatal(err)
	}
	a := w.Arrivals(42, 5*time.Second)
	b := w.Arrivals(42, 5*time.Second)
	if len(a) == 0 {
		t.Fatal("no arrivals drawn")
	}
	if len(a) != len(b) {
		t.Fatalf("double draw lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across identical draws: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := range a {
		if a[i].ID != i {
			t.Errorf("arrival %d has ID %d", i, a[i].ID)
		}
		if a[i].At < 0 || a[i].At >= 5*time.Second {
			t.Errorf("arrival %d at %v outside window", i, a[i].At)
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Errorf("arrivals out of order at %d: %v < %v", i, a[i].At, a[i-1].At)
		}
	}
	if c := w.Arrivals(43, 5*time.Second); len(c) == len(a) && c[0].At == a[0].At {
		// Different seeds should draw different processes; identical first
		// instants with identical lengths would mean the seed is ignored.
		same := true
		for i := range c {
			if c[i].At != a[i].At {
				same = false
				break
			}
		}
		if same {
			t.Error("seed 42 and 43 drew identical arrival schedules")
		}
	}
}

// TestArrivalsStreamIsolation pins the split-stream contract: adding a tenant
// must not shift an existing tenant's draws.
func TestArrivalsStreamIsolation(t *testing.T) {
	solo, _ := ParseWorkload("api:rate=20")
	both, _ := ParseWorkload("api:rate=20;web:rate=40")
	window := 5 * time.Second
	want := solo.Arrivals(7, window)
	var got []Request
	for _, r := range both.Arrivals(7, window) {
		if r.Tenant == "api" {
			got = append(got, r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("api arrivals changed when web added: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].At != want[i].At {
			t.Fatalf("api arrival %d shifted: %v vs %v", i, got[i].At, want[i].At)
		}
	}
}

func TestArrivalsFlashDensity(t *testing.T) {
	w, err := ParseWorkload("api:rate=20;flash@2s:x=10,for=1s")
	if err != nil {
		t.Fatal(err)
	}
	arr := w.Arrivals(99, 5*time.Second)
	inFlash, outFlash := 0, 0
	for _, r := range arr {
		if r.At >= 2*time.Second && r.At < 3*time.Second {
			inFlash++
		} else {
			outFlash++
		}
	}
	// Flash second offers 200 expected arrivals vs 80 for the other four
	// seconds combined; even a 5-sigma fluctuation keeps inFlash ahead.
	if inFlash <= outFlash {
		t.Errorf("flash window not denser: %d in vs %d out", inFlash, outFlash)
	}
}

func TestPoissonTimesDegenerate(t *testing.T) {
	w, _ := ParseWorkload("idle:rate=0")
	if arr := w.Arrivals(1, time.Second); len(arr) != 0 {
		t.Errorf("zero-rate tenant drew %d arrivals", len(arr))
	}
	w2, _ := ParseWorkload("api:rate=100")
	if arr := w2.Arrivals(1, 0); len(arr) != 0 {
		t.Errorf("zero window drew %d arrivals", len(arr))
	}
}

func TestPriorityRoundTrip(t *testing.T) {
	for _, p := range []Priority{PrioLow, PrioNormal, PrioHigh} {
		got, err := parsePriority(p.String())
		if err != nil || got != p {
			t.Errorf("parsePriority(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := parsePriority("urgent"); err == nil {
		t.Error("parsePriority accepted unknown class")
	}
}
