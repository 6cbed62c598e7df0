package metrics

import (
	"strings"
	"testing"
	"time"

	"fastiov/internal/clause"
	"fastiov/internal/sim"
)

func TestParseRulesRoundTrip(t *testing.T) {
	cases := []string{
		"alert slo-burn: burnrate(serve_sojourn_seconds, slo=2s, short=500ms, long=2s) > 0.25",
		"alert crash-seen: value(serve_requests_crash_lost_total) > 0 for 50ms",
		"alert plain: value(up) > 3",
		"alert a: value(x) > 1;alert b: burnrate(m, slo=1s, short=250ms, long=1s) > 0.5",
	}
	for _, spec := range cases {
		rules, err := ParseRules(spec)
		if err != nil {
			t.Errorf("ParseRules(%q): %v", spec, err)
			continue
		}
		if got := FormatRules(rules); got != spec {
			t.Errorf("not a fixed point:\n in  %q\n out %q", spec, got)
		}
		again, err := ParseRules(FormatRules(rules))
		if err != nil || FormatRules(again) != FormatRules(rules) {
			t.Errorf("re-parse diverged for %q: %v", spec, err)
		}
	}
	// Keyed burnrate args may come in any order, with any whitespace.
	const canon = "alert a: burnrate(m, slo=1s, short=250ms, long=1s) > 0.5"
	if rules, err := ParseRules(" alert a : burnrate( m , long=1s,short = 250ms , slo=1s ) > 0.5 ; "); err != nil || FormatRules(rules) != canon {
		t.Errorf("reordered burnrate args: rules=%v err=%v, want %q", rules, err, canon)
	}
	// Empty clauses are skipped.
	if rules, err := ParseRules(";;alert a: value(x) > 1;;"); err != nil || len(rules) != 1 {
		t.Errorf("empty clauses: rules=%v err=%v", rules, err)
	}
	if rules, err := ParseRules(""); err != nil || len(rules) != 0 {
		t.Errorf("empty spec: rules=%v err=%v", rules, err)
	}
}

func TestParseRulesRejects(t *testing.T) {
	bad := map[string]string{
		"no-prefix":        "value(x) > 1",
		"no-colon":         "alert a value(x) > 1",
		"bad-name":         "alert A!: value(x) > 1",
		"no-compare":       "alert a: value(x)",
		"bad-threshold":    "alert a: value(x) > lots",
		"nan":              "alert a: value(x) > NaN",
		"inf":              "alert a: value(x) > +Inf",
		"bad-metric":       "alert a: value(9up) > 1",
		"bad-call":         "alert a: mean(x) > 1",
		"burn-args":        "alert a: burnrate(m, slo=1s) > 0.5",
		"short-gt-long":    "alert a: burnrate(m, slo=1s, short=2s, long=1s) > 0.5",
		"zero-window":      "alert a: burnrate(m, slo=1s, short=0s, long=1s) > 0.5",
		"for-on-burnrate":  "alert a: burnrate(m, slo=1s, short=1s, long=1s) > 0.5 for 1s",
		"negative-for":     "alert a: value(x) > 1 for -1s",
		"duplicate-name":   "alert a: value(x) > 1;alert a: value(y) > 2",
		"bad-slo-duration": "alert a: burnrate(m, slo=wat, short=1s, long=1s) > 0.5",
		"missing-slo-key":  "alert a: burnrate(m, 1s, short=1s, long=1s) > 0.5",
		"duplicate-key":    "alert a: burnrate(m, slo=1s, slo=2s, long=1s) > 0.5",
		"unknown-key":      "alert a: burnrate(m, slo=1s, short=1s, mid=1s) > 0.5",
		"unclosed-paren":   "alert a: value(x > 1",
		"bad-for-duration": "alert a: value(x) > 1 for soon",
	}
	for name, spec := range bad {
		if _, err := ParseRules(spec); err == nil {
			t.Errorf("%s: ParseRules(%q) accepted", name, spec)
		}
	}
}

// fakeSource is a mutable metric surface; the driver proc rewrites it as
// simulated time advances and the engine daemon samples whatever is
// current.
type fakeSource struct {
	val        float64
	valOK      bool
	bad, total float64
	histOK     bool
}

func (f *fakeSource) FamilyValue(string) (float64, bool) { return f.val, f.valOK }
func (f *fakeSource) FamilyBad(string, float64) (float64, float64, bool) {
	return f.bad, f.total, f.histOK
}

func TestBurnRateFiresAndResolves(t *testing.T) {
	rules, err := ParseRules("alert burn: burnrate(m, slo=1s, short=100ms, long=400ms) > 0.25")
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{histOK: true}
	eng := NewEngine(rules, src)
	k := sim.NewKernel(1)
	eng.Start(k)
	// Healthy for 500ms, burning (every observation bad) for 500ms, then
	// healthy again for 500ms.
	k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			p.Sleep(5 * time.Millisecond)
			now := time.Duration(p.Now())
			src.total += 2
			if now > 500*time.Millisecond && now <= 1000*time.Millisecond {
				src.bad += 2
			}
		}
	})
	k.Run()

	fire, ok := eng.FirstFiring("burn", 0)
	if !ok {
		t.Fatalf("burn never fired; events: %v", eng.Events())
	}
	if fire <= 500*time.Millisecond || fire > time.Second {
		t.Errorf("fired at %s, want inside the burn phase (500ms, 1s]", fire)
	}
	res, ok := eng.FirstResolve("burn", fire)
	if !ok {
		t.Fatalf("burn never resolved; events: %v", eng.Events())
	}
	// The short window empties of bad observations within ~short+tick of
	// the burn ending.
	if res <= time.Second || res > 1200*time.Millisecond {
		t.Errorf("resolved at %s, want shortly after 1s", res)
	}
	if n := len(eng.Events()); n != 2 {
		t.Errorf("%d transitions, want exactly fire+resolve: %v", n, eng.Events())
	}
}

func TestBurnRateLongWindowFiltersBlips(t *testing.T) {
	rules, err := ParseRules("alert burn: burnrate(m, slo=1s, short=100ms, long=2s) > 0.25")
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{histOK: true}
	eng := NewEngine(rules, src)
	k := sim.NewKernel(1)
	eng.Start(k)
	// A 100ms blip of pure errors inside a 2s healthy run: the short
	// window saturates but the long window stays under the factor.
	k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			p.Sleep(5 * time.Millisecond)
			now := time.Duration(p.Now())
			src.total += 2
			if now > time.Second && now <= 1100*time.Millisecond {
				src.bad += 2
			}
		}
	})
	k.Run()
	if len(eng.Events()) != 0 {
		t.Errorf("blip paged through the long window: %v", eng.Events())
	}
}

func TestValueRuleSustain(t *testing.T) {
	rules, err := ParseRules("alert seen: value(x) > 0 for 100ms")
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{valOK: true}
	eng := NewEngine(rules, src)
	k := sim.NewKernel(1)
	eng.Start(k)
	k.Go("driver", func(p *sim.Proc) {
		// A 50ms breach (shorter than the sustain) at 200ms, then a real
		// breach from 500ms to 900ms.
		p.Sleep(200 * time.Millisecond)
		src.val = 1
		p.Sleep(50 * time.Millisecond)
		src.val = 0
		p.Sleep(250 * time.Millisecond)
		src.val = 1
		p.Sleep(400 * time.Millisecond)
		src.val = 0
		p.Sleep(300 * time.Millisecond)
	})
	k.Run()

	fire, ok := eng.FirstFiring("seen", 0)
	if !ok {
		t.Fatalf("never fired; events: %v", eng.Events())
	}
	if fire < 600*time.Millisecond || fire > 700*time.Millisecond {
		t.Errorf("fired at %s, want ~600ms (breach start + sustain)", fire)
	}
	if res, ok := eng.FirstResolve("seen", fire); !ok || res < 900*time.Millisecond {
		t.Errorf("resolve at %s ok=%v, want at/after 900ms", res, ok)
	}
	if n := len(eng.Events()); n != 2 {
		t.Errorf("%d transitions (the 50ms blip must not page): %v", n, eng.Events())
	}
}

func TestEngineUnknownFamilyIsSilent(t *testing.T) {
	rules, err := ParseRules("alert a: value(x) > 0;alert b: burnrate(m, slo=1s, short=100ms, long=1s) > 0")
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{} // both ok=false
	eng := NewEngine(rules, src)
	k := sim.NewKernel(1)
	eng.Start(k)
	k.Go("work", func(p *sim.Proc) { p.Sleep(time.Second) })
	k.Run()
	if len(eng.Events()) != 0 {
		t.Errorf("unknown families produced events: %v", eng.Events())
	}
	if got := len(eng.Rules()); got != 2 {
		t.Errorf("Rules() = %d, want 2", got)
	}
}

func TestAlertCanonicalAndTimeline(t *testing.T) {
	rules, _ := ParseRules("alert seen: value(x) > 0")
	src := &fakeSource{valOK: true, val: 1}
	eng := NewEngine(rules, src)
	k := sim.NewKernel(1)
	eng.Start(k)
	k.Go("work", func(p *sim.Proc) { p.Sleep(100 * time.Millisecond) })
	k.Run()

	canon := string(eng.AppendCanonical(nil))
	if !strings.HasPrefix(canon, "alerts rules=1 eval=25ms events=1\n") ||
		!strings.Contains(canon, "rule alert seen: value(x) > 0\n") ||
		!strings.Contains(canon, "seen firing") {
		t.Errorf("canonical timeline malformed:\n%s", canon)
	}
	var sb strings.Builder
	if err := eng.WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "alert timeline: 1 rules") || !strings.Contains(sb.String(), "firing") {
		t.Errorf("human timeline malformed:\n%s", sb.String())
	}
	if eng.Fingerprint() == 0 {
		t.Error("fingerprint is zero")
	}
	// Empty engine renders the no-transitions marker.
	var empty strings.Builder
	e2 := NewEngine(nil, src)
	if err := e2.WriteTimeline(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "(no transitions)") {
		t.Errorf("empty timeline: %q", empty.String())
	}
}

// FuzzParseAlertRules pins the grammar's two contracts: the parser never
// panics on arbitrary input, and every accepted spec renders back to a
// fixed point (ParseRules ∘ FormatRules is the identity on parsed rules).
func FuzzParseAlertRules(f *testing.F) {
	for _, seed := range []string{
		"",
		";",
		"alert slo-burn: burnrate(serve_sojourn_seconds, slo=2s, short=500ms, long=2s) > 0.25",
		"alert crash-seen: value(serve_requests_crash_lost_total) > 0 for 50ms",
		"alert a: value(x) > 1;alert b: burnrate(m, slo=1s, short=250ms, long=1s) > 0.5",
		"alert a: value(x) > 1e300 for 1h",
		"alert a: burnrate(m, slo=1s, short=2s, long=1s) > 0.5",
		"alert a: value(x) > NaN",
		"alert a: mean(x) > 1",
		"alert name-9: value(a:b_c) > -3.5",
		" ; alert a : burnrate( m , long=2s , slo=1s , short=1s ) > 0.5 ; ",
		"alert a: burnrate(m, slo=1s, slo=2s, long=1s) > 0.5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if err := clause.FixedPoint(spec, ParseRules, FormatRules); err != nil {
			t.Fatal(err)
		}
	})
}
