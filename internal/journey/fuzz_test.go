package journey

import (
	"testing"

	"fastiov/internal/clause"
)

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
