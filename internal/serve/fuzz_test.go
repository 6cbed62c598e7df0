package serve

import (
	"testing"

	"fastiov/internal/clause"
)

// FuzzParseWorkload drives the tenant/priority/rate grammar with arbitrary
// input, mirroring fault.FuzzParsePlan: the parser must never panic, must
// never return both a workload and an error, and every accepted spec must
// round-trip through the canonical rendering to a fixed point.
func FuzzParseWorkload(f *testing.F) {
	for _, seed := range []string{
		"",
		"api:rate=10",
		DefaultWorkloadSpec,
		"web:rate=60,prio=high;batch:rate=30,prio=low,weight=2",
		"a:rate=0.5;b:rate=1e-05",
		"api:rate=10;flash@3s:x=6,for=2s",
		"api:rate=10;flash@90s:x=1.5",
		"api:rate=0",
		"api:rate=NaN",
		"api:rate=-1",
		"api:rate=10,weight=0",
		"api:rate=10,prio=urgent",
		"api:rate=10;api:rate=20",
		"flash@1s:x=2",
		"api:rate=10;flash@1s:for=2s",
		"api:rate=10;flash@1s:x=2;flash@2s:x=3",
		";;;",
		"api:",
		":rate=10",
		"api:rate==1",
		"api:rate=10,,prio=low",
		"API:rate=10",
		"api:rate=10;",
		" api : rate = 10 ; flash@ 1s : x = 2 ",
		"api:rate=10;flash@1s:x=2,x=3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if err := clause.FixedPoint(spec, ParseWorkload, (*Workload).String); err != nil {
			t.Fatal(err)
		}
		if w, err := ParseWorkload(spec); (w == nil) == (err == nil) {
			t.Errorf("ParseWorkload(%q) = %v, %v: want exactly one of workload and error", spec, w, err)
		}
	})
}
