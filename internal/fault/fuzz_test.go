package fault

import (
	"testing"

	"fastiov/internal/clause"
)

// FuzzParsePlan asserts the parser's two safety properties: it never
// panics on arbitrary input, and every spec it accepts canonicalizes to a
// rendering that re-parses to the same rendering (String is a fixed point,
// which is what makes it usable as a cache-key component).
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"vfio-reset:p=0.1",
		"dma-map:every=5,limit=3;vfio-reset:p=0.1",
		"mem-bw:lat=1.5",
		"scrubber:p=0.3,lat=2;cni-add:p=0.05",
		"bus-reset:every=1",
		"vfio-reset:p=1e-05",
		"bogus:p=0.1",
		"vfio-reset:p=NaN",
		"vfio-reset:p=0.1;vfio-reset:p=0.2",
		";;;",
		"vfio-reset:",
		":p=0.1",
		"vfio-reset:p==1",
		"vfio-reset:p=0.1,,every=2",
		"crash@dma:p=0.2",
		"crash@boot:every=7;crash@cni:p=0.1,limit=2",
		"crash@dma:lat=2",
		"crash@bogus:p=0.1",
		"crash@:p=0.1",
		"crash@dma:p=0.2;vfio-reset:p=0.1",
		"host-crash@2s",
		"host-crash@2s:host=1,mtbf=5s",
		"daemon-crash@500ms",
		"daemon-crash@1s:host=3,mtbf=2s",
		"host-recover=1s",
		"host-crash@300ms:host=0;daemon-crash@450ms:host=1;host-recover=250ms",
		"host-crash@2s:lat=2",
		"host-crash@-1s",
		"host-crash@2s:host=-1",
		"host-crash@2s:mtbf=0s",
		"host-recover=0s",
		"host-recover=1s;host-recover=2s",
		"host-crash@",
		"host-crash@2s:host=x",
		"host-crash@2s:speed=9",
		"host-crash@1s:host=1;vfio-reset:p=0.1;host-recover=500ms",
		"vfio-reset:p=0.1,p=0.2",
		"vfio-reset:limit=5",
		" host-recover = 1s ; host-crash@ 2s : host = 1 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if err := clause.FixedPoint(spec, ParsePlan, (*Plan).String); err != nil {
			t.Fatal(err)
		}
		pl, err := ParsePlan(spec)
		if err != nil {
			if pl != nil {
				t.Errorf("ParsePlan(%q) returned both a plan and error %v", spec, err)
			}
			return
		}
		if pl2, _ := ParsePlan(pl.String()); pl.Empty() != pl2.Empty() {
			t.Errorf("emptiness diverges across round trip of %q", spec)
		}
	})
}
