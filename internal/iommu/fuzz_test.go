package iommu

import (
	"fmt"
	"testing"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

// domainScripts seed FuzzDomainMatchesPageMap. Each op is one byte plus
// its arguments (see runDomainScript).
var domainScripts = [][]byte{
	{0, 0, 3, 10, 4, 20, 2, 3, 0, 1, 2, 2},
	{0, 8, 2, 0, 8, 0, 0, 4, 1, 40, 3, 1, 6, 3, 3, 1, 0, 5},
	{0, 4, 1, 100, 2, 0, 0, 1, 50, 1, 0, 20, 2, 7},
	{0, 0, 4, 1, 1, 2, 1, 3, 1, 4, 1, 1, 1, 3, 0, 0, 1, 9, 9},
	{3, 0, 0, 10, 2, 200, 5, 1, 12, 200, 2, 11},
}

func FuzzDomainMatchesPageMap(f *testing.F) {
	for _, s := range domainScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := runDomainScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDomainMatchesPageMapSeeds runs the seed scripts with plain go test.
func TestDomainMatchesPageMapSeeds(t *testing.T) {
	for i, s := range domainScripts {
		if err := runDomainScript(s); err != nil {
			t.Errorf("script %d: %v", i, err)
		}
	}
}

// refDomain is the per-page reference: one IOVA page -> HPA page entry per
// translation, mapped atomically.
type refDomain struct {
	pt    map[int64]int64
	bytes int64
	clock time.Duration
}

// runDomainScript drives a Domain and the per-page reference through the
// same operations and returns the first difference. Ops: 0 map a region of
// up to four runs at an IOVA page (overlaps must fail and change nothing),
// 1 unmap a byte range that may start or end mid-extent, 2 map at an
// unaligned IOVA, 3 map an empty region. After every op each IOVA page of
// the window must translate alike, and the counters must agree.
func runDomainScript(script []byte) error {
	const window = 300
	pos := 0
	next := func() int64 {
		if pos >= len(script) {
			return 0
		}
		pos++
		return int64(script[pos-1])
	}
	k := sim.NewKernel()
	c := cost.Default()
	u := New(k, hostmem.PageSize4K, &c)
	ps := u.PageSize()
	d := u.InitDomain(new(Domain))
	other := u.InitDomain(new(Domain)) // must stay untouched
	ref := &refDomain{pt: make(map[int64]int64)}
	var err error
	k.Go("script", func(p *sim.Proc) {
		for op := 0; pos < len(script) && err == nil; op++ {
			var what string
			code := next() % 4
			switch code {
			case 0, 3:
				base := next()
				r := &hostmem.Region{}
				if code == 0 {
					for n := next()%4 + 1; n > 0; n-- {
						r.Runs = append(r.Runs, hostmem.Run{Start: next() * 3, Count: next() % 9})
					}
				}
				r.Bytes = r.PageCount() * ps
				what = fmt.Sprintf("map %v at page %d", r.Runs, base)
				gerr := d.Map(p, base*ps, r)
				werr := ref.mapRegion(base, r, u.costs.MapCostPerPage)
				if (gerr == nil) != (werr == nil) {
					err = fmt.Errorf("op %d %s: error %v, reference %v", op, what, gerr, werr)
				} else if gerr != nil && gerr.Error() != fmt.Sprintf("%v in domain %d", werr, d.ID) {
					err = fmt.Errorf("op %d %s: error %q, reference %q", op, what, gerr, werr)
				}
			case 1:
				base, n := next()*ps+next()%2*ps/2, next()*ps/3
				what = fmt.Sprintf("unmap [%d, +%d)", base, n)
				d.Unmap(p, base, n)
				ref.unmap(base/ps, (n+ps-1)/ps, ps)
			case 2:
				base := next()*ps + 1
				what = fmt.Sprintf("unaligned map at %d", base)
				if d.Map(p, base, &hostmem.Region{Runs: []hostmem.Run{{Start: 0, Count: 1}}}) == nil {
					err = fmt.Errorf("op %d %s accepted", op, what)
				}
			}
			if err != nil {
				break
			}
			if diff := ref.compare(d, p, window); diff != "" {
				err = fmt.Errorf("op %d %s: %s", op, what, diff)
			} else if other.MappedPages() != 0 || u.TotalMappedPages() != d.MappedPages() {
				err = fmt.Errorf("op %d %s: leaked into another domain", op, what)
			}
		}
	})
	k.Run()
	return err
}

// mapRegion maps region's pages from IOVA page base on, or nothing if one
// of them is mapped already; the error names the lowest such page.
func (r *refDomain) mapRegion(base int64, region *hostmem.Region, perPage time.Duration) error {
	n := region.PageCount()
	for pg := base; pg < base+n; pg++ {
		if _, ok := r.pt[pg]; ok {
			return fmt.Errorf("iommu: IOVA page %#x already mapped", pg)
		}
	}
	iova := base
	for _, run := range region.Runs {
		for hpa := run.Start; hpa < run.Start+run.Count; hpa++ {
			r.pt[iova] = hpa
			iova++
		}
	}
	r.bytes += n * hostmem.PageSize4K
	r.clock += time.Duration(n) * perPage
	return nil
}

func (r *refDomain) unmap(start, n, ps int64) {
	for pg := start; pg < start+n; pg++ {
		if _, ok := r.pt[pg]; ok {
			delete(r.pt, pg)
			r.bytes -= ps
		}
	}
}

func (r *refDomain) compare(d *Domain, p *sim.Proc, window int64) string {
	if d.MappedPages() != len(r.pt) || d.MappedBytes != r.bytes || p.Now() != r.clock {
		return fmt.Sprintf("%d pages, %d bytes at %v; reference %d, %d at %v",
			d.MappedPages(), d.MappedBytes, p.Now(), len(r.pt), r.bytes, r.clock)
	}
	for pg := int64(0); pg < window; pg++ {
		got, gok := d.TranslatePage(pg)
		want, wok := r.pt[pg]
		if got != want || gok != wok {
			return fmt.Sprintf("IOVA page %d -> %d, %v; reference %d, %v", pg, got, gok, want, wok)
		}
	}
	if err := d.pt.Check(); err != nil {
		return fmt.Sprintf("%v: %v", err, d.Runs())
	}
	return ""
}
