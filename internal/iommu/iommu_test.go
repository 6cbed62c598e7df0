package iommu

import (
	"reflect"
	"testing"

	"fastiov/internal/cost"
	"fastiov/internal/hostmem"
	"fastiov/internal/pagetab"
	"fastiov/internal/sim"
)

const mb = int64(1) << 20

func setup() (*sim.Kernel, *hostmem.Allocator, *IOMMU) {
	k := sim.NewKernel()
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes = 1 << 30
	c := cost.Default()
	mem := hostmem.New(k, cfg, c)
	return k, mem, New(k, mem.PageSize(), &c)
}

func TestMapAndTranslate(t *testing.T) {
	k, mem, u := setup()
	dom := u.InitDomain(new(Domain))
	k.Go("t", func(p *sim.Proc) {
		region, _ := mem.Allocate(p, 8*mb)
		if err := dom.Map(p, 0, region); err != nil {
			t.Fatal(err)
		}
		if dom.MappedPages() != 4 {
			t.Errorf("mapped pages = %d", dom.MappedPages())
		}
		hpa, err := dom.Translate(2*mb + 100)
		if err != nil {
			t.Fatal(err)
		}
		// Page-offset must be preserved.
		if hpa%mem.PageSize() != 100 {
			t.Errorf("offset not preserved: hpa=%#x", hpa)
		}
	})
	k.Run()
}

func TestTranslateUnmappedFaults(t *testing.T) {
	k, _, u := setup()
	dom := u.InitDomain(new(Domain))
	k.Go("t", func(p *sim.Proc) {
		if _, err := dom.Translate(0); err == nil {
			t.Error("translate of empty domain should fault")
		}
	})
	k.Run()
}

func TestDoubleMapRejected(t *testing.T) {
	k, mem, u := setup()
	dom := u.InitDomain(new(Domain))
	k.Go("t", func(p *sim.Proc) {
		r1, _ := mem.Allocate(p, 4*mb)
		r2, _ := mem.Allocate(p, 4*mb)
		if err := dom.Map(p, 0, r1); err != nil {
			t.Fatal(err)
		}
		if err := dom.Map(p, 0, r2); err == nil {
			t.Error("overlapping IOVA map accepted")
		}
	})
	k.Run()
}

// A map that overlaps an existing extent must leave the domain exactly as
// it was: no translation for the pages before the conflict, no byte count
// change, no time charged.
func TestFailedMapLeavesDomainUnchanged(t *testing.T) {
	k, mem, u := setup()
	dom := u.InitDomain(new(Domain))
	k.Go("t", func(p *sim.Proc) {
		r1, _ := mem.Allocate(p, 4*mb) // 2 pages
		r2, _ := mem.Allocate(p, 8*mb) // 4 pages
		if err := dom.Map(p, 4*mb, r1); err != nil {
			t.Fatal(err)
		}
		runs := append([]pagetab.Run(nil), dom.Runs()...)
		pages, bytes, now := dom.MappedPages(), dom.MappedBytes, p.Now()
		if err := dom.Map(p, 0, r2); err == nil {
			t.Fatal("map over IOVA pages 2-3 accepted")
		}
		for pg := int64(0); pg < 2; pg++ {
			if _, ok := dom.TranslatePage(pg); ok {
				t.Errorf("IOVA page %d translated after a failed map", pg)
			}
		}
		if !reflect.DeepEqual(dom.Runs(), runs) || dom.MappedPages() != pages || dom.MappedBytes != bytes || u.TotalMappedPages() != pages {
			t.Errorf("failed map changed the domain: %d pages, %d bytes, runs %v; before %d, %d, %v",
				dom.MappedPages(), dom.MappedBytes, dom.Runs(), pages, bytes, runs)
		}
		if err := dom.pt.Check(); err != nil {
			t.Error(err)
		}
		if p.Now() != now {
			t.Errorf("failed map charged %v", p.Now()-now)
		}
	})
	k.Run()
}

func TestUnalignedIOVARejected(t *testing.T) {
	k, mem, u := setup()
	dom := u.InitDomain(new(Domain))
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 2*mb)
		if err := dom.Map(p, 4096, r); err == nil {
			t.Error("unaligned IOVA accepted")
		}
	})
	k.Run()
}

func TestUnmapRemovesTranslations(t *testing.T) {
	k, mem, u := setup()
	dom := u.InitDomain(new(Domain))
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 8*mb)
		dom.Map(p, 16*mb, r)
		dom.Unmap(p, 16*mb, 8*mb)
		if dom.MappedPages() != 0 {
			t.Errorf("mapped pages after unmap = %d", dom.MappedPages())
		}
		if dom.MappedBytes != 0 {
			t.Errorf("mapped bytes = %d", dom.MappedBytes)
		}
		if _, err := dom.Translate(16 * mb); err == nil {
			t.Error("translate after unmap should fault")
		}
	})
	k.Run()
}

func TestDomainsIsolated(t *testing.T) {
	k, mem, u := setup()
	a, b := u.InitDomain(new(Domain)), u.InitDomain(new(Domain))
	if a.ID == b.ID {
		t.Fatal("duplicate domain ids")
	}
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 2*mb)
		a.Map(p, 0, r)
		if _, err := b.Translate(0); err == nil {
			t.Error("domain b sees domain a's mapping")
		}
	})
	k.Run()
}

func TestMapChargesPerPageCost(t *testing.T) {
	k, mem, u := setup()
	u.costs.MapCostPerPage = 1000 // 1µs
	dom := u.InitDomain(new(Domain))
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 8*mb) // 4 pages
		before := p.Now()
		dom.Map(p, 0, r)
		if got := p.Now() - before; got != 4000 {
			t.Errorf("map cost = %v, want 4µs", got)
		}
	})
	k.Run()
}

func TestDestroyDomain(t *testing.T) {
	k, mem, u := setup()
	dom := u.InitDomain(new(Domain))
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 4*mb)
		if err := dom.Map(p, 0, r); err != nil {
			t.Fatal(err)
		}
	})
	k.Run()
	u.DestroyDomain(dom)
	if dom.Runs() != nil || dom.MappedPages() != 0 || u.TotalMappedPages() != 0 || u.Domains() != 0 {
		t.Errorf("translations not released: %d runs, %d pages, %d total, %d domains",
			len(dom.Runs()), dom.MappedPages(), u.TotalMappedPages(), u.Domains())
	}
}

func TestTranslatePage(t *testing.T) {
	k, mem, u := setup()
	dom := u.InitDomain(new(Domain))
	k.Go("t", func(p *sim.Proc) {
		r, _ := mem.Allocate(p, 2*mb)
		dom.Map(p, 0, r)
		if _, ok := dom.TranslatePage(0); !ok {
			t.Error("page 0 not mapped")
		}
		if _, ok := dom.TranslatePage(5); ok {
			t.Error("page 5 mapped unexpectedly")
		}
	})
	k.Run()
}

// Regions mapped where both IOVA and HPA continue the previous mapping
// join its run; an unmap from the middle splits it, and a region whose
// pieces are HPA-contiguous is one run however many pieces it has.
func TestMapMergesContinuingRuns(t *testing.T) {
	k, _, u := setup()
	dom := u.InitDomain(new(Domain))
	check := func(want []pagetab.Run) {
		t.Helper()
		if !reflect.DeepEqual(dom.Runs(), want) {
			t.Errorf("runs %v, want %v", dom.Runs(), want)
		}
		if err := dom.pt.Check(); err != nil {
			t.Error(err)
		}
	}
	k.Go("t", func(p *sim.Proc) {
		pieces := &hostmem.Region{Runs: []hostmem.Run{{Start: 100, Count: 2}, {Start: 102, Count: 2}, {Start: 104, Count: 1}}}
		if err := dom.Map(p, 0, pieces); err != nil {
			t.Fatal(err)
		}
		check([]pagetab.Run{{Key: 0, Val: 100, N: 5}})
		// IOVA continues but HPA does not: a second run.
		if err := dom.Map(p, 5*2*mb, &hostmem.Region{Runs: []hostmem.Run{{Start: 200, Count: 1}}}); err != nil {
			t.Fatal(err)
		}
		check([]pagetab.Run{{Key: 0, Val: 100, N: 5}, {Key: 5, Val: 200, N: 1}})
		dom.Unmap(p, 2*2*mb, 2*mb)
		check([]pagetab.Run{{Key: 0, Val: 100, N: 2}, {Key: 3, Val: 103, N: 2}, {Key: 5, Val: 200, N: 1}})
		// Remapping the hole with the page it held rejoins the run.
		if err := dom.Map(p, 2*2*mb, &hostmem.Region{Runs: []hostmem.Run{{Start: 102, Count: 1}}}); err != nil {
			t.Fatal(err)
		}
		check([]pagetab.Run{{Key: 0, Val: 100, N: 5}, {Key: 5, Val: 200, N: 1}})
	})
	k.Run()
}
