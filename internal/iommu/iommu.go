// Package iommu models the I/O Memory Management Unit: per-guest I/O page
// tables translating I/O virtual addresses (IOVAs) to host physical
// addresses (HPAs), populated by the VFIO driver's DMA-mapping path (Fig. 6
// "mapping") and consulted by device DMA engines on every transfer.
//
// A domain stores its translations as IOVA-sorted extents, one per mapped
// host run, so mapping, unmapping and lookup cost O(log runs) regardless
// of the page size. Pinning is not done here: the VFIO driver pins the
// region in hostmem before it maps it.
package iommu

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

// IOMMU is the host's translation unit.
type IOMMU struct {
	k        *sim.Kernel
	pageSize int64
	nextID   int
	domains  map[int]*Domain

	// MapCostPerPage is the cost of installing one I/O page-table entry.
	MapCostPerPage time.Duration

	// Faults, when non-nil, can fail Map calls (transient DMA-map errors)
	// and inflate the per-PTE install cost.
	Faults *fault.Injector
}

// New creates an IOMMU whose page tables use the given granule (must match
// the host allocator's page size).
func New(k *sim.Kernel, pageSize int64) *IOMMU {
	return &IOMMU{
		k:              k,
		pageSize:       pageSize,
		domains:        make(map[int]*Domain),
		MapCostPerPage: 300 * time.Nanosecond,
	}
}

// Domain is one guest's I/O address space (one I/O page table).
type Domain struct {
	ID    int
	unit  *IOMMU
	ext   []extent // IOVA-sorted, disjoint translations
	pages int64    // live translations: the sum of the extents' n

	// MappedBytes tracks the total mapped size for reporting.
	MappedBytes int64

	// first backs ext up to one contiguous mapping per guest region.
	first [hostmem.GuestRegions]extent
}

// extent translates IOVA pages [iova, iova+n) to HPA pages [hpa, hpa+n).
type extent struct{ iova, hpa, n int64 }

// CreateDomain allocates a fresh, empty domain.
func (u *IOMMU) CreateDomain() *Domain {
	u.nextID++
	d := &Domain{ID: u.nextID, unit: u}
	d.ext = d.first[:0]
	u.domains[d.ID] = d
	return d
}

// DestroyDomain removes a domain and its translations.
func (u *IOMMU) DestroyDomain(d *Domain) {
	delete(u.domains, d.ID)
	d.ext, d.pages = nil, 0
}

// PageSize returns the translation granule.
func (u *IOMMU) PageSize() int64 { return u.pageSize }

// Domains returns the number of live domains — a conservation input for
// host-wide leak audits.
func (u *IOMMU) Domains() int { return len(u.domains) }

// TotalMappedPages returns the number of live translations summed across
// all domains.
func (u *IOMMU) TotalMappedPages() int {
	total := 0
	for _, d := range u.domains {
		total += int(d.pages)
	}
	return total
}

// Map installs translations for a host memory region starting at iovaBase.
// Pages are mapped in ascending IOVA order across the region's runs. The
// per-PTE update cost models the page-table walk and IOTLB maintenance.
// Map is atomic: if any page of the range is already mapped, nothing is
// installed and the error names the lowest such page.
func (d *Domain) Map(p *sim.Proc, iovaBase int64, region *hostmem.Region) error {
	if iovaBase%d.unit.pageSize != 0 {
		return fmt.Errorf("iommu: unaligned IOVA base %#x", iovaBase)
	}
	// Injected failure fires before any PTE is installed, so a failed Map
	// leaves the domain untouched and the VFIO caller's cleanup path
	// (unpin + free) fully unwinds the attempt.
	if err := d.unit.Faults.Fail(fault.SiteDMAMap); err != nil {
		return fmt.Errorf("iommu: map IOVA %#x in domain %d: %w", iovaBase, d.ID, err)
	}
	start := iovaBase / d.unit.pageSize
	count := region.PageCount()
	x := d.at(start)
	if count > 0 && x < len(d.ext) && d.ext[x].iova < start+count {
		return fmt.Errorf("iommu: IOVA page %#x already mapped in domain %d", max(start, d.ext[x].iova), d.ID)
	}
	runs := 0
	for _, r := range region.Runs {
		if r.Count > 0 {
			runs++
		}
	}
	n := len(d.ext)
	d.ext = slices.Grow(d.ext, runs)[:n+runs]
	copy(d.ext[x+runs:], d.ext[x:n])
	iova := start
	for _, r := range region.Runs {
		if r.Count > 0 {
			d.ext[x] = extent{iova: iova, hpa: r.Start, n: r.Count}
			x++
			iova += r.Count
		}
	}
	d.pages += count
	d.MappedBytes += count * d.unit.pageSize
	if cost := d.unit.Faults.Inflate(fault.SiteDMAMap, time.Duration(count)*d.unit.MapCostPerPage); cost > 0 {
		p.Sleep(cost)
	}
	return nil
}

// Unmap removes translations for [iovaBase, iovaBase+bytes).
func (d *Domain) Unmap(p *sim.Proc, iovaBase, bytes int64) {
	start := iovaBase / d.unit.pageSize
	end := start + (bytes+d.unit.pageSize-1)/d.unit.pageSize
	if start >= end {
		return
	}
	// Extents [x, y) end inside the range; the head of x and the tail of y
	// may survive.
	x, y := d.at(start), d.at(end)
	var removed int64
	if x < len(d.ext) && d.ext[x].iova < start {
		e := d.ext[x]
		d.ext[x].n = start - e.iova
		if e.iova+e.n > end { // the range splits e
			d.ext = slices.Insert(d.ext, x+1, e.from(end))
			d.drop(end - start)
			return
		}
		removed += e.iova + e.n - start
		x++
	}
	if y < len(d.ext) && d.ext[y].iova < end {
		removed += end - d.ext[y].iova
		d.ext[y] = d.ext[y].from(end)
	}
	for _, e := range d.ext[x:y] {
		removed += e.n
	}
	d.ext = slices.Delete(d.ext, x, y)
	d.drop(removed)
}

// from returns the part of e from IOVA page iova on.
func (e extent) from(iova int64) extent {
	return extent{iova: iova, hpa: e.hpa + iova - e.iova, n: e.iova + e.n - iova}
}

// drop accounts for n unmapped pages.
func (d *Domain) drop(n int64) {
	d.pages -= n
	d.MappedBytes -= n * d.unit.pageSize
}

// at returns the index of the first extent ending after IOVA page iova.
func (d *Domain) at(iova int64) int {
	return sort.Search(len(d.ext), func(x int) bool { return d.ext[x].iova+d.ext[x].n > iova })
}

// Translate resolves an IOVA to an HPA (both in bytes). DMA to an unmapped
// IOVA returns an error — on real hardware this is an IOMMU fault that
// aborts the transaction, exactly the reason lazy page allocation cannot be
// used under passthrough (§3.2.3: "IOMMU cannot handle page faults during
// DMA operations").
func (d *Domain) Translate(iova int64) (int64, error) {
	hpa, ok := d.TranslatePage(iova / d.unit.pageSize)
	if !ok {
		return 0, fmt.Errorf("iommu: fault: IOVA %#x unmapped in domain %d", iova, d.ID)
	}
	return hpa*d.unit.pageSize + iova%d.unit.pageSize, nil
}

// TranslatePage resolves an IOVA page number to an HPA page number.
func (d *Domain) TranslatePage(iovaPage int64) (int64, bool) {
	x := d.at(iovaPage)
	if x == len(d.ext) || d.ext[x].iova > iovaPage {
		return 0, false
	}
	return d.ext[x].hpa + iovaPage - d.ext[x].iova, true
}

// MappedPages returns the number of live translations.
func (d *Domain) MappedPages() int { return int(d.pages) }
