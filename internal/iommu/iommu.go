// Package iommu models the I/O Memory Management Unit: per-guest I/O page
// tables translating I/O virtual addresses (IOVAs) to host physical
// addresses (HPAs), populated by the VFIO driver's DMA-mapping path (Fig. 6
// "mapping") and consulted by device DMA engines on every transfer.
//
// A domain stores its translations in a run-length pagetab.Table (IOVA
// page -> HPA page), whose runs merge where IOVA and HPA both continue, so
// mapping, unmapping and lookup cost O(log runs) regardless of the page
// size, and a region cut into many HPA-contiguous pieces (the fragmented
// 4 KiB ablation) is one run. Pinning is not done here: the VFIO driver
// pins the region in hostmem before it maps it.
package iommu

import (
	"fmt"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/pagetab"
	"fastiov/internal/sim"
)

// IOMMU is the host's translation unit.
type IOMMU struct {
	k        *sim.Kernel
	pageSize int64
	nextID   int
	domains  map[int]*Domain
	costs    *cost.Model

	// Faults, when non-nil, can fail Map calls (transient DMA-map errors)
	// and inflate the per-PTE install cost.
	Faults *fault.Injector
}

// New creates an IOMMU whose page tables use the given granule (must match
// the host allocator's page size).
func New(k *sim.Kernel, pageSize int64, c *cost.Model) *IOMMU {
	return &IOMMU{k: k, pageSize: pageSize, domains: make(map[int]*Domain), costs: c}
}

// Domain is one guest's I/O address space (one I/O page table).
type Domain struct {
	ID   int
	unit *IOMMU
	pt   pagetab.Table // IOVA page -> HPA page

	// MappedBytes tracks the total mapped size for reporting.
	MappedBytes int64

	// first backs pt up to one run per guest region.
	first [hostmem.GuestRegions]pagetab.Run
}

// CreateDomain allocates a fresh, empty domain.
func (u *IOMMU) CreateDomain() *Domain {
	u.nextID++
	d := &Domain{ID: u.nextID, unit: u}
	d.pt = pagetab.With(d.first[:])
	u.domains[d.ID] = d
	return d
}

// DestroyDomain removes a domain and its translations.
func (u *IOMMU) DestroyDomain(d *Domain) {
	delete(u.domains, d.ID)
	d.pt = pagetab.Table{}
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
		total += int(d.pt.Len())
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
	if iovaBase < 0 {
		return fmt.Errorf("iommu: negative IOVA base %#x", iovaBase)
	}
	// Injected failure fires before any PTE is installed, so a failed Map
	// leaves the domain untouched and the VFIO caller's cleanup path
	// (unpin + free) fully unwinds the attempt.
	if err := d.unit.Faults.Fail(fault.SiteDMAMap); err != nil {
		return fmt.Errorf("iommu: map IOVA %#x in domain %d: %w", iovaBase, d.ID, err)
	}
	start := iovaBase / d.unit.pageSize
	count := region.PageCount()
	if r, ok := d.pt.Next(start); ok && count > 0 && r.Key < start+count {
		return fmt.Errorf("iommu: IOVA page %#x already mapped in domain %d", max(start, r.Key), d.ID)
	}
	iova := start
	for _, r := range region.Runs {
		d.pt.Insert(iova, r.Start, r.Count)
		iova += r.Count
	}
	d.MappedBytes += count * d.unit.pageSize
	if cost := d.unit.Faults.Inflate(fault.SiteDMAMap, time.Duration(count)*d.unit.costs.MapCostPerPage); cost > 0 {
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
	d.MappedBytes -= d.pt.Delete(start, end-start) * d.unit.pageSize
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
	return d.pt.Get(iovaPage)
}

// Runs returns the translations as IOVA-sorted runs (IOVA page -> HPA
// page). The slice is the domain's own and must not be modified.
func (d *Domain) Runs() []pagetab.Run { return d.pt.Runs() }

// MappedPages returns the number of live translations.
func (d *Domain) MappedPages() int { return int(d.pt.Len()) }
