// Package hostmem models the host physical memory subsystem: a page
// allocator with free-list fragmentation, per-page content state, a zeroing
// engine whose cost is bounded by shared memory bandwidth, page pinning, and
// HawkEye-style pre-zeroing.
//
// Costs are charged per page, as the paper's DMA-map pipeline is (Fig. 6),
// but nothing is stored per page of host memory: the free list is a sorted
// list of free extents, pin refcounts are run-length segments, and content
// state lives in fixed-size chunks that are allocated only when one of
// their pages first leaves the Dirty state. Allocating, pinning, freeing
// and cloning cost O(runs), and content state costs memory in proportion
// to the pages a run touches, not to the host's size.
//
// Content state is the heart of the paper's correctness argument (§4.3.2):
// a page freed by one tenant holds residual data and MUST be zeroed before
// another tenant can observe it. The allocator tracks this per page, so
// higher layers (VFIO eager zeroing, fastiovd lazy zeroing) can be validated
// end-to-end: any guest read of a still-dirty page is recorded as a security
// violation.
package hostmem

import (
	"fmt"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/fault"
	"fastiov/internal/sim"
)

// Page sizes supported by the allocator.
const (
	PageSize4K = 4 << 10
	PageSize2M = 2 << 20
)

// ContentState describes what a physical page currently holds.
type ContentState uint8

const (
	// Dirty means the page holds residual data from a previous owner and
	// must not be exposed to a new tenant.
	Dirty ContentState = iota
	// Zeroed means the page has been cleared since its last free.
	Zeroed
	// Written means the current owner (hypervisor, virtio backend, guest,
	// or NIC DMA) has written live data to the page.
	Written
)

func (c ContentState) String() string {
	switch c {
	case Dirty:
		return "dirty"
	case Zeroed:
		return "zeroed"
	case Written:
		return "written"
	}
	return "invalid"
}

// Config sizes the allocator; its costs come from the host's cost.Model.
type Config struct {
	// TotalBytes is the host physical memory size.
	TotalBytes int64
	// PageSize is the allocation granule (4K or 2M; experiments follow the
	// paper's production practice of 2M hugepages).
	PageSize int64
	// ZeroStreams is the number of zeroing operations that can proceed at
	// full rate concurrently; streams beyond this queue. It models the
	// memory controller's streaming-write limit (aggregate bandwidth =
	// ZeroStreams * cost.Model.ZeroBytesPerSec).
	ZeroStreams int64
	// MaxRunPages caps contiguous-run length to model fragmentation
	// (0 = unfragmented: runs as long as the free list allows).
	MaxRunPages int64
}

// DefaultConfig mirrors the paper's testbed: 256 GB DDR4-3200, 2 MB
// hugepages, four full-rate zeroing streams.
func DefaultConfig() Config {
	return Config{
		TotalBytes:  256 << 30,
		PageSize:    PageSize2M,
		ZeroStreams: 4,
	}
}

// Run is a contiguous range of physical pages [Start, Start+Count).
type Run struct {
	Start int64
	Count int64
}

// GuestRegions is the number of regions one guest maps: its RAM, its image
// and its firmware (hypervisor.Layout). The tables that hold a guest's
// memory slots, DMA mappings and IOMMU extents keep this many entries
// inline, so a start allocates none of them separately.
const GuestRegions = 3

// Region is an allocation: a set of page runs plus its byte size. An
// allocated region's first run is stored in the region itself, so a
// contiguous allocation is one heap object. Regions are handled by
// pointer: a copy of one would share that run with the original.
type Region struct {
	Runs  []Run
	Bytes int64
	one   [1]Run
}

// PageCount returns the number of pages in the region.
func (r *Region) PageCount() int64 {
	var n int64
	for _, run := range r.Runs {
		n += run.Count
	}
	return n
}

// Sim-lock names the allocator registers with the kernel. The trace
// subsystem surfaces them in contention profiles: ZoneLockName guards the
// page-zone metadata, MemBWName is the zeroing-bandwidth resource whose
// queue the vanilla DMA-RAM stage fights over.
const (
	ZoneLockName = "zone"
	MemBWName    = "membw"
)

// Allocator is the host physical page allocator.
type Allocator struct {
	k     *sim.Kernel
	cfg   Config
	costs cost.Model
	pages int64

	state []*stateChunk // content state by chunk; a nil chunk is all Dirty
	free  []extent      // free pages: sorted, disjoint, coalesced
	pins  []pinSeg      // pinned pages: sorted, disjoint, equal neighbours coalesced
	spare []pinSeg      // scratch for addPins

	freeHead  int64 // next-fit cursor: where the next allocation starts looking
	freeCnt   int64
	dirtyCnt  int64 // pages currently in state Dirty (O(1) gauge)
	pinnedCnt int64 // pages with a live pin refcount (O(1) gauge)

	zoneLock *sim.Mutex    // protects the free list (Linux zone->lock)
	membw    *sim.Resource // zeroing bandwidth streams

	// Violations counts guest reads of dirty pages — the multi-tenant data
	// leak the zeroing machinery exists to prevent.
	Violations int

	// ZeroedBytes counts bytes actually cleared (skipping already-zeroed
	// pages), for pre-zeroing effectiveness reporting.
	ZeroedBytes int64

	// Faults, when non-nil, degrades zeroing bandwidth by inflating each
	// zeroing operation's duration (the mem-bw latency site).
	Faults *fault.Injector
}

// New builds an allocator; all pages start free and dirty (residual data
// from "previous tenants"), matching the paper's worst-case assumption for
// a warm multi-tenant host.
func New(k *sim.Kernel, cfg Config, c cost.Model) *Allocator { return NewScoped(k, cfg, c, "") }

// NewScoped builds an allocator whose sim-lock names carry a scope prefix
// (e.g. "h003-zone", "h003-membw"). Multi-host simulations sharing one
// kernel scope each host's primitives so trace and metrics observers — which
// match primitives by name — can tell the hosts apart. An empty scope keeps
// the historical names.
func NewScoped(k *sim.Kernel, cfg Config, c cost.Model, scope string) *Allocator {
	if cfg.PageSize <= 0 || cfg.TotalBytes < cfg.PageSize {
		panic("hostmem: invalid geometry")
	}
	if cfg.ZeroStreams <= 0 {
		cfg.ZeroStreams = 1
	}
	pages := cfg.TotalBytes / cfg.PageSize
	return &Allocator{
		k:        k,
		cfg:      cfg,
		costs:    c,
		pages:    pages,
		state:    make([]*stateChunk, (pages+chunkPages-1)/chunkPages),
		free:     []extent{{0, pages}},
		freeCnt:  pages,
		dirtyCnt: pages,
		zoneLock: sim.NewMutex(scope + ZoneLockName),
		membw:    sim.NewResource(scope+MemBWName, cfg.ZeroStreams),
	}
}

// Content state is stored in chunks of chunkPages pages. Dirty is the zero
// ContentState, so a chunk none of whose pages has left Dirty is not
// allocated at all.
const (
	chunkBits  = 12
	chunkPages = 1 << chunkBits
	chunkMask  = chunkPages - 1
)

type stateChunk [chunkPages]ContentState

// StateDigest folds the per-page content states into an FNV-1a hash — a
// cheap fingerprint for determinism checks.
func (a *Allocator) StateDigest() uint64 {
	h := uint64(14695981039346656037)
	for ci, c := range a.state {
		n := min(a.pages-int64(ci)*chunkPages, chunkPages)
		for i := range n {
			var s ContentState
			if c != nil {
				s = c[i]
			}
			h = (h ^ uint64(s)) * 1099511628211
		}
	}
	return h
}

// Costs returns the allocator's copy of the cost model it was built with.
// A host boots its allocator first and hands every other substrate this
// pointer, so the host holds one copy, in an object that points at none of
// the others.
func (a *Allocator) Costs() *cost.Model { return &a.costs }

// PageSize returns the allocation granule.
func (a *Allocator) PageSize() int64 { return a.cfg.PageSize }

// TotalPages returns the number of physical pages.
func (a *Allocator) TotalPages() int64 { return a.pages }

// FreePages returns the number of free pages.
func (a *Allocator) FreePages() int64 { return a.freeCnt }

// DirtyPages returns the number of pages holding residual data — the
// dirty-page backlog the zeroing machinery must clear before reuse.
func (a *Allocator) DirtyPages() int64 { return a.dirtyCnt }

// markState transitions a page's content state, maintaining the dirty-page
// backlog counter.
func (a *Allocator) markState(page int64, s ContentState) {
	if s == Dirty && a.state[page>>chunkBits] == nil {
		return
	}
	c := a.chunkFor(page)
	old := c[page&chunkMask]
	if old == s {
		return
	}
	if old == Dirty {
		a.dirtyCnt--
	}
	if s == Dirty {
		a.dirtyCnt++
	}
	c[page&chunkMask] = s
}

// chunkFor returns the chunk holding page, allocating it (all Dirty) if it
// does not exist yet.
func (a *Allocator) chunkFor(page int64) *stateChunk {
	c := a.state[page>>chunkBits]
	if c == nil {
		c = new(stateChunk)
		a.state[page>>chunkBits] = c
	}
	return c
}

// pagesFor rounds bytes up to whole pages.
func (a *Allocator) pagesFor(bytes int64) int64 {
	return (bytes + a.cfg.PageSize - 1) / a.cfg.PageSize
}

// Allocate retrieves enough free pages for bytes, charging the retrieval
// cost model (Fig. 6 "retrieving"). The returned pages are NOT zeroed —
// zeroing is an explicit separate step, because decoupling it is exactly
// the FastIOV optimization under study. Returns an error if memory is
// exhausted or bytes is negative.
//
// The search is next-fit: it starts at the free-list cursor, wraps at the
// end of memory, and cuts runs at MaxRunPages (the cut pieces stay
// separate runs even when adjacent). The cursor ends on the page after the
// last run, or 0 when that is the end of memory.
func (a *Allocator) Allocate(p *sim.Proc, bytes int64) (*Region, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("hostmem: negative allocation size %d", bytes)
	}
	need := a.pagesFor(bytes)
	a.zoneLock.Lock(p)
	defer a.zoneLock.Unlock(p)
	if need > a.freeCnt {
		return nil, fmt.Errorf("hostmem: out of memory: need %d pages, %d free", need, a.freeCnt)
	}
	region := &Region{Bytes: bytes}
	if pieces := a.pieces(need); pieces == 1 {
		region.Runs = region.one[:0]
	} else if pieces > 1 {
		region.Runs = make([]Run, 0, pieces)
	}
	var cost time.Duration
	remaining := need
	i := a.freeHead
	x := a.freeAt(i)
	for remaining > 0 {
		var run Run
		run, x, i = a.cutRun(x, i, remaining)
		region.Runs = append(region.Runs, run)
		cost += a.costs.RetrieveCostPerRun + time.Duration(run.Count)*a.costs.RetrieveCostPerPage
		remaining -= run.Count
	}
	a.freeCnt -= need
	a.freeHead = i
	if cost > 0 {
		p.Sleep(cost)
	}
	return region, nil
}

// AllocatePage is Allocate(p, PageSize()) returning the page instead of a
// one-run Region: the same next-fit cursor, zone-lock hold and retrieval
// cost, with nothing allocated on the heap. Demand faults take this path.
func (a *Allocator) AllocatePage(p *sim.Proc) (int64, error) {
	a.zoneLock.Lock(p)
	defer a.zoneLock.Unlock(p)
	if a.freeCnt < 1 {
		return 0, fmt.Errorf("hostmem: out of memory: need 1 pages, %d free", a.freeCnt)
	}
	run, _, i := a.cutRun(a.freeAt(a.freeHead), a.freeHead, 1)
	a.freeCnt--
	a.freeHead = i
	if cost := a.costs.RetrieveCostPerRun + a.costs.RetrieveCostPerPage; cost > 0 {
		p.Sleep(cost)
	}
	return run.Start, nil
}

// pieces returns the number of runs Allocate cuts need pages into: the
// walk cutRun makes from the cursor, taking nothing. Back at the first
// extent after wrapping, what is left of need lies before the cursor,
// since need is at most the free pages.
func (a *Allocator) pieces(need int64) (n int) {
	x0, head := a.freeAt(a.freeHead), a.freeHead
	if x0 == len(a.free) {
		x0, head = 0, 0
	}
	cut := a.cfg.MaxRunPages
	if cut <= 0 {
		cut = need
	}
	for k := 0; need > 0; k++ {
		e := a.free[(x0+k)%len(a.free)]
		if k == 0 {
			e.start = max(e.start, head)
		}
		take := min(e.end-e.start, need)
		need -= take
		n += int((take + cut - 1) / cut)
	}
	return n
}

// cutRun takes the next run of at most want pages from the free list,
// searching next-fit from page i in free extent x (wrapping at the end of
// memory) and cutting at MaxRunPages. It returns the run and the extent
// and page to continue from; the page wraps to 0 at the end of memory.
func (a *Allocator) cutRun(x int, i, want int64) (Run, int, int64) {
	if x == len(a.free) {
		x, i = 0, 0
	}
	e := a.free[x]
	i = max(i, e.start)
	n := min(e.end-i, want)
	if a.cfg.MaxRunPages > 0 {
		n = min(n, a.cfg.MaxRunPages)
	}
	x = a.takeFree(x, i, i+n)
	run := Run{Start: i, Count: n}
	if i += n; i >= a.pages {
		x, i = 0, 0
	}
	return run, x, i
}

// Free returns a region's pages to the free list. Pages become dirty: they
// hold the departing tenant's data. Pinned pages may not be freed; the
// panic names the lowest free or pinned page of the first run holding one.
func (a *Allocator) Free(p *sim.Proc, region *Region) {
	a.zoneLock.Lock(p)
	defer a.zoneLock.Unlock(p)
	for _, run := range region.Runs {
		start, end := run.Start, run.Start+run.Count
		if start >= end {
			continue
		}
		freePg, pinPg := end, end
		if x := a.freeAt(start); x < len(a.free) && a.free[x].start < end {
			freePg = max(start, a.free[x].start)
		}
		if x := a.pinAt(start); x < len(a.pins) && a.pins[x].start < end {
			pinPg = max(start, a.pins[x].start)
		}
		if freePg < end && freePg <= pinPg {
			panic(fmt.Sprintf("hostmem: double free of page %d", freePg))
		}
		if pinPg < end {
			panic(fmt.Sprintf("hostmem: freeing pinned page %d", pinPg))
		}
		a.putFree(start, end)
		a.markRange(start, end, Dirty)
		a.freeCnt += end - start
		a.freeHead = min(a.freeHead, start)
	}
}

// WriteRegion marks every page of region as holding live data, as
// WriteData does for one page.
func (a *Allocator) WriteRegion(region *Region) {
	for _, run := range region.Runs {
		a.markRange(run.Start, run.Start+run.Count, Written)
	}
}

// markRange sets pages [start, end) to content state s, maintaining the
// dirty-page backlog counter. It works one chunk at a time and skips the
// unallocated chunks when s is Dirty.
func (a *Allocator) markRange(start, end int64, s ContentState) {
	for start < end {
		stop := min(end, (start|chunkMask)+1)
		if s == Dirty && a.state[start>>chunkBits] == nil {
			start = stop
			continue
		}
		lo := start & chunkMask
		sub := a.chunkFor(start)[lo : lo+stop-start]
		var dirty int64
		for i, old := range sub {
			if old == Dirty {
				dirty++
			}
			sub[i] = s
		}
		if s == Dirty {
			a.dirtyCnt += int64(len(sub)) - dirty
		} else {
			a.dirtyCnt -= dirty
		}
		start = stop
	}
}

// seekDirty returns the first page in [i, end) that is Dirty when dirty is
// set, or not Dirty otherwise; end if there is none.
func (a *Allocator) seekDirty(i, end int64, dirty bool) int64 {
	for i < end {
		stop := min(end, (i|chunkMask)+1)
		c := a.state[i>>chunkBits]
		if c == nil {
			if dirty {
				return i
			}
			i = stop
			continue
		}
		for ; i < stop; i++ {
			if (c[i&chunkMask] == Dirty) == dirty {
				return i
			}
		}
	}
	return end
}

// ZeroPage clears one page if it is still dirty, charging bandwidth time.
// Already-clean pages are skipped at zero cost (the HawkEye observation).
func (a *Allocator) ZeroPage(p *sim.Proc, page int64) {
	d, dirty := a.ZeroCost(page)
	if !dirty {
		return
	}
	a.membw.Use(p, 1, d)
	a.MarkZeroed(page)
}

// ZeroCost is the first half of ZeroPage: if page is dirty it draws the
// mem-bw fault inflation and returns how long clearing the page holds one
// Bandwidth unit; dirty is false (and nothing is drawn) otherwise. A
// caller that zeroes the page itself holds the unit for d, releases it,
// then calls MarkZeroed.
func (a *Allocator) ZeroCost(page int64) (d time.Duration, dirty bool) {
	if a.State(page) != Dirty {
		return 0, false
	}
	return a.Faults.Inflate(fault.SiteMemBW, time.Duration(int64(time.Second)*a.cfg.PageSize/a.costs.ZeroBytesPerSec)), true
}

// MarkZeroed is the last half of ZeroPage: it records page as cleared.
func (a *Allocator) MarkZeroed(page int64) {
	a.markState(page, Zeroed)
	a.ZeroedBytes += a.cfg.PageSize
}

// ZeroRegion eagerly clears every dirty page in the region (Fig. 6
// "zeroing"). Consecutive dirty pages are cleared in one bandwidth
// acquisition to model streaming stores.
func (a *Allocator) ZeroRegion(p *sim.Proc, region *Region) {
	for _, run := range region.Runs {
		end := run.Start + run.Count
		for i := a.seekDirty(run.Start, end, true); i < end; {
			j := a.seekDirty(i, end, false)
			n := j - i
			d := a.Faults.Inflate(fault.SiteMemBW, time.Duration(int64(time.Second)*n*a.cfg.PageSize/a.costs.ZeroBytesPerSec))
			a.membw.Use(p, 1, d)
			a.markRange(i, j, Zeroed)
			a.ZeroedBytes += n * a.cfg.PageSize
			i = a.seekDirty(j, end, true)
		}
	}
}

// Pin increments every page's pin refcount, charging the per-page pinning
// cost (Fig. 6 "pinning"). Pinned pages cannot be freed or migrated.
func (a *Allocator) Pin(p *sim.Proc, region *Region) {
	for _, run := range region.Runs {
		a.addPins(run.Start, run.Start+run.Count, 1)
	}
	if d := time.Duration(region.PageCount()) * a.costs.PinCostPerPage; d > 0 {
		p.Sleep(d)
	}
}

// Unpin decrements pin refcounts. It panics on the lowest unpinned page of
// the first run holding one.
func (a *Allocator) Unpin(p *sim.Proc, region *Region) {
	for _, run := range region.Runs {
		start, end := run.Start, run.Start+run.Count
		if pg := a.unpinnedIn(start, end); pg < end {
			panic(fmt.Sprintf("hostmem: unpin of unpinned page %d", pg))
		}
		a.addPins(start, end, -1)
	}
}

// Pinned reports whether a page is pinned.
func (a *Allocator) Pinned(page int64) bool {
	x := a.pinAt(page)
	return x < len(a.pins) && a.pins[x].start <= page
}

// PinnedPages returns the number of pages with a live pin refcount — a
// conservation input for host-wide leak audits and an O(1) gauge for the
// metrics sampler.
func (a *Allocator) PinnedPages() int64 { return a.pinnedCnt }

// State returns a page's content state.
func (a *Allocator) State(page int64) ContentState {
	if c := a.state[page>>chunkBits]; c != nil {
		return c[page&chunkMask]
	}
	return Dirty
}

// WriteData marks a page as holding live data written by its current owner
// (hypervisor setup, virtio backend, guest store, NIC DMA). Writing to a
// dirty page is fine — the write replaces the residual data as far as the
// writer's own view is concerned, but note that a partial-page write of a
// dirty page would still leak; the protocols under test must zero first
// when the writer is not the guest's security domain. We model whole-page
// semantics: the caller decides whether zeroing must precede the write.
func (a *Allocator) WriteData(page int64) { a.markState(page, Written) }

// GuestRead models the guest (the tenant's security domain) reading a page.
// Reading residual data from a previous tenant is a containment failure and
// increments Violations.
func (a *Allocator) GuestRead(page int64) {
	if a.State(page) == Dirty {
		a.Violations++
	}
}

// PreZero instantly marks the given fraction of currently-free dirty pages
// as zeroed, modeling a HawkEye-style daemon that cleared them during
// earlier idle time (baselines Pre10/Pre50/Pre100). No simulated time is
// charged — the work happened before the measurement window.
func (a *Allocator) PreZero(fraction float64) {
	if fraction <= 0 {
		return
	}
	if fraction > 1 {
		fraction = 1
	}
	target := int64(float64(a.freeCnt) * fraction)
	for _, e := range a.free {
		for i := e.start; i < e.end && target > 0; {
			c := a.chunkFor(i)
			for stop := min(e.end, (i|chunkMask)+1); i < stop && target > 0; i++ {
				if c[i&chunkMask] == Dirty {
					c[i&chunkMask] = Zeroed
					a.dirtyCnt--
					target--
				}
			}
		}
	}
}

// Bandwidth exposes the zeroing bandwidth resource so other DMA-heavy
// components (e.g., virtio data copies) share the same bottleneck.
func (a *Allocator) Bandwidth() *sim.Resource { return a.membw }
