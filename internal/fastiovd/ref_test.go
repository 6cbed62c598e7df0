package fastiovd

// This file holds the reference model for FuzzModuleOps: fastiovd as it was
// first written, with the paper's two-tier hash table taken literally — a Go
// map per pid keyed by page, a per-page scrub FIFO, a map of in-flight
// completion events, and a map of released pids. The dense Module must be
// observably identical to it: same kernel events, same counters, same
// zeroing order.

import (
	"sort"
	"time"

	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

// refPageInfo is the second-tier hash table value. The paper stores "detailed
// page information"; the fields we need are the registration time (for age
// statistics) alone — the page index is the key.
type refPageInfo struct {
	registered time.Duration
}

// refScrubEntry is one deferred page in the scrubber's FIFO.
type refScrubEntry struct {
	pid  int
	page int64
}

// refModule is the reference model of Module.
type refModule struct {
	k   *sim.Kernel
	mem *hostmem.Allocator

	// tables is the two-tier hash table: PID -> (HPA page -> info).
	tables map[int]map[int64]refPageInfo

	// scrubQueue holds (pid, page) pairs in registration order so the
	// background scrubber drains deterministically (map iteration order
	// would make simulation runs irreproducible). Entries already zeroed
	// via the fault path are skipped when dequeued.
	scrubQueue []refScrubEntry

	// inflight tracks pages whose zeroing has been claimed but not yet
	// completed (the zeroer is waiting on memory bandwidth). A concurrent
	// EPT fault on such a page must wait for completion — this is the
	// "notify KVM upon completion" handshake of §5.
	inflight map[int64]*sim.Event

	// released records pids whose tables Release dropped. A zeroing claim
	// unwound after the owner's teardown must not resurrect the table: the
	// pages have returned to the allocator and are re-zeroed for their next
	// owner, so restoring the claim would strand a tracked entry forever
	// (the pid-churn regime, where VMs retire while the scrubber is
	// mid-zero). Registering for the pid again reclaims ownership.
	released map[int]bool

	// RegisterCostPerPage models the bookkeeping insert per deferred page.
	RegisterCostPerPage time.Duration

	// Corruptions counts pages zeroed after live data was written to them —
	// each one would be a guest crash or data-loss bug on real hardware.
	Corruptions int

	// LazyZeroed / ScrubZeroed / InstantZeroed count pages cleared on the
	// EPT-fault path, by the background scrubber, and eagerly for the
	// instant-zeroing list, respectively.
	LazyZeroed    int
	ScrubZeroed   int
	InstantZeroed int

	// Faults, when non-nil, can stall the background scrubber: a failed
	// wake does no zeroing work, and a latency factor stretches the wake
	// interval. Set before StartScrubber.
	Faults *fault.Injector
	// ScrubberStalls counts wakes lost to injected stalls.
	ScrubberStalls int

	// scrubProc is the live scrubber daemon (nil before StartScrubber);
	// scrubInterval and scrubPagesPerPass remember its configuration so
	// CrashDaemon can restart it identically.
	scrubProc         *sim.Proc
	scrubInterval     time.Duration
	scrubPagesPerPass int
	// ScrubberRestarts counts daemon-crash failovers (CrashDaemon calls).
	ScrubberRestarts int
}

// newRef loads the reference module.
func newRef(k *sim.Kernel, mem *hostmem.Allocator) *refModule {
	return &refModule{
		k:                   k,
		mem:                 mem,
		tables:              make(map[int]map[int64]refPageInfo),
		inflight:            make(map[int64]*sim.Event),
		released:            make(map[int]bool),
		RegisterCostPerPage: 120 * time.Nanosecond,
	}
}

// Register defers zeroing for every page of region, owned by microVM pid.
// This replaces eager zeroing in the VFIO DMA-map path; it is the hook
// passed to vfio.MapDMA.
func (m *refModule) Register(p *sim.Proc, pid int, region *hostmem.Region) {
	delete(m.released, pid)
	t := m.tables[pid]
	if t == nil {
		t = make(map[int64]refPageInfo)
		m.tables[pid] = t
	}
	now := p.Now()
	var n int64
	for _, run := range region.Runs {
		for pg := run.Start; pg < run.Start+run.Count; pg++ {
			t[pg] = refPageInfo{registered: now}
			m.scrubQueue = append(m.scrubQueue, refScrubEntry{pid: pid, page: pg})
			n++
		}
	}
	if cost := time.Duration(n) * m.RegisterCostPerPage; cost > 0 {
		p.Sleep(cost)
	}
}

// RegisterInstant puts region on the instant-zeroing list: the pages are
// zeroed immediately (charging bandwidth time) and never tracked, because
// the hypervisor is about to write live data (BIOS, kernel) into them.
func (m *refModule) RegisterInstant(p *sim.Proc, pid int, region *hostmem.Region) {
	before := m.mem.ZeroedBytes
	m.mem.ZeroRegion(p, region)
	m.InstantZeroed += int((m.mem.ZeroedBytes - before) / m.mem.PageSize())
}

// OnEPTFault is the KVM fault hook (kvm.FaultHook): if the faulting page is
// tracked for pid, zero it now and drop it from the table. If another
// thread (the scrubber) is already zeroing the page, wait for it to finish
// before letting KVM install the EPT entry.
func (m *refModule) OnEPTFault(p *sim.Proc, pid int, hpaPage int64) {
	t := m.tables[pid]
	if t != nil {
		if _, ok := t[hpaPage]; ok {
			m.claimAndZero(p, pid, hpaPage)
			m.LazyZeroed++
			return
		}
	}
	if ev, busy := m.inflight[hpaPage]; busy {
		ev.Await(p)
	}
}

// claimAndZero removes the page from the table (claiming it), publishes an
// in-flight marker, performs the zeroing, and signals completion. If the
// zeroing Proc is unwound mid-zero (the scrubber daemon reaped at the end
// of a Run phase), the claim is rolled back so the page is still tracked —
// and still gets zeroed before any later exposure.
func (m *refModule) claimAndZero(p *sim.Proc, pid int, hpaPage int64) {
	t := m.tables[pid]
	delete(t, hpaPage)
	if len(t) == 0 {
		delete(m.tables, pid)
	}
	ev := sim.NewEvent(m.k, "fastiovd-zero")
	m.inflight[hpaPage] = ev
	completed := false
	defer func() {
		delete(m.inflight, hpaPage)
		if completed {
			ev.Fire(p)
			return
		}
		// Unwound mid-zero: restore the claim — unless the owner was torn
		// down in the meantime. A released pid's pages are back in the
		// allocator; re-tracking them would strand a table entry forever.
		if m.released[pid] {
			return
		}
		tt := m.tables[pid]
		if tt == nil {
			tt = make(map[int64]refPageInfo)
			m.tables[pid] = tt
		}
		tt[hpaPage] = refPageInfo{registered: p.Now()}
		m.scrubQueue = append(m.scrubQueue, refScrubEntry{pid: pid, page: hpaPage})
	}()
	m.zero(p, hpaPage)
	completed = true
}

// ScrubProc returns the live scrubber daemon (nil before StartScrubber).
func (m *refModule) ScrubProc() *sim.Proc { return m.scrubProc }

// CrashDaemon models a fastiovd crash-and-failover (§5's daemon as a
// failure domain of its own): the scrubber thread dies mid-pass and its
// volatile scan state — the FIFO scrub queue — is lost. The two-tier table
// itself survives (it is the persistent registration state), so the new
// daemon instance conservatively rebuilds its queue by walking every
// tracked page in deterministic (pid, page) order, paying the bookkeeping
// insert per page again, and then resumes scrubbing with the original
// configuration. TrackedTotal is unchanged throughout, so the conservation
// audit cannot tell a failover happened — only the telemetry can.
//
// p is the proc driving the crash (the fleet's crash injector), which pays
// the reconstruction cost. No-op if the scrubber was never started.
func (m *refModule) CrashDaemon(p *sim.Proc) {
	if m.scrubProc == nil {
		return
	}
	// Kill the daemon. If it is mid-zero, claimAndZero's deferred rollback
	// re-tracks the in-flight page, so nothing is lost — only the queue
	// order it had accumulated.
	m.k.Kill(m.scrubProc)
	m.scrubProc = nil
	// The dying pass may have re-queued its in-flight page; the rebuild
	// below supersedes the old queue entirely.
	m.scrubQueue = m.scrubQueue[:0]
	pids := make([]int, 0, len(m.tables))
	for pid := range m.tables {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var n int64
	for _, pid := range pids {
		t := m.tables[pid]
		pages := make([]int64, 0, len(t))
		for pg := range t {
			pages = append(pages, pg)
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		for _, pg := range pages {
			m.scrubQueue = append(m.scrubQueue, refScrubEntry{pid: pid, page: pg})
			n++
		}
	}
	if cost := time.Duration(n) * m.RegisterCostPerPage; cost > 0 {
		p.Sleep(cost)
	}
	m.ScrubberRestarts++
	m.StartScrubber(m.scrubInterval, m.scrubPagesPerPass)
}

// zero clears one page, auditing the crash case: the page must not already
// hold live data (that data would be destroyed).
func (m *refModule) zero(p *sim.Proc, hpaPage int64) {
	if m.mem.State(hpaPage) == hostmem.Written {
		m.Corruptions++
	}
	m.mem.ZeroPage(p, hpaPage)
}

// Tracked returns the number of pages still awaiting zeroing for pid.
func (m *refModule) Tracked(pid int) int { return len(m.tables[pid]) }

// TrackedTotal returns the table-wide deferred page count.
func (m *refModule) TrackedTotal() int {
	n := 0
	for _, t := range m.tables {
		n += len(t)
	}
	return n
}

// ScrubQueueLen returns the length of the background scrub list — the
// deferred pages queued for the scrubber thread, in registration order.
func (m *refModule) ScrubQueueLen() int { return len(m.scrubQueue) }

// Release drops pid's table without zeroing (VM teardown: the pages return
// to the allocator dirty and are re-zeroed for their next owner). The pid is
// marked released so an in-flight zeroing claim unwound later does not
// resurrect the table.
func (m *refModule) Release(pid int) {
	delete(m.tables, pid)
	m.released[pid] = true
}

// StartScrubber launches the module's background thread (§5): it
// periodically sweeps the two-tier table, zeroing up to pagesPerPass pages
// per wake and removing them, overlapping zeroing with other startup stages.
func (m *refModule) StartScrubber(interval time.Duration, pagesPerPass int) {
	m.scrubInterval, m.scrubPagesPerPass = interval, pagesPerPass
	m.scrubProc = m.k.GoDaemon("fastiovd-scrub", func(p *sim.Proc) {
		for {
			p.Sleep(m.Faults.Inflate(fault.SiteScrubber, interval))
			if err := m.Faults.Fail(fault.SiteScrubber); err != nil {
				// Stalled wake: the scrubber thread lost its slice (e.g.
				// preempted by a higher-priority task) and zeroes nothing
				// this pass; deferred pages wait for the next wake or the
				// EPT-fault path.
				m.ScrubberStalls++
				continue
			}
			cleared := 0
			for cleared < pagesPerPass && len(m.scrubQueue) > 0 {
				e := m.scrubQueue[0]
				m.scrubQueue = m.scrubQueue[1:]
				t := m.tables[e.pid]
				if t == nil {
					continue
				}
				if _, ok := t[e.page]; !ok {
					continue // already zeroed on the fault path
				}
				m.claimAndZero(p, e.pid, e.page)
				m.ScrubZeroed++
				cleared++
			}
		}
	})
}
