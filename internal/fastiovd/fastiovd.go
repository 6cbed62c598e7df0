// Package fastiovd is the reproduction of the paper's portable kernel
// module (§5): the heart of FastIOV's decoupled lazy zeroing (§4.3.2).
//
// It maintains the paper's two-tier hash table — first tier keyed by the
// microVM's host PID, second tier by HPA page — of physical pages whose
// zeroing has been deferred. Here the first tier is a map from PID to a
// dense page set: the page runs the PID registered plus one presence bit
// per page, so no structure is allocated per page. The scrubber's FIFO
// holds one entry per registered run, and a page being zeroed gets a
// completion event only if an EPT fault actually has to wait for it.
// Zeroing happens at the latest safe moment:
//
//   - on the page's first EPT fault (hooked into KVM),
//   - or earlier, by a background scrubber thread that drains the table
//     during idle time,
//   - or never by fastiovd, for pages on the instant-zeroing list (BIOS,
//     kernel image) which the hypervisor zeroes eagerly before writing.
//
// The module also audits correctness: zeroing a page that already holds
// live data (a hypervisor or virtio write that the protocol failed to
// fence) is recorded as a corruption — the crash scenario of §4.3.2.
package fastiovd

import (
	"sort"
	"time"

	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

// Module is one loaded instance of fastiovd.
type Module struct {
	k   *sim.Kernel
	mem *hostmem.Allocator

	// tables is the two-tier table: PID -> the pid's deferred pages.
	// tracked is the sum of their sizes.
	tables  map[int]*pageSet
	tracked int

	// scrubQueue holds (pid, page run) entries in registration order so
	// the background scrubber drains deterministically, page by page from
	// scrubHead. Pages already zeroed via the fault path are skipped when
	// dequeued; scrubLen counts the queued pages, skipped ones included.
	scrubQueue []scrubRun
	scrubHead  int
	scrubLen   int64

	// inflight holds the pages whose zeroing has been claimed but not yet
	// completed (the zeroer is waiting on memory bandwidth). A concurrent
	// EPT fault on such a page must wait for completion — this is the
	// "notify KVM upon completion" handshake of §5. There are at most a
	// few at a time: one per zeroing thread.
	inflight []claim
	claims   uint64 // claim ids issued

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

// scrubRun is one scrub-queue entry: count pages of pid from start on.
type scrubRun struct {
	pid          int
	start, count int64
}

// claim is one page being zeroed.
type claim struct {
	id   uint64
	page int64
	pid  int
	// ev is created by the first EPT fault that has to wait for this
	// claim; completion fires it if it exists.
	ev *sim.Event
	// current marks the claim a fault on page waits for: the latest one
	// started, until any claim on page ends. (Two claims on one page
	// overlap only when a released page is re-registered by its next
	// owner mid-zero.)
	current bool
	// released records that Release dropped pid's table after the claim
	// started and no Register has reclaimed it since. An unwound claim
	// must then not resurrect the table: the pages have returned to the
	// allocator and are re-zeroed for their next owner, so restoring the
	// claim would strand a tracked page forever (the pid-churn regime,
	// where VMs retire while the scrubber is mid-zero).
	released bool
}

// New loads the module.
func New(k *sim.Kernel, mem *hostmem.Allocator) *Module {
	return &Module{
		k:                   k,
		mem:                 mem,
		tables:              make(map[int]*pageSet),
		RegisterCostPerPage: 120 * time.Nanosecond,
	}
}

// Register defers zeroing for every page of region, owned by microVM pid.
// This replaces eager zeroing in the VFIO DMA-map path; it is the hook
// passed to vfio.MapDMA.
func (m *Module) Register(p *sim.Proc, pid int, region *hostmem.Region) {
	m.setReleased(pid, false)
	var n int64
	for _, run := range region.Runs {
		if run.Count > 0 {
			m.track(pid, run.Start, run.Count)
			n += run.Count
		}
	}
	if cost := time.Duration(n) * m.RegisterCostPerPage; cost > 0 {
		p.Sleep(cost)
	}
}

// track adds count pages of pid from start on to its table and queues them
// for the scrubber.
func (m *Module) track(pid int, start, count int64) {
	s := m.tables[pid]
	if s == nil {
		s = new(pageSet)
		m.tables[pid] = s
	}
	m.tracked += s.add(start, count)
	m.enqueue(pid, start, count)
}

// enqueue appends a run to the scrub queue, first sliding the unread
// entries to the front when the backing array is full.
func (m *Module) enqueue(pid int, start, count int64) {
	if m.scrubHead > 0 && len(m.scrubQueue) == cap(m.scrubQueue) {
		n := copy(m.scrubQueue, m.scrubQueue[m.scrubHead:])
		m.scrubQueue, m.scrubHead = m.scrubQueue[:n], 0
	}
	m.scrubQueue = append(m.scrubQueue, scrubRun{pid: pid, start: start, count: count})
	m.scrubLen += count
}

// setReleased sets the released flag of pid's in-flight claims.
func (m *Module) setReleased(pid int, released bool) {
	for i := range m.inflight {
		if m.inflight[i].pid == pid {
			m.inflight[i].released = released
		}
	}
}

// RegisterInstant puts region on the instant-zeroing list: the pages are
// zeroed immediately (charging bandwidth time) and never tracked, because
// the hypervisor is about to write live data (BIOS, kernel) into them.
func (m *Module) RegisterInstant(p *sim.Proc, pid int, region *hostmem.Region) {
	before := m.mem.ZeroedBytes
	m.mem.ZeroRegion(p, region)
	m.InstantZeroed += int((m.mem.ZeroedBytes - before) / m.mem.PageSize())
}

// OnEPTFault is the KVM fault hook (kvm.FaultHook): if the faulting page is
// tracked for pid, zero it now and drop it from the table. If another
// thread (the scrubber) is already zeroing the page, wait for it to finish
// before letting KVM install the EPT entry.
func (m *Module) OnEPTFault(p *sim.Proc, pid int, hpaPage int64) {
	if s := m.tables[pid]; s != nil && s.has(hpaPage) {
		m.claimAndZero(p, pid, s, hpaPage)
		m.LazyZeroed++
		return
	}
	for i := range m.inflight {
		if c := &m.inflight[i]; c.page == hpaPage && c.current {
			if c.ev == nil {
				c.ev = sim.NewEvent(m.k, "fastiovd-zero")
			}
			c.ev.Await(p)
			return
		}
	}
}

// claimAndZero removes the page from pid's table s (claiming it), publishes
// an in-flight claim, performs the zeroing, and signals completion. If the
// zeroing Proc is unwound mid-zero (the scrubber daemon reaped at the end
// of a Run phase), the claim is rolled back so the page is still tracked —
// and still gets zeroed before any later exposure.
func (m *Module) claimAndZero(p *sim.Proc, pid int, s *pageSet, hpaPage int64) {
	s.remove(hpaPage)
	m.tracked--
	if s.n == 0 {
		delete(m.tables, pid)
	}
	m.claims++
	id := m.claims
	m.uncurrent(hpaPage)
	m.inflight = append(m.inflight, claim{id: id, page: hpaPage, pid: pid, current: true})
	completed := false
	defer func() {
		c := m.finish(id)
		if completed {
			if c.ev != nil {
				c.ev.Fire(p)
			}
			return
		}
		// Unwound mid-zero: restore the claim — unless the owner was torn
		// down in the meantime.
		if !c.released {
			m.track(pid, hpaPage, 1)
		}
	}()
	m.zero(p, hpaPage)
	completed = true
}

// uncurrent clears the current mark of every claim on page.
func (m *Module) uncurrent(page int64) {
	for i := range m.inflight {
		if m.inflight[i].page == page {
			m.inflight[i].current = false
		}
	}
}

// finish removes claim id from the in-flight set and returns it. Faults on
// its page stop waiting for any claim from here on.
func (m *Module) finish(id uint64) claim {
	last := len(m.inflight) - 1
	for i := range m.inflight {
		if c := m.inflight[i]; c.id == id {
			m.inflight[i] = m.inflight[last]
			m.inflight = m.inflight[:last]
			m.uncurrent(c.page)
			return c
		}
	}
	panic("fastiovd: finishing an unknown claim")
}

// ScrubProc returns the live scrubber daemon (nil before StartScrubber).
func (m *Module) ScrubProc() *sim.Proc { return m.scrubProc }

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
func (m *Module) CrashDaemon(p *sim.Proc) {
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
	m.scrubQueue, m.scrubHead, m.scrubLen = m.scrubQueue[:0], 0, 0
	pids := make([]int, 0, len(m.tables))
	for pid := range m.tables {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var n int64
	for _, pid := range pids {
		m.tables[pid].eachRun(func(start, count int64) {
			m.enqueue(pid, start, count)
			n += count
		})
	}
	if cost := time.Duration(n) * m.RegisterCostPerPage; cost > 0 {
		p.Sleep(cost)
	}
	m.ScrubberRestarts++
	m.StartScrubber(m.scrubInterval, m.scrubPagesPerPass)
}

// zero clears one page, auditing the crash case: the page must not already
// hold live data (that data would be destroyed).
func (m *Module) zero(p *sim.Proc, hpaPage int64) {
	if m.mem.State(hpaPage) == hostmem.Written {
		m.Corruptions++
	}
	m.mem.ZeroPage(p, hpaPage)
}

// Tracked returns the number of pages still awaiting zeroing for pid.
func (m *Module) Tracked(pid int) int {
	if s := m.tables[pid]; s != nil {
		return s.n
	}
	return 0
}

// TrackedTotal returns the table-wide deferred page count.
func (m *Module) TrackedTotal() int { return m.tracked }

// ScrubQueueLen returns the length of the background scrub list — the
// deferred pages queued for the scrubber thread, in registration order.
func (m *Module) ScrubQueueLen() int { return int(m.scrubLen) }

// Release drops pid's table without zeroing (VM teardown: the pages return
// to the allocator dirty and are re-zeroed for their next owner). The pid's
// in-flight claims are marked released so one unwound later does not
// resurrect the table.
func (m *Module) Release(pid int) {
	if s := m.tables[pid]; s != nil {
		m.tracked -= s.n
		delete(m.tables, pid)
	}
	m.setReleased(pid, true)
}

// StartScrubber launches the module's background thread (§5): it
// periodically sweeps the two-tier table, zeroing up to pagesPerPass pages
// per wake and removing them, overlapping zeroing with other startup stages.
func (m *Module) StartScrubber(interval time.Duration, pagesPerPass int) {
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
			for cleared < pagesPerPass && m.scrubLen > 0 {
				pid, pg := m.dequeue()
				s := m.tables[pid]
				if s == nil || !s.has(pg) {
					continue // already zeroed on the fault path
				}
				m.claimAndZero(p, pid, s, pg)
				m.ScrubZeroed++
				cleared++
			}
		}
	})
}

// dequeue pops the next page off the scrub queue, resetting the queue once
// it is drained so its backing array is reused from the front.
func (m *Module) dequeue() (pid int, page int64) {
	e := &m.scrubQueue[m.scrubHead]
	pid, page = e.pid, e.start
	e.start++
	e.count--
	m.scrubLen--
	if e.count == 0 {
		m.scrubHead++
		if m.scrubHead == len(m.scrubQueue) {
			m.scrubQueue, m.scrubHead = m.scrubQueue[:0], 0
		}
	}
	return pid, page
}
