// Package audit checks host-wide conservation invariants: every resource a
// sandbox acquires during startup — VFs, host pages (free and pinned),
// IOMMU domains and translations, VFIO registrations and device-fd opens,
// KVM VMs and demand pages, vhost registrations, fastiovd tracking — must
// return to its pre-run level once every sandbox is stopped or rolled
// back. A Snapshot captures the counters, Diff reports the violations, and
// a Report pairs the two for experiment results. Capturing a snapshot
// reads counters only: it consumes no simulated time and no randomness, so
// auditing a run cannot change its bytes.
package audit

import (
	"fmt"
	"strings"
	"time"

	"fastiov/internal/fastiovd"
	"fastiov/internal/hostmem"
	"fastiov/internal/hypervisor"
	"fastiov/internal/iommu"
	"fastiov/internal/kvm"
	"fastiov/internal/nic"
	"fastiov/internal/vfio"
)

// System bundles the substrates an audit inspects. Nil fields contribute
// zero to the snapshot (a host without fastiovd, say, trivially conserves
// its tracking count).
type System struct {
	NIC  *nic.NIC
	Mem  *hostmem.Allocator
	MMU  *iommu.IOMMU
	VFIO *vfio.Driver
	KVM  *kvm.KVM
	Lazy *fastiovd.Module
	Env  *hypervisor.Env
}

// Snapshot is one observation of the host's conservation counters.
type Snapshot struct {
	// FreeVFs is the NIC's free virtual-function count.
	FreeVFs int
	// FreePages and PinnedPages partition host memory state: a leak shows
	// up as FreePages down and/or PinnedPages up.
	FreePages   int64
	PinnedPages int64
	// IOMMUDomains and IOMMUMappedPages count live I/O address spaces and
	// translations.
	IOMMUDomains     int
	IOMMUMappedPages int
	// VFIORegistered counts registered devices; DevsetOpens is the
	// host-wide sum of device-fd open counts.
	VFIORegistered int
	DevsetOpens    int
	// KVMLiveVMs and KVMDemandPages count microVMs and the demand-faulted
	// pages backing them.
	KVMLiveVMs     int
	KVMDemandPages int
	// VhostRegistrations counts live vhost device registrations.
	VhostRegistrations int
	// LazyTracked counts regions still tracked by fastiovd.
	LazyTracked int
	// ResidualReads counts guest reads of another tenant's residual data
	// (hostmem.Allocator.Violations). It is not a level that must return
	// to baseline but a count that must be zero at every capture: Diff
	// reports it whenever either side is non-zero, and Sum and Sub both
	// add it, so no delta can cancel a read.
	ResidualReads int
}

// Capture reads the counters. Pure observation: no simulated time, no
// randomness, no state change.
func Capture(s System) Snapshot {
	var snap Snapshot
	if s.NIC != nil {
		snap.FreeVFs = s.NIC.FreeVFs()
	}
	if s.Mem != nil {
		snap.FreePages = s.Mem.FreePages()
		snap.PinnedPages = s.Mem.PinnedPages()
		snap.ResidualReads = s.Mem.Violations
	}
	if s.MMU != nil {
		snap.IOMMUDomains = s.MMU.Domains()
		snap.IOMMUMappedPages = s.MMU.TotalMappedPages()
	}
	if s.VFIO != nil {
		snap.VFIORegistered = s.VFIO.RegisteredCount()
		snap.DevsetOpens = s.VFIO.TotalOpens()
	}
	if s.KVM != nil {
		snap.KVMLiveVMs = s.KVM.LiveVMs()
		snap.KVMDemandPages = s.KVM.DemandPages()
	}
	if s.Env != nil {
		snap.VhostRegistrations = s.Env.VhostRegistrations()
	}
	if s.Lazy != nil {
		snap.LazyTracked = s.Lazy.TrackedTotal()
	}
	return snap
}

// Sum adds snapshots counter by counter. A fleet audits N hosts by summing
// their per-host baselines and their per-host post-run snapshots: the diff
// of the sums is the fleet-wide conservation report, and it is identically
// zero exactly when every host returned every resource it handed out
// (hosts are isolated, so leaks cannot cancel across them — but the
// per-host reports are kept alongside to prove it).
func Sum(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		out.FreeVFs += s.FreeVFs
		out.FreePages += s.FreePages
		out.PinnedPages += s.PinnedPages
		out.IOMMUDomains += s.IOMMUDomains
		out.IOMMUMappedPages += s.IOMMUMappedPages
		out.VFIORegistered += s.VFIORegistered
		out.DevsetOpens += s.DevsetOpens
		out.KVMLiveVMs += s.KVMLiveVMs
		out.KVMDemandPages += s.KVMDemandPages
		out.VhostRegistrations += s.VhostRegistrations
		out.LazyTracked += s.LazyTracked
		out.ResidualReads += s.ResidualReads
	}
	return out
}

// Sub subtracts snapshots counter by counter (a - b). Counters may go
// negative: the result is a delta, not an observation. The LostToCrash
// ledger uses it to express "what the crashed generation still held" as
// baseline-minus-crash-instant. ResidualReads is added, not subtracted:
// a read seen at either capture stays seen.
func Sub(a, b Snapshot) Snapshot {
	return Snapshot{
		FreeVFs:            a.FreeVFs - b.FreeVFs,
		FreePages:          a.FreePages - b.FreePages,
		PinnedPages:        a.PinnedPages - b.PinnedPages,
		IOMMUDomains:       a.IOMMUDomains - b.IOMMUDomains,
		IOMMUMappedPages:   a.IOMMUMappedPages - b.IOMMUMappedPages,
		VFIORegistered:     a.VFIORegistered - b.VFIORegistered,
		DevsetOpens:        a.DevsetOpens - b.DevsetOpens,
		KVMLiveVMs:         a.KVMLiveVMs - b.KVMLiveVMs,
		KVMDemandPages:     a.KVMDemandPages - b.KVMDemandPages,
		VhostRegistrations: a.VhostRegistrations - b.VhostRegistrations,
		LazyTracked:        a.LazyTracked - b.LazyTracked,
		ResidualReads:      a.ResidualReads + b.ResidualReads,
	}
}

// AppendFingerprint appends s as fmt's %+v renders the counters other
// than ResidualReads, which joins the braces only when non-zero: a clean
// snapshot renders as it did before that counter existed, and a run that
// read residual data fails its audit anyway.
func (s Snapshot) AppendFingerprint(b []byte) []byte {
	b = fmt.Appendf(b, "{FreeVFs:%d FreePages:%d PinnedPages:%d IOMMUDomains:%d IOMMUMappedPages:%d "+
		"VFIORegistered:%d DevsetOpens:%d KVMLiveVMs:%d KVMDemandPages:%d VhostRegistrations:%d LazyTracked:%d",
		s.FreeVFs, s.FreePages, s.PinnedPages, s.IOMMUDomains, s.IOMMUMappedPages,
		s.VFIORegistered, s.DevsetOpens, s.KVMLiveVMs, s.KVMDemandPages, s.VhostRegistrations, s.LazyTracked)
	if s.ResidualReads != 0 {
		b = fmt.Appendf(b, " ResidualReads:%d", s.ResidualReads)
	}
	return append(b, '}')
}

// LedgerEntry records one host generation destroyed by a crash: the
// generation's boot baseline and the counters observed at the crash
// instant (after kill-unwind deferred releases landed). The difference
// Sub(Base, AtCrash) is what the dead generation still held — resources
// lost to the crash, released by no one.
type LedgerEntry struct {
	// Host is the fleet index of the crashed host; Generation counts its
	// boots (0 = the original boot).
	Host       int
	Generation int
	// At is the simulated crash instant.
	At time.Duration
	// Base is the generation's post-boot audit baseline; AtCrash is the
	// snapshot taken at the crash instant.
	Base    Snapshot
	AtCrash Snapshot
}

// Lost is the entry's unreturned residue: Sub(Base, AtCrash).
func (e LedgerEntry) Lost() Snapshot { return Sub(e.Base, e.AtCrash) }

// Ledger is the LostToCrash ledger: one entry per destroyed host
// generation. Fleet-wide conservation closes to zero only when the lost
// state is credited back explicitly:
//
//	Sum(live baselines) + Sum(ledger Base)
//	  == Sum(live finals) + Sum(ledger AtCrash) + LostTotal
//
// which holds identically iff every surviving generation is individually
// clean.
type Ledger struct {
	Entries []LedgerEntry
}

// Add appends an entry.
func (l *Ledger) Add(e LedgerEntry) { l.Entries = append(l.Entries, e) }

// Len returns the number of entries (nil-safe).
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	return len(l.Entries)
}

// BaseTotal sums the destroyed generations' boot baselines (nil-safe).
func (l *Ledger) BaseTotal() Snapshot {
	var out Snapshot
	if l == nil {
		return out
	}
	for _, e := range l.Entries {
		out = Sum(out, e.Base)
	}
	return out
}

// AtCrashTotal sums the crash-instant snapshots (nil-safe).
func (l *Ledger) AtCrashTotal() Snapshot {
	var out Snapshot
	if l == nil {
		return out
	}
	for _, e := range l.Entries {
		out = Sum(out, e.AtCrash)
	}
	return out
}

// LostTotal sums the unreturned residues across all entries (nil-safe).
func (l *Ledger) LostTotal() Snapshot {
	var out Snapshot
	if l == nil {
		return out
	}
	for _, e := range l.Entries {
		out = Sum(out, e.Lost())
	}
	return out
}

// Leak is one violated conservation invariant: a counter that did not
// return to its baseline value.
type Leak struct {
	Resource string
	Before   int64
	After    int64
}

// Delta is the leaked amount (after minus before).
func (l Leak) Delta() int64 { return l.After - l.Before }

func (l Leak) String() string {
	return fmt.Sprintf("%s: %d -> %d (%+d)", l.Resource, l.Before, l.After, l.Delta())
}

// Diff compares two snapshots counter by counter and returns one Leak per
// differing counter, in declaration order (deterministic), and a
// residual-reads Leak when either snapshot saw a residual-data read.
func Diff(before, after Snapshot) []Leak {
	counters := []struct {
		name string
		b, a int64
	}{
		{"free-vfs", int64(before.FreeVFs), int64(after.FreeVFs)},
		{"free-pages", before.FreePages, after.FreePages},
		{"pinned-pages", before.PinnedPages, after.PinnedPages},
		{"iommu-domains", int64(before.IOMMUDomains), int64(after.IOMMUDomains)},
		{"iommu-mapped-pages", int64(before.IOMMUMappedPages), int64(after.IOMMUMappedPages)},
		{"vfio-registered", int64(before.VFIORegistered), int64(after.VFIORegistered)},
		{"devset-opens", int64(before.DevsetOpens), int64(after.DevsetOpens)},
		{"kvm-live-vms", int64(before.KVMLiveVMs), int64(after.KVMLiveVMs)},
		{"kvm-demand-pages", int64(before.KVMDemandPages), int64(after.KVMDemandPages)},
		{"vhost-registrations", int64(before.VhostRegistrations), int64(after.VhostRegistrations)},
		{"lazy-tracked", int64(before.LazyTracked), int64(after.LazyTracked)},
	}
	var leaks []Leak
	for _, c := range counters {
		if c.b != c.a {
			leaks = append(leaks, Leak{Resource: c.name, Before: c.b, After: c.a})
		}
	}
	if before.ResidualReads != 0 || after.ResidualReads != 0 {
		leaks = append(leaks, Leak{Resource: "residual-reads",
			Before: int64(before.ResidualReads), After: int64(after.ResidualReads)})
	}
	return leaks
}

// Report pairs before/after snapshots with their diff.
type Report struct {
	Before Snapshot
	After  Snapshot
	Leaks  []Leak
}

// NewReport diffs the snapshots.
func NewReport(before, after Snapshot) *Report {
	return &Report{Before: before, After: after, Leaks: Diff(before, after)}
}

// Clean reports whether every counter returned to baseline (nil-safe: a
// missing report is treated as unaudited, not clean).
func (r *Report) Clean() bool { return r != nil && len(r.Leaks) == 0 }

// Count returns the number of leaked counters (0 for nil).
func (r *Report) Count() int {
	if r == nil {
		return 0
	}
	return len(r.Leaks)
}

// String renders "clean" or the leak list, one per line.
func (r *Report) String() string {
	if r == nil {
		return "unaudited"
	}
	if len(r.Leaks) == 0 {
		return "clean"
	}
	parts := make([]string, len(r.Leaks))
	for i, l := range r.Leaks {
		parts[i] = l.String()
	}
	return strings.Join(parts, "\n")
}
