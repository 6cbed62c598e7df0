package cluster

// Boot-prefix snapshots. Booting a host is a pure function of
// (HostSpec, Options) that consumes no simulated time: it builds the page
// arrays, pre-creates and binds 256 VFs, registers them with VFIO, and
// spawns the background daemons. Experiment sweeps re-run that identical
// prefix for every (concurrency, arrival, ...) scenario sharing one
// baseline and seed. CaptureSnapshot freezes the post-boot hardware state
// once; RestoreSnapshot then stamps out fresh hosts by cloning it —
// skipping the array initialization, VF creation, and per-VF registration
// work — while replaying the boot's kernel-visible actions (probe attach,
// daemon spawns) in their original order, so the restored host's kernel
// clock, sequence numbers, probe stream, and PRNG position are
// byte-identical to a from-scratch boot. The experiment harness keys
// snapshots in its singleflight cache alongside the scenario results (see
// internal/experiments).

import (
	"fmt"
	"time"

	"fastiov/internal/audit"
	"fastiov/internal/fastiovd"
	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/kvm"
	"fastiov/internal/nic"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
	"fastiov/internal/trace"
	"fastiov/internal/vfio"
)

// Snapshot is an immutable capture of a freshly booted host. It owns
// private master copies of the mutable hardware state (page arrays, PCI
// topology, NIC VF pool, VFIO registrations); RestoreSnapshot clones them
// again per restored host, so one Snapshot can be shared by concurrent
// restores.
type Snapshot struct {
	Spec HostSpec // as booted: Scope-prefixed NIC name already applied
	Opts Options

	mem  *hostmem.Allocator
	topo *pci.Topology
	nic  *nic.NIC
	vfio *vfio.Driver

	// Boot-time kernel clock and the audit baseline, recorded for the
	// restore path's self-check: a restored host must reproduce both
	// exactly or the snapshot is not transparent.
	now      sim.Duration
	seq      uint64
	procSeq  int
	baseline audit.Snapshot
}

// CaptureSnapshot freezes a freshly booted host's state. The host must be
// pristine — booted but never run: zero virtual time elapsed, no VMs, no
// IOMMU domains, no device opens, nothing tracked by fastiovd. Capturing a
// host with live work would silently drop it, so that is an error.
func CaptureSnapshot(h *Host) (*Snapshot, error) {
	now, seq, procSeq := h.K.Clock()
	if now != 0 {
		return nil, fmt.Errorf("cluster: snapshot of host at t=%v, want pristine boot (t=0)", now)
	}
	if n := h.KVM.LiveVMs(); n != 0 {
		return nil, fmt.Errorf("cluster: snapshot with %d live VMs", n)
	}
	if n := h.MMU.Domains(); n != 0 {
		return nil, fmt.Errorf("cluster: snapshot with %d live IOMMU domains", n)
	}
	if h.Lazy != nil && h.Lazy.TrackedTotal() != 0 {
		return nil, fmt.Errorf("cluster: snapshot with %d fastiovd-tracked pages", h.Lazy.TrackedTotal())
	}
	s := &Snapshot{
		Spec:     h.Spec,
		Opts:     h.Opts,
		now:      now,
		seq:      seq,
		procSeq:  procSeq,
		baseline: h.Baseline,
	}
	s.mem = h.Mem.Clone(h.K)
	topo, remap := h.Topo.Clone()
	s.topo = topo
	s.nic = h.NIC.Clone(h.K, remap)
	var err error
	s.vfio, err = h.VFIO.Clone(h.K, topo, s.mem, h.MMU, remap)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// RestoreSnapshot builds a fresh host from a boot-prefix snapshot,
// byte-identical to NewHost(snap.Spec, snap.Opts): the hardware state is
// cloned instead of rebuilt, and the boot sequence's kernel-visible
// actions (tracer attach, fault injector, daemon spawns, metrics) replay
// in their original order on a fresh kernel. The restored host verifies
// its kernel clock and audit baseline against the captured boot before
// returning.
func RestoreSnapshot(snap *Snapshot) (*Host, error) {
	opts := snap.Opts
	spec := snap.Spec // NIC name already Scope-prefixed at original boot
	k := sim.NewKernel(opts.Seed)
	h := &Host{
		K:          k,
		Spec:       spec,
		Opts:       opts,
		rng:        k.Rand(),
		Mem:        snap.mem.Clone(k),
		CPU:        sim.NewResource(opts.Scope+"cpu", spec.Cores),
		Rec:        telemetry.NewRecorder(),
		RTNL:       sim.NewMutex(opts.Scope + "rtnl"),
		CgroupLock: sim.NewMutex(opts.Scope + "cgroup"),
		IrqLock:    sim.NewMutex(opts.Scope + "irq-routing"),
	}
	topo, remap := snap.topo.Clone()
	h.Topo = topo
	// From here the order mirrors NewHostOn exactly: tracer before any
	// daemon spawn, scrubber before metrics, so clock/seq/probe streams
	// reproduce.
	if opts.Trace {
		h.Tracer = trace.Attach(k)
	}
	h.Faults = fault.NewInjector(opts.Seed, opts.Faults)
	pol := opts.Retry
	if pol.MaxAttempts == 0 {
		pol = fault.DefaultPolicy()
	}
	h.Mem.Faults = h.Faults

	h.MMU = iommu.New(k, h.Mem.PageSize())
	h.MMU.Faults = h.Faults
	h.NIC = snap.nic.Clone(k, remap)
	var err error
	h.VFIO, err = snap.vfio.Clone(k, topo, h.Mem, h.MMU, remap)
	if err != nil {
		return nil, err
	}
	h.VFIO.Faults = h.Faults
	h.VFIO.Retry = pol
	h.KVM = kvm.New(k, h.Mem)
	if opts.LazyZeroing {
		h.Lazy = fastiovd.New(k, h.Mem)
		h.Lazy.Faults = h.Faults
		h.KVM.Hook = h.Lazy
		if !opts.DisableScrubber {
			h.Lazy.StartScrubber(2*time.Millisecond, 8)
		}
	}
	// No PreZero and no VF binding here: both effects live in the cloned
	// page arrays and PCI/VFIO graphs.
	if err := h.wireStack(pol); err != nil {
		return nil, err
	}
	if now, seq, procSeq := k.Clock(); now != snap.now || seq != snap.seq || procSeq != snap.procSeq {
		return nil, fmt.Errorf("cluster: restored clock (t=%v seq=%d procs=%d) diverges from boot (t=%v seq=%d procs=%d)",
			now, seq, procSeq, snap.now, snap.seq, snap.procSeq)
	}
	if h.Baseline != snap.baseline {
		return nil, fmt.Errorf("cluster: restored audit baseline %+v diverges from boot %+v", h.Baseline, snap.baseline)
	}
	return h, nil
}

// AppendCanonical serializes the snapshot's observable state for
// determinism verification: a captured boot re-run from the same inputs
// must produce byte-identical encodings.
func (s *Snapshot) AppendCanonical(b []byte) []byte {
	b = fmt.Appendf(b, "boot %s seed=%d scope=%q\n", s.Opts.Name, s.Opts.Seed, s.Opts.Scope)
	b = fmt.Appendf(b, "clock t=%d seq=%d procs=%d\n", s.now, s.seq, s.procSeq)
	b = fmt.Appendf(b, "mem pages=%d free=%d dirty=%d statehash=%016x\n",
		s.mem.TotalPages(), s.mem.FreePages(), s.mem.DirtyPages(), s.mem.StateDigest())
	b = fmt.Appendf(b, "nic vfs=%d free=%d\n", len(s.nic.VFs()), s.nic.FreeVFs())
	b = fmt.Appendf(b, "vfio registered=%d opens=%d\n", s.vfio.RegisteredCount(), s.vfio.TotalOpens())
	b = fmt.Appendf(b, "audit %+v\n", s.baseline)
	return b
}
