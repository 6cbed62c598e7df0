package cluster

// Boot recipes. Booting a host is a pure function of (HostSpec, Options)
// that consumes no simulated time, so the inputs of a pristine boot are all
// it takes to boot the same host again: CaptureSnapshot records them and
// RestoreSnapshot boots from them through NewHost, the one code path that
// builds a host.

import (
	"fmt"
	"strings"
)

// Snapshot is the recipe of a freshly booted host: the inputs it was booted
// from. It is immutable, so one Snapshot can be shared by concurrent
// restores.
type Snapshot struct {
	Spec HostSpec // as passed to NewHost: NIC name without the Scope prefix
	Opts Options
}

// CaptureSnapshot records a freshly booted host's recipe. The host must be
// pristine — booted but never run: zero virtual time elapsed, no VMs, no
// IOMMU domains, no device opens, nothing tracked by fastiovd. Capturing a host with live
// work would silently drop it, so that is an error.
func CaptureSnapshot(h *Host) (*Snapshot, error) {
	if now := h.K.Now(); now != 0 {
		return nil, fmt.Errorf("cluster: snapshot of host at t=%v, want pristine boot (t=0)", now)
	}
	if n := h.KVM.LiveVMs(); n != 0 {
		return nil, fmt.Errorf("cluster: snapshot with %d live VMs", n)
	}
	if n := h.MMU.Domains(); n != 0 {
		return nil, fmt.Errorf("cluster: snapshot with %d live IOMMU domains", n)
	}
	if n := h.VFIO.TotalOpens(); n != 0 {
		return nil, fmt.Errorf("cluster: snapshot with %d open VFIO device fds", n)
	}
	if h.Lazy != nil && h.Lazy.TrackedTotal() != 0 {
		return nil, fmt.Errorf("cluster: snapshot with %d fastiovd-tracked pages", h.Lazy.TrackedTotal())
	}
	spec := h.Spec
	// NewHostOn prefixes the NIC name with the Scope; undo it so the
	// restore does not prefix it twice.
	spec.NIC.Name = strings.TrimPrefix(spec.NIC.Name, h.Opts.Scope)
	return &Snapshot{Spec: spec, Opts: h.Opts}, nil
}

// RestoreSnapshot boots a fresh host from a snapshot's recipe.
func RestoreSnapshot(snap *Snapshot) (*Host, error) { return NewHost(snap.Spec, snap.Opts) }
