// Package dataplane models the packet receive path of §2.2 for both
// network solutions the paper compares, quantifying the premise behind the
// whole work (§1): SR-IOV passthrough delivers near-bare-metal data-plane
// performance, while software CNIs pay a per-packet host-kernel tax.
//
// Passthrough RX (§2.2's four-step walk-through): the NIC's DMA engine
// translates the IOVA through the IOMMU and writes the packet directly
// into guest memory; only the completion interrupt is relayed through the
// hypervisor, and interrupt coalescing amortizes that relay over a batch.
//
// Software-CNI RX (ipvtap/virtio): the packet traverses the host kernel
// network stack, is copied into a shared vring buffer by the vhost worker,
// and the guest is notified — per-packet CPU work and an extra copy that
// passthrough avoids.
package dataplane

import (
	"fmt"
	"time"

	"fastiov/internal/hostmem"
	"fastiov/internal/iommu"
	"fastiov/internal/kvm"
	"fastiov/internal/nic"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
)

// Costs parameterizes the per-packet path models. Defaults approximate a
// 25 GbE NIC with NAPI-style coalescing and a single-queue virtio path.
type Costs struct {
	// IOMMULookup is the IOTLB-hit translation cost per DMA descriptor.
	IOMMULookup time.Duration
	// IrqInject is the hypervisor's interrupt-relay (irqfd) cost.
	IrqInject time.Duration
	// CoalesceBatch is the packets amortizing one interrupt.
	CoalesceBatch int
	// GuestRxWork is the guest driver's per-packet processing.
	GuestRxWork time.Duration
	// HostStackWork is the host kernel network-stack cost per packet on
	// the software path.
	HostStackWork time.Duration
	// VhostCopyBytesPerSec is the vhost worker's copy rate into the vring.
	VhostCopyBytesPerSec int64
	// VringKick is the guest-notify cost per batch on the virtio path.
	VringKick time.Duration
}

// DefaultCosts returns the calibrated model.
func DefaultCosts() Costs {
	return Costs{
		IOMMULookup:          120 * time.Nanosecond,
		IrqInject:            2 * time.Microsecond,
		CoalesceBatch:        32,
		GuestRxWork:          600 * time.Nanosecond,
		HostStackWork:        2500 * time.Nanosecond,
		VhostCopyBytesPerSec: 12 << 30,
		VringKick:            1500 * time.Nanosecond,
	}
}

// Result reports one streaming run.
type Result struct {
	Packets    int
	Bytes      int64
	Elapsed    time.Duration
	Throughput float64 // Gbit/s
	LatP50     time.Duration
	LatP99     time.Duration
}

func newResult(n int, bytes int64, elapsed time.Duration, lat *stats.Sample) Result {
	r := Result{Packets: n, Bytes: bytes, Elapsed: elapsed}
	if elapsed > 0 {
		r.Throughput = float64(bytes*8) / elapsed.Seconds() / 1e9
	}
	r.LatP50 = lat.P50()
	r.LatP99 = lat.P99()
	return r
}

// Passthrough streams packets through the SR-IOV path into a VM whose RX
// window is DMA-mapped at iovaBase. Every page the NIC writes must already
// be translated — an IOMMU fault aborts the run, which is exactly why the
// startup path must map everything up front (§3.2.3).
type Passthrough struct {
	NIC    *nic.NIC
	Domain *iommu.Domain
	Mem    *hostmem.Allocator
	VM     *kvm.VM
	Costs  Costs
}

// Stream receives n packets of size bytes each, returning throughput and
// per-packet latency statistics.
func (pt *Passthrough) Stream(p *sim.Proc, n int, size int64, iovaBase, window int64) (Result, error) {
	if window < size {
		return Result{}, fmt.Errorf("dataplane: window %d smaller than packet %d", window, size)
	}
	lat := stats.NewSampleCap(n)
	start := p.Now()
	cursor := int64(0)
	for i := 0; i < n; i++ {
		pktStart := p.Now()
		if cursor+size > window {
			cursor = 0
		}
		// DMA engine: IOTLB lookup + direct write to guest memory.
		p.Sleep(pt.Costs.IOMMULookup)
		if err := pt.NIC.DMAWrite(p, pt.Domain, pt.Mem, iovaBase+cursor, size); err != nil {
			return Result{}, err
		}
		cursor += size
		// Interrupt relay, amortized over the coalescing batch.
		if pt.Costs.CoalesceBatch <= 1 || i%pt.Costs.CoalesceBatch == 0 {
			p.Sleep(pt.Costs.IrqInject)
		}
		// Guest driver consumes the packet (EPT hits after warmup).
		if err := pt.VM.Touch(p, iovaBase+cursor-size, false); err != nil {
			return Result{}, err
		}
		p.Sleep(pt.Costs.GuestRxWork)
		lat.Add(p.Now() - pktStart)
	}
	return newResult(n, int64(n)*size, p.Now()-start, lat), nil
}

// Virtio streams packets through the software-CNI path: host stack →
// vhost copy into the vring → notify → guest.
type Virtio struct {
	Mem   *hostmem.Allocator
	VM    *kvm.VM
	Costs Costs
}

// Stream receives n packets of size bytes each through the vring at
// gpaBase (window bytes of guest buffer).
func (v *Virtio) Stream(p *sim.Proc, n int, size int64, gpaBase, window int64) (Result, error) {
	if window < size {
		return Result{}, fmt.Errorf("dataplane: window %d smaller than packet %d", window, size)
	}
	lat := stats.NewSampleCap(n)
	start := p.Now()
	cursor := int64(0)
	for i := 0; i < n; i++ {
		pktStart := p.Now()
		if cursor+size > window {
			cursor = 0
		}
		// Host kernel stack processes the packet.
		p.Sleep(v.Costs.HostStackWork)
		// vhost worker copies payload into the shared buffer.
		p.Sleep(time.Duration(size * int64(time.Second) / v.Costs.VhostCopyBytesPerSec))
		if err := v.VM.HostWrite(p, gpaBase+cursor, size); err != nil {
			return Result{}, err
		}
		// Notify + guest consumes.
		if v.Costs.CoalesceBatch <= 1 || i%v.Costs.CoalesceBatch == 0 {
			p.Sleep(v.Costs.VringKick + v.Costs.IrqInject)
		}
		if err := v.VM.Touch(p, gpaBase+cursor, false); err != nil {
			return Result{}, err
		}
		p.Sleep(v.Costs.GuestRxWork)
		cursor += size
		lat.Add(p.Now() - pktStart)
	}
	return newResult(n, int64(n)*size, p.Now()-start, lat), nil
}
