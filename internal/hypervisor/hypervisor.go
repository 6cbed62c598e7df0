// Package hypervisor models the Kata-QEMU microVM monitor: guest memory
// layout and setup, VFIO passthrough attachment (including the DMA-mapping
// choices FastIOV optimizes), firmware loading, and the virtio/virtioFS
// para-virtualized transport with its shared-buffer semantics (§4.3.2).
package hypervisor

import (
	"fmt"
	"time"

	"fastiov/internal/fastiovd"
	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/kvm"
	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
	"fastiov/internal/vfio"
)

// Costs is the hypervisor-side cost model.
type Costs struct {
	// ProcessStart is the CPU time to fork and initialize the (Kata-)QEMU
	// process and its device model.
	ProcessStart time.Duration
	// VirtioFSDaemon is the CPU time to start virtiofsd and set up the
	// shared directory.
	VirtioFSDaemon time.Duration
	// VhostLockHold is the time the vhost/virtio registration path holds
	// the host-global lock — the serialization that makes 2-virtiofs grow
	// with concurrency (§3.2.1, measured but not VF-related).
	VhostLockHold time.Duration
	// FSMountGuest is the guest-side mount cost once virtiofsd is up.
	FSMountGuest time.Duration
	// VirtioBytesPerSec is one virtioFS stream's copy throughput.
	VirtioBytesPerSec int64
	// VirtioChunk is the shared-buffer size per vring descriptor batch.
	VirtioChunk int64
	// ImageCopyBytesPerSec is the rate at which the microVM image content
	// is populated into DMA-mapped (pinned) pages. Image pages are
	// file-backed: they are filled with file content, never zeroed.
	ImageCopyBytesPerSec int64
}

// DefaultCosts mirrors the calibration in DESIGN.md.
func DefaultCosts() Costs {
	return Costs{
		ProcessStart:         40 * time.Millisecond,
		VirtioFSDaemon:       15 * time.Millisecond,
		VhostLockHold:        21 * time.Millisecond,
		FSMountGuest:         5 * time.Millisecond,
		VirtioBytesPerSec:    4 << 30,
		VirtioChunk:          8 << 20,
		ImageCopyBytesPerSec: 6 << 30,
	}
}

// Env bundles the host-side modules a microVM needs. One Env is shared by
// every microVM on a host.
type Env struct {
	K    *sim.Kernel
	Mem  *hostmem.Allocator
	KVM  *kvm.KVM
	VFIO *vfio.Driver
	// Lazy, when non-nil, enables FastIOV's decoupled zeroing: DMA-mapped
	// guest RAM is registered with fastiovd instead of eagerly zeroed.
	Lazy *fastiovd.Module
	// CPU is the host core pool.
	CPU *sim.Resource
	// VhostLock serializes vhost/virtio device registration host-wide.
	VhostLock *sim.Mutex
	Costs     Costs

	// Faults, when non-nil, enables fault-aware startup: DMA-map calls are
	// retried under Retry with backoff waits surfaced as retry telemetry
	// spans. Both fields are inert at their zero values.
	Faults *fault.Injector
	Retry  fault.Policy

	// vhostRegs counts live vhost device registrations host-wide — a
	// conservation input for leak audits.
	vhostRegs int
}

// VhostRegistrations returns the number of live vhost device registrations
// host-wide (virtiofs vhost-user devices plus vdpa devices).
func (e *Env) VhostRegistrations() int { return e.vhostRegs }

// NewEnv wires an Env with the default cost model.
func NewEnv(k *sim.Kernel, mem *hostmem.Allocator, kv *kvm.KVM, vf *vfio.Driver, lazy *fastiovd.Module, cpu *sim.Resource) *Env {
	return &Env{
		K: k, Mem: mem, KVM: kv, VFIO: vf, Lazy: lazy, CPU: cpu,
		VhostLock: sim.NewMutex("vhost"),
		Costs:     DefaultCosts(),
	}
}

// Layout is the guest-physical memory map. The image region holds the
// microVM system image (rootfs + agent, read-only, invisible to DMA — the
// region FastIOV-S skips); the firmware region holds BIOS + kernel (the
// instant-zeroing-list region).
type Layout struct {
	RAMBytes      int64
	ImageBytes    int64
	FirmwareBytes int64
}

// DefaultLayout mirrors the testbed: 512 MB RAM, 256 MB image, and
// firmware sized at ~9.4% of a 512 MB guest (§4.3.2).
func DefaultLayout() Layout {
	return Layout{
		RAMBytes:      512 << 20,
		ImageBytes:    256 << 20,
		FirmwareBytes: 48 << 20,
	}
}

// GPA bases: RAM at 0, then image, then firmware.
func (l Layout) RAMBase() int64      { return 0 }
func (l Layout) ImageBase() int64    { return l.RAMBytes }
func (l Layout) FirmwareBase() int64 { return l.RAMBytes + l.ImageBytes }
func (l Layout) Total() int64        { return l.RAMBytes + l.ImageBytes + l.FirmwareBytes }

// MicroVM is one guest instance.
type MicroVM struct {
	Env    *Env
	ID     int
	Layout Layout
	VM     *kvm.VM

	vfdev        *vfio.Device
	container    *vfio.Container
	ramRegion    *hostmem.Region
	imgRegion    *hostmem.Region
	fwRegion     *hostmem.Region
	imageSkipped bool

	// virtioCursor rotates shared-buffer placement across guest RAM so
	// successive transfers exercise different pages.
	virtioCursor int64

	// vhostRegs counts this VM's live vhost registrations (mirrored into
	// the Env's host-wide counter).
	vhostRegs int

	rec telemetry.SpanFn
}

// New forks the hypervisor process for container id (charging CPU) and
// creates the KVM VM.
func New(env *Env, id int, layout Layout, rec telemetry.SpanFn) *MicroVM {
	return &MicroVM{Env: env, ID: id, Layout: layout, rec: rec}
}

// Start initializes the hypervisor process and the empty VM.
func (m *MicroVM) Start(p *sim.Proc) {
	m.Env.CPU.Use(p, 1, m.Env.Costs.ProcessStart)
	m.VM = m.Env.KVM.CreateVM()
}

func (m *MicroVM) span(stage telemetry.Stage, start, end time.Duration) {
	if m.rec != nil {
		m.rec(stage, start, end)
	}
}

// SetupMemoryDemand configures all guest memory as demand-paged host memory
// — the non-passthrough path (no network, or software CNI): no up-front
// allocation, zeroing deferred to first touch by the host fault handler.
func (m *MicroVM) SetupMemoryDemand(p *sim.Proc) error {
	l := m.Layout
	if _, err := m.VM.AddSlot("ram", l.RAMBase(), l.RAMBytes, nil); err != nil {
		return err
	}
	if _, err := m.VM.AddSlot("image", l.ImageBase(), l.ImageBytes, nil); err != nil {
		return err
	}
	if _, err := m.VM.AddSlot("firmware", l.FirmwareBase(), l.FirmwareBytes, nil); err != nil {
		return err
	}
	m.imageSkipped = true // no DMA mapping exists at all
	return nil
}

// MapGuestMemory performs the DMA-mapping half of passthrough attachment
// (1-dma-ram, 3-dma-image): QEMU's memory listener maps guest memory into
// the VF's IOMMU domain as soon as the container is set up — before the
// device fd is opened. skipImage applies FastIOV-S: the image region falls
// back to demand-paged, non-DMA management. If the Env has a fastiovd
// module, RAM zeroing is deferred (FastIOV-D) and firmware goes on the
// instant-zeroing list.
func (m *MicroVM) MapGuestMemory(p *sim.Proc, vd *vfio.Device, skipImage bool) error {
	l := m.Layout
	env := m.Env
	m.vfdev = vd

	// The hypervisor programs the VFIO userspace API: open a container
	// (one I/O address space for this guest) and attach the VF's IOMMU
	// group to it.
	m.container = env.VFIO.OpenContainer()
	if err := m.container.AttachGroup(p, vd.Group()); err != nil {
		return err
	}

	var ramHook, fwHook vfio.ZeroHook
	if env.Lazy != nil {
		pid := m.VM.PID
		ramHook = func(p *sim.Proc, r *hostmem.Region) { env.Lazy.Register(p, pid, r) }
		fwHook = func(p *sim.Proc, r *hostmem.Region) { env.Lazy.RegisterInstant(p, pid, r) }
	}

	// Guest RAM: always DMA-mapped (the NIC writes packets here).
	start := p.Now()
	ram, err := m.mapDMA(p, "ram", l.RAMBase(), l.RAMBytes, ramHook)
	if err != nil {
		return err
	}
	m.ramRegion = ram
	if _, err := m.VM.AddSlot("ram", l.RAMBase(), l.RAMBytes, ram); err != nil {
		return err
	}
	// Firmware: DMA-mapped alongside RAM; under lazy zeroing it is
	// instant-zeroed because the hypervisor writes it before boot.
	fw, err := m.mapDMA(p, "firmware", l.FirmwareBase(), l.FirmwareBytes, fwHook)
	if err != nil {
		return err
	}
	m.fwRegion = fw
	if _, err := m.VM.AddSlot("firmware", l.FirmwareBase(), l.FirmwareBytes, fw); err != nil {
		return err
	}
	m.span(telemetry.StageDMARAM, start, p.Now())

	// Image region: read-only file-backed content (rootfs + agent),
	// invisible to guest DMA initiators. Vanilla maps it anyway (P1 in
	// Fig. 6), which forces the full content to be populated into pinned
	// pages up front; FastIOV-S notifies the hypervisor to skip it and
	// manage it as ordinary demand-paged, non-DMA memory. File-backed
	// pages are filled with content, never zeroed, so lazy zeroing does
	// not help this region — only skipping does.
	start = p.Now()
	if skipImage {
		if _, err := m.VM.AddSlot("image", l.ImageBase(), l.ImageBytes, nil); err != nil {
			return err
		}
		m.imageSkipped = true
	} else {
		noZero := func(*sim.Proc, *hostmem.Region) {} // content replaces zeroing
		img, err := m.mapDMA(p, "image", l.ImageBase(), l.ImageBytes, noZero)
		if err != nil {
			return err
		}
		m.imgRegion = img
		if _, err := m.VM.AddSlot("image", l.ImageBase(), l.ImageBytes, img); err != nil {
			return err
		}
		// Populate the image content into the pinned pages.
		rate := env.Costs.ImageCopyBytesPerSec
		if rate <= 0 {
			rate = 8 << 30
		}
		env.Mem.Bandwidth().Use(p, 1, time.Duration(l.ImageBytes*int64(time.Second)/rate))
		env.Mem.WriteRegion(img)
		m.span(telemetry.StageDMAImage, start, p.Now())
	}
	return nil
}

// mapDMA installs one guest region's DMA mapping, retrying transient
// (injected) map errors under the Env's policy. The VFIO layer fully
// unwinds a failed attempt (unpin + free), so each retry re-runs the whole
// retrieve → zero → pin → map pipeline on fresh pages. Backoff waits are
// recorded as retry spans; genuine errors propagate without retry.
func (m *MicroVM) mapDMA(p *sim.Proc, what string, iovaBase, bytes int64, hook vfio.ZeroHook) (*hostmem.Region, error) {
	env := m.Env
	var region *hostmem.Region
	err := fault.Do(p, env.Retry, env.Faults, "dma-map-"+what, func() error {
		r, err := m.container.MapDMA(p, iovaBase, bytes, hook)
		if err == nil {
			region = r
		}
		return err
	}, func(ws, we time.Duration) { m.span(telemetry.StageRetry, ws, we) })
	if err != nil {
		return nil, fmt.Errorf("vm %d: dma-map %s: %w", m.ID, what, err)
	}
	return region, nil
}

// OpenDevice performs the device-registration half of attachment
// (4-vfio-dev): the hypervisor obtains the device fd from its group
// (VFIO_GROUP_GET_DEVICE_FD) — the step the devset lock serializes
// host-wide under the vanilla discipline. FLR retries happen inside the
// driver (under the devset lock); their cumulative backoff wait is
// surfaced here as a retry-stage overlay span.
func (m *MicroVM) OpenDevice(p *sim.Proc) error {
	start := p.Now()
	_, retried, err := m.vfdev.Group().GetDeviceFD(p, m.vfdev)
	if err != nil {
		return fmt.Errorf("vm %d: open device: %w", m.ID, err)
	}
	m.span(telemetry.StageVFIODev, start, p.Now())
	if retried > 0 {
		// Aggregate overlay: the waits happened piecemeal under the devset
		// lock; anchor their total at the stage's tail.
		m.span(telemetry.StageRetry, p.Now()-retried, p.Now())
	}
	return nil
}

// AttachVF is the full passthrough attachment: map guest memory, then open
// the device.
func (m *MicroVM) AttachVF(p *sim.Proc, vd *vfio.Device, skipImage bool) error {
	if err := m.MapGuestMemory(p, vd, skipImage); err != nil {
		return err
	}
	return m.OpenDevice(p)
}

// VFDevice returns the attached VFIO device (nil without passthrough).
func (m *MicroVM) VFDevice() *vfio.Device { return m.vfdev }

// ImageSkipped reports whether the image region was left out of DMA
// mapping.
func (m *MicroVM) ImageSkipped() bool { return m.imageSkipped }

// LoadFirmware writes BIOS + kernel into the firmware region (hypervisor
// data write — the first lazy-zeroing exception of §4.3.2).
func (m *MicroVM) LoadFirmware(p *sim.Proc) error {
	// Loading is a host memcpy of the firmware bytes.
	d := time.Duration(m.Layout.FirmwareBytes * int64(time.Second) / m.Env.Costs.VirtioBytesPerSec)
	m.Env.CPU.Use(p, 1, d)
	return m.VM.HostWrite(p, m.Layout.FirmwareBase(), m.Layout.FirmwareBytes)
}

// StartVirtioFSDaemon launches virtiofsd and prepares the shared directory
// (the first half of 2-virtiofs). Kata starts the daemon before QEMU, which
// connects to its socket during device realize.
func (m *MicroVM) StartVirtioFSDaemon(p *sim.Proc) {
	start := p.Now()
	m.Env.CPU.Use(p, 1, m.Env.Costs.VirtioFSDaemon)
	m.span(telemetry.StageVirtioFS, start, p.Now())
}

// RegisterVhost performs the vhost-user device registration and guest-side
// mount (the second half of 2-virtiofs): the registration path holds the
// host-global vhost lock, which is where this stage's concurrency cost
// lives. It runs during QEMU device realize, interleaved with DMA mapping
// across containers.
func (m *MicroVM) RegisterVhost(p *sim.Proc) {
	start := p.Now()
	m.Env.VhostLock.Lock(p)
	p.Sleep(m.Env.Costs.VhostLockHold)
	m.Env.VhostLock.Unlock(p)
	m.Env.CPU.Use(p, 1, m.Env.Costs.FSMountGuest)
	m.noteVhost()
	m.span(telemetry.StageVirtioFS, start, p.Now())
}

// RegisterVDPA adds the VF as a vdpa device through the vhost framework
// (§7): a per-device char dev — the devset-wide lock is never taken — plus
// a vhost registration that is lighter than a full vhost-user bring-up (a
// quarter of the hold). deviceAdd is the `vdpa dev add` + char-device
// setup cost; <= 0 selects the default.
func (m *MicroVM) RegisterVDPA(p *sim.Proc, deviceAdd time.Duration) {
	if deviceAdd <= 0 {
		deviceAdd = 5 * time.Millisecond
	}
	m.Env.CPU.Use(p, 1, deviceAdd)
	m.Env.VhostLock.Lock(p)
	p.Sleep(m.Env.Costs.VhostLockHold / 4)
	m.Env.VhostLock.Unlock(p)
	m.noteVhost()
}

func (m *MicroVM) noteVhost() {
	m.vhostRegs++
	m.Env.vhostRegs++
}

// UnregisterVhost drops every vhost registration this VM holds (the
// virtiofs vhost-user device, plus the vdpa device when present).
// Deregistration is a host-side table update with negligible cost, so it
// consumes no simulated time. Idempotent.
func (m *MicroVM) UnregisterVhost() {
	m.Env.vhostRegs -= m.vhostRegs
	m.vhostRegs = 0
}

// SetupVirtioFS runs both halves back to back (tests and simple callers).
func (m *MicroVM) SetupVirtioFS(p *sim.Proc) {
	m.StartVirtioFSDaemon(p)
	m.RegisterVhost(p)
}

// VirtioFSRead transfers bytes of file data from the host into the guest
// through the shared-buffer protocol. For each chunk: the guest frontend
// publishes a buffer (under FastIOV's modified frontend, proactively
// EPT-faulting each buffer page first), the host backend writes the data,
// and the guest reads it. This is the second lazy-zeroing exception; run
// with proactive=false under deferred zeroing to reproduce the corruption.
func (m *MicroVM) VirtioFSRead(p *sim.Proc, bytes int64, proactive bool) error {
	chunk := m.Env.Costs.VirtioChunk
	if chunk <= 0 {
		chunk = 8 << 20
	}
	for moved := int64(0); moved < bytes; moved += chunk {
		n := chunk
		if bytes-moved < n {
			n = bytes - moved
		}
		// Place the shared buffer within guest RAM, rotating.
		if m.virtioCursor+n > m.Layout.RAMBytes {
			m.virtioCursor = 0
		}
		buf := m.Layout.RAMBase() + m.virtioCursor
		m.virtioCursor += n
		if proactive {
			// Frontend: data read of the first byte of each buffer page.
			if err := m.VM.TouchRange(p, buf, n, false); err != nil {
				return err
			}
		}
		// Backend: copy file data into the shared buffer.
		d := time.Duration(n * int64(time.Second) / m.Env.Costs.VirtioBytesPerSec)
		m.Env.Mem.Bandwidth().Use(p, 1, d)
		if err := m.VM.HostWrite(p, buf, n); err != nil {
			return err
		}
		// Guest: consume the data.
		if err := m.VM.TouchRange(p, buf, n, false); err != nil {
			return err
		}
	}
	return nil
}

// CloseDevice closes the VFIO device fd if this VM holds it open. It is
// the compensation for OpenDevice and is safe to call at any point of a
// partially-completed startup.
func (m *MicroVM) CloseDevice(p *sim.Proc) {
	if m.vfdev != nil && m.vfdev.OpenCount() > 0 {
		m.Env.VFIO.Close(p, m.vfdev)
	}
}

// UnmapGuestMemory closes the VFIO container: every DMA mapping is
// unmapped, the backing pages unpinned and freed, and the I/O address
// space destroyed. It is the compensation for MapGuestMemory and is safe
// after a partial map — the container unwinds whatever subset of mappings
// exists. The device fd must already be closed. Idempotent.
func (m *MicroVM) UnmapGuestMemory(p *sim.Proc) error {
	if m.container == nil {
		return nil
	}
	if err := m.container.Close(p); err != nil {
		return fmt.Errorf("vm %d: unmap: %w", m.ID, err)
	}
	m.container = nil
	m.ramRegion, m.imgRegion, m.fwRegion = nil, nil, nil
	return nil
}

// Destroy releases fastiovd tracking and the KVM VM, returning any
// demand-faulted pages to the host allocator. It is the compensation for
// Start.
func (m *MicroVM) Destroy(p *sim.Proc) {
	if m.Env.Lazy != nil {
		m.Env.Lazy.Release(m.VM.PID)
	}
	m.Env.KVM.DestroyVM(p, m.VM)
}

// Teardown releases everything: the device fd, DMA mappings, vhost
// registrations, fastiovd state, demand pages, and backing regions. It is
// best-effort: a failed unmap no longer aborts the remaining steps (demand
// pages and vhost registrations are still reclaimed), and the error is
// returned after everything reclaimable has been released.
func (m *MicroVM) Teardown(p *sim.Proc) error {
	m.CloseDevice(p)
	err := m.UnmapGuestMemory(p)
	m.vfdev = nil
	m.UnregisterVhost()
	m.Destroy(p)
	return err
}
