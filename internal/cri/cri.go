// Package cri models the container engine and secure-container runtime
// stack (Containerd + Kata in the paper's Fig. 4): sandbox lifecycle,
// network-namespace and cgroup setup, CNI invocation, microVM creation, VF
// attachment, guest boot, and the serial-vs-asynchronous VF driver
// initialization policy (§4.2.2).
package cri

import (
	"errors"
	"fmt"
	"time"

	"fastiov/internal/cni"
	"fastiov/internal/fault"
	"fastiov/internal/guest"
	"fastiov/internal/hypervisor"
	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
)

// Options selects the networking mode and the FastIOV optimization
// switches (the ablation axes of §6.2).
type Options struct {
	// AsyncVFInit is FastIOV's A optimization: overlap VF driver
	// initialization with the rest of startup instead of waiting serially.
	AsyncVFInit bool
	// SkipImageMap is FastIOV's S optimization: leave the microVM image
	// region out of DMA mapping.
	SkipImageMap bool
	// VDPA replaces the vendor passthrough control plane with vhost-vdpa
	// (§7's future-work direction): the VF is added as a vdpa device — a
	// per-device character device, so no devset-wide lock is taken — and
	// registered through the vhost framework. DMA mapping (and therefore
	// the zeroing question) is unchanged: vhost-vdpa pins and maps guest
	// memory just like VFIO.
	VDPA bool
	// Layout is the guest memory geometry.
	Layout hypervisor.Layout
	// Faults and Retry enable fault-aware startup: a timed-out CNI add is
	// re-invoked under the Retry policy, with backoff waits recorded as
	// retry telemetry spans. Inert at their zero values.
	Faults *fault.Injector
	Retry  fault.Policy
	// Track, when non-nil, observes every background proc the engine
	// spawns (the async vf-init threads). The fleet layer installs it so a
	// host crash can kill the host's in-flight background work; it must
	// only record the handle — calling back into the scheduler would
	// perturb the run.
	Track func(*sim.Proc)
}

// Engine is the container engine plus runtime for one host.
type Engine struct {
	env    *hypervisor.Env
	plugin cni.Plugin
	rec    *telemetry.Recorder
	opts   Options

	cgroupLock *sim.Mutex
	irqLock    *sim.Mutex
}

// NewEngine wires an engine; it charges the costs of env.Costs.
// cgroupLock and irqLock are host-global and shared with any other
// components that contend on them (e.g. the IPvtap plugin shares
// cgroupLock).
func NewEngine(env *hypervisor.Env, plugin cni.Plugin, rec *telemetry.Recorder, cgroupLock, irqLock *sim.Mutex, opts Options) *Engine {
	return &Engine{
		env: env, plugin: plugin, rec: rec,
		cgroupLock: cgroupLock, irqLock: irqLock,
		opts: opts,
	}
}

// Recorder returns the telemetry recorder.
func (e *Engine) Recorder() *telemetry.Recorder { return e.rec }

// SetRecorder swaps the telemetry recorder — churn experiments install a
// fresh recorder per wave so per-wave breakdowns stay separable.
func (e *Engine) SetRecorder(rec *telemetry.Recorder) { e.rec = rec }

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// SetTrack installs the background-proc observer after construction (the
// fleet wires it once it knows the host's index). Pure bookkeeping: the
// hook records proc handles and never calls back into the scheduler.
func (e *Engine) SetTrack(fn func(*sim.Proc)) { e.opts.Track = fn }

// Env returns the hypervisor environment.
func (e *Engine) Env() *hypervisor.Env { return e.env }

// Sandbox is one running secure container. Its microVM, guest and CNI
// result live inside it, so a start allocates one sandbox record rather
// than one per component; MVM, Guest and CNIRes point at them.
type Sandbox struct {
	ID     int
	MVM    *hypervisor.MicroVM
	Guest  *guest.Guest
	CNIRes *cni.Result

	// vfioRegisteredHere marks VFs the runtime itself rebound to vfio-pci
	// (the flawed-CNI path), which must be unwound at teardown.
	vfioRegisteredHere bool

	mvm    hypervisor.MicroVM
	guest  guest.Guest
	cniRes cni.Result
}

// step is one compensation: the release of one startup acquisition.
type step uint8

const (
	stepCNIDel step = iota
	stepVMDestroy
	stepVFIOUnregister
	stepDMAUnmap
	stepVhostUnregister
	stepDevClose
	numSteps
)

var stepNames = [numSteps]string{"cni-del", "vm-destroy", "vfio-unregister", "dma-unmap", "vhost-unregister", "dev-close"}

func (s step) String() string { return stepNames[s] }

// unwind is the compensation stack that makes startup transactional: every
// acquisition pushes the step that releases it, and a failure runs them in
// reverse (LIFO) order so each compensation runs against exactly the state
// its acquisition left behind. A start pushes each step at most once, so
// the stack is a fixed array: pushing costs no simulated time and no
// allocation, and the machinery is invisible on the success path.
type unwind struct {
	steps [numSteps]step
	n     int
}

func (u *unwind) push(s step) {
	u.steps[u.n] = s
	u.n++
}

func (u *unwind) depth() int { return u.n }

// rollback runs the compensations newest-first against sb. It is
// best-effort: a failed compensation is recorded and the remainder still
// run, so one bad release cannot strand every resource beneath it.
func (u *unwind) rollback(p *sim.Proc, e *Engine, sb *Sandbox) error {
	var errs []error
	for i := u.n - 1; i >= 0; i-- {
		if err := e.compensate(p, sb, u.steps[i]); err != nil {
			errs = append(errs, fmt.Errorf("rollback %s: %w", u.steps[i], err))
		}
	}
	u.n = 0
	return errors.Join(errs...)
}

// compensate runs one step's release of sb's acquisition.
func (e *Engine) compensate(p *sim.Proc, sb *Sandbox, s step) error {
	switch s {
	case stepCNIDel:
		return e.plugin.Del(p, sb.ID, sb.CNIRes)
	case stepVMDestroy:
		sb.MVM.Destroy(p)
	case stepVFIOUnregister:
		dev := sb.CNIRes.VF.Dev
		vd, ok := e.env.VFIO.Lookup(dev)
		if !ok {
			return fmt.Errorf("lost vfio registration for %s", dev.Addr)
		}
		if err := e.env.VFIO.Unregister(vd); err != nil {
			return err
		}
		dev.Unbind(p, e.env.VFIO.UnbindCost())
		sb.vfioRegisteredHere = false
	case stepDMAUnmap:
		return sb.MVM.UnmapGuestMemory(p)
	case stepVhostUnregister:
		sb.MVM.UnregisterVhost()
	case stepDevClose:
		sb.MVM.CloseDevice(p)
	}
	return nil
}

// RunPodSandbox executes the end-to-end network startup procedure of
// Fig. 4 for one sandbox and returns it ready for application launch.
// Every stage is recorded into the engine's telemetry recorder.
//
// Startup is transactional: each acquisition (CNI result, microVM,
// flawed-path vfio registration, DMA maps, vhost registrations, device fd)
// pushes its compensation step, and any error — genuine, injected, or a
// crash@<stage> plan clause — rolls the stack back in reverse order
// through the teardown primitives before returning, so a failed sandbox
// leaks nothing. Rollback time is recorded as the 8-rollback stage.
func (e *Engine) RunPodSandbox(p *sim.Proc, id int) (*Sandbox, error) {
	e.rec.MarkStart(id, p.Now())
	spanFn := func(stage telemetry.Stage, start, end time.Duration) {
		e.rec.Record(id, stage, start, end)
	}

	// Containerd: isolated network namespace, then cgroups.
	p.Sleep(e.env.Costs.NNSCreate)
	start := p.Now()
	e.cgroupLock.Lock(p)
	p.Sleep(e.env.Costs.CgroupHold)
	e.cgroupLock.Unlock(p)
	e.env.CPU.Use(p, 1, e.env.Costs.CgroupWork)
	e.rec.Record(id, telemetry.StageCgroup, start, p.Now())

	// CNI plugin: t_config. A timed-out add (injected fault) is retried
	// whole — the plugin fails before allocating a VF, so each attempt
	// starts clean; genuine errors abort immediately.
	var res cni.Result
	err := fault.Do(p, e.opts.Retry, e.opts.Faults, "cni-add", func() error {
		r, aerr := e.plugin.Add(p, id, spanFn)
		if aerr == nil {
			res = r
		}
		return aerr
	}, func(ws, we time.Duration) { e.rec.Record(id, telemetry.StageRetry, ws, we) })
	if err != nil {
		// Nothing was acquired: the plugin fails before allocating a VF.
		return nil, fmt.Errorf("sandbox %d: cni add: %w", id, err)
	}
	sb := &Sandbox{ID: id, cniRes: res}
	sb.CNIRes = &sb.cniRes

	var u unwind
	// fail rolls back every acquisition (newest first) and returns the
	// triggering error, joined with any rollback failures. The rollback
	// span makes recovery cost measurable per container.
	fail := func(err error) (*Sandbox, error) {
		if u.depth() > 0 {
			start := p.Now()
			if rerr := u.rollback(p, e, sb); rerr != nil {
				err = errors.Join(err, rerr)
			}
			e.rec.Record(id, telemetry.StageRollback, start, p.Now())
		}
		return nil, err
	}
	// crash evaluates the stage's crash@<stage> plan clause; a nil injector
	// or unconfigured site returns nil without a PRNG draw, keeping
	// fault-free runs byte-identical.
	crash := func(stage fault.CrashStage) error {
		if cerr := e.opts.Faults.Fail(fault.CrashSite(stage)); cerr != nil {
			return fmt.Errorf("sandbox %d: %s: %w", id, fault.CrashSite(stage), cerr)
		}
		return nil
	}

	u.push(stepCNIDel)
	if err := crash(fault.CrashCNI); err != nil {
		return fail(err)
	}

	// Kata runtime: start virtiofsd first (QEMU connects to it), then the
	// microVM.
	mvm := sb.mvm.Init(e.env, id, e.opts.Layout, spanFn)
	mvm.Start(p)
	sb.MVM = mvm
	u.push(stepVMDestroy)
	mvm.StartVirtioFSDaemon(p)
	if err := crash(fault.CrashMicroVM); err != nil {
		return fail(err)
	}

	vf := res.VF
	if vf != nil {
		vd := res.VFIODev
		if vd == nil {
			// Flawed-CNI path: the VF arrives bound to the host network
			// driver; unbind it and rebind vfio-pci (the dashed boxes of
			// Fig. 4 that §5 removes).
			vf.Dev.Unbind(p, e.env.VFIO.UnbindCost())
			vf.Dev.Bind(p, "vfio-pci", e.env.VFIO.BindCost())
			vd, err = e.env.VFIO.Register(vf.Dev)
			if err != nil {
				return fail(fmt.Errorf("sandbox %d: vfio register: %w", id, err))
			}
			sb.vfioRegisteredHere = true
			u.push(stepVFIOUnregister)
		}
		if err := crash(fault.CrashVFIOReg); err != nil {
			return fail(err)
		}
		// QEMU maps guest memory into the IOMMU domain (1-dma-ram,
		// 3-dma-image), then opens the device fd (4-vfio-dev) — the stage
		// order of Fig. 5. The compensation is pushed before the attempt
		// because a map can fail partway: UnmapGuestMemory unwinds whatever
		// subset exists and is a no-op if nothing was mapped.
		u.push(stepDMAUnmap)
		if err := mvm.MapGuestMemory(p, vd, e.opts.SkipImageMap); err != nil {
			return fail(fmt.Errorf("sandbox %d: map: %w", id, err))
		}
		if err := crash(fault.CrashDMA); err != nil {
			return fail(err)
		}
		mvm.RegisterVhost(p)
		// One step covers every vhost registration this VM accumulates
		// (the vdpa path adds a second): UnregisterVhost drops them all.
		u.push(stepVhostUnregister)
		if err := crash(fault.CrashVhost); err != nil {
			return fail(err)
		}
		if e.opts.VDPA {
			// vhost-vdpa control plane: per-device char dev plus a vhost
			// registration — the devset lock is never taken. Recorded
			// under 4-vfio-dev so the ablation tables stay comparable.
			start := p.Now()
			mvm.RegisterVDPA(p)
			e.rec.Record(id, telemetry.StageVFIODev, start, p.Now())
		} else {
			if err := mvm.OpenDevice(p); err != nil {
				return fail(fmt.Errorf("sandbox %d: open: %w", id, err))
			}
			u.push(stepDevClose)
		}
		if err := crash(fault.CrashDev); err != nil {
			return fail(err)
		}
	} else {
		if err := mvm.SetupMemoryDemand(p); err != nil {
			return fail(fmt.Errorf("sandbox %d: memory: %w", id, err))
		}
		mvm.RegisterVhost(p)
		u.push(stepVhostUnregister)
		if err := crash(fault.CrashVhost); err != nil {
			return fail(err)
		}
	}

	if err := mvm.LoadFirmware(p); err != nil {
		return fail(fmt.Errorf("sandbox %d: firmware: %w", id, err))
	}
	if err := crash(fault.CrashFirmware); err != nil {
		return fail(err)
	}

	g := sb.guest.Init(mvm, vf, e.irqLock)
	sb.Guest = g
	if err := g.Boot(p); err != nil {
		return fail(fmt.Errorf("sandbox %d: boot: %w", id, err))
	}
	// Last crash point: past here the async VF-init may be in flight and
	// the sandbox belongs to the caller — failure means StopPodSandbox,
	// not rollback.
	if err := crash(fault.CrashBoot); err != nil {
		return fail(err)
	}

	if vf != nil && e.opts.AsyncVFInit {
		// FastIOV: initialize the interface in the background; the agent
		// will gate application execution on readiness.
		vp := e.env.K.GoAtName(p.Now(), sim.DecimalName("vf-init-", id), g.InitVFDriver)
		if e.opts.Track != nil {
			e.opts.Track(vp)
		}
	} else {
		// Vanilla: the runtime waits for the interface before declaring
		// the sandbox ready (5-vf-driver), observing readiness through the
		// polling loop.
		start := p.Now()
		g.InitVFDriver(p)
		g.WaitIfaceReady(p)
		if vf != nil {
			e.rec.Record(id, telemetry.StageVFDriver, start, p.Now())
		}
	}

	e.rec.MarkEnd(id, p.Now())
	return sb, nil
}

// LaunchApp transfers imageBytes of container image into the guest,
// creates the container process, and waits for network readiness — the
// point where FastIOV's asynchronous init must have converged (§4.2.2).
func (e *Engine) LaunchApp(p *sim.Proc, sb *Sandbox, imageBytes int64) error {
	proactive := e.env.Lazy != nil
	if err := sb.Guest.LaunchApp(p, imageBytes, proactive); err != nil {
		return fmt.Errorf("sandbox %d: launch: %w", sb.ID, err)
	}
	sb.Guest.WaitIfaceReady(p)
	return nil
}

// StopPodSandbox tears the sandbox down, releasing the VF, microVM memory,
// and (on the flawed-CNI path) unwinding the driver rebinds. Teardown is
// best-effort: each step runs even when an earlier one failed, so a
// partial failure cannot strand the resources behind it, and every error
// is aggregated into the returned value with errors.Join.
func (e *Engine) StopPodSandbox(p *sim.Proc, sb *Sandbox) error {
	var errs []error
	if err := sb.MVM.Teardown(p); err != nil {
		errs = append(errs, fmt.Errorf("sandbox %d: teardown: %w", sb.ID, err))
	}
	if sb.vfioRegisteredHere {
		if sb.CNIRes.VF == nil {
			errs = append(errs, fmt.Errorf("sandbox %d: vfio unregister: VF missing from CNI result", sb.ID))
		} else if vd, ok := e.env.VFIO.Lookup(sb.CNIRes.VF.Dev); !ok {
			errs = append(errs, fmt.Errorf("sandbox %d: lost vfio registration", sb.ID))
		} else if err := e.env.VFIO.Unregister(vd); err != nil {
			errs = append(errs, fmt.Errorf("sandbox %d: vfio unregister: %w", sb.ID, err))
		} else {
			sb.CNIRes.VF.Dev.Unbind(p, e.env.VFIO.UnbindCost())
			sb.vfioRegisteredHere = false
		}
	}
	if err := e.plugin.Del(p, sb.ID, sb.CNIRes); err != nil {
		errs = append(errs, fmt.Errorf("sandbox %d: cni del: %w", sb.ID, err))
	}
	return errors.Join(errs...)
}
