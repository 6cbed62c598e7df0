package cri

import (
	"strings"
	"testing"
	"time"

	"fastiov/internal/cni"
	"fastiov/internal/cost"
	"fastiov/internal/fastiovd"
	"fastiov/internal/fault"
	"fastiov/internal/hostmem"
	"fastiov/internal/hypervisor"
	"fastiov/internal/iommu"
	"fastiov/internal/kvm"
	"fastiov/internal/nic"
	"fastiov/internal/pci"
	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
	"fastiov/internal/vfio"
)

type rig struct {
	k    *sim.Kernel
	mem  *hostmem.Allocator
	card *nic.NIC
	eng  *Engine
	rec  *telemetry.Recorder
	lazy *fastiovd.Module
}

type rigConfig struct {
	rebind bool
	async  bool
	skip   bool
	lazy   bool
	noNet  bool
	// plan installs a fault-injection plan on the engine (crash tests).
	plan *fault.Plan
}

func newRig(t *testing.T, cfg rigConfig) *rig {
	t.Helper()
	k := sim.NewKernel()
	c := cost.Default()
	memCfg := hostmem.DefaultConfig()
	memCfg.TotalBytes = 8 << 30
	mem := hostmem.New(k, memCfg, c)
	topo := pci.NewTopology()
	card := nic.New(k, topo, nic.DefaultConfig(), &c)
	if err := card.CreateVFs(8, topo); err != nil {
		t.Fatal(err)
	}
	mode := vfio.LockGlobal
	if cfg.lazy {
		mode = vfio.LockParentChild
	}
	drv := vfio.New(k, topo, mem, iommu.New(k, mem.PageSize(), &c), mode, &c)
	kv := kvm.New(k, mem, &c)
	var mod *fastiovd.Module
	if cfg.lazy {
		mod = fastiovd.New(k, mem, &c)
		kv.Hook = mod
	}
	if !cfg.rebind && !cfg.noNet {
		card.VFBlock().BindBoot("vfio-pci")
		if err := drv.RegisterVFs(card.VFBlock()); err != nil {
			t.Fatal(err)
		}
	}
	env := hypervisor.NewEnv(k, sim.NewRand(1), mem, kv, drv, mod, sim.NewResource("cpu", 16), &c)
	rtnl := sim.NewMutex("rtnl")
	cg := sim.NewMutex("cgroup")
	irq := sim.NewMutex("irq")
	var plugin cni.Plugin
	if cfg.noNet {
		plugin = cni.NoNetwork{}
	} else {
		plugin = cni.NewSRIOV("sriov", card, drv, rtnl, &c, cfg.rebind)
	}
	rec := telemetry.NewRecorder()
	layout := hypervisor.Layout{RAMBytes: 64 << 20, ImageBytes: 32 << 20, FirmwareBytes: 8 << 20}
	eng := NewEngine(env, plugin, rec, cg, irq, Options{
		AsyncVFInit:  cfg.async,
		SkipImageMap: cfg.skip,
		Layout:       layout,
		Faults:       fault.NewInjector(1, cfg.plan),
		Retry:        fault.DefaultPolicy(),
	})
	return &rig{k: k, mem: mem, card: card, eng: eng, rec: rec, lazy: mod}
}

func TestSandboxLifecycle(t *testing.T) {
	r := newRig(t, rigConfig{})
	freePages := r.mem.FreePages()
	r.k.Go("t", func(p *sim.Proc) {
		sb, err := r.eng.RunPodSandbox(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sb.CNIRes.VF == nil || !sb.CNIRes.VF.Assigned {
			t.Error("no assigned VF")
		}
		if err := r.eng.StopPodSandbox(p, sb); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.mem.FreePages() != freePages {
		t.Errorf("pages leaked")
	}
	if r.card.FreeVFs() != 8 {
		t.Errorf("VFs leaked: %d free", r.card.FreeVFs())
	}
}

func TestRebindLifecycle(t *testing.T) {
	r := newRig(t, rigConfig{rebind: true})
	r.k.Go("t", func(p *sim.Proc) {
		sb, err := r.eng.RunPodSandbox(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !sb.vfioRegisteredHere {
			t.Error("rebind path did not register with VFIO")
		}
		if sb.CNIRes.VF.Dev.Driver() != "vfio-pci" {
			t.Errorf("driver = %q", sb.CNIRes.VF.Dev.Driver())
		}
		if err := r.eng.StopPodSandbox(p, sb); err != nil {
			t.Fatal(err)
		}
		if sb.CNIRes.VF.Dev.Driver() != "" {
			t.Errorf("driver after stop = %q (should be unbound for next rebind)", sb.CNIRes.VF.Dev.Driver())
		}
	})
	r.k.Run()
}

func TestAllStagesRecorded(t *testing.T) {
	r := newRig(t, rigConfig{})
	r.k.Go("t", func(p *sim.Proc) {
		if _, err := r.eng.RunPodSandbox(p, 0); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	want := []telemetry.Stage{
		telemetry.StageCgroup, telemetry.StageDMARAM, telemetry.StageVirtioFS,
		telemetry.StageDMAImage, telemetry.StageVFIODev, telemetry.StageVFDriver,
	}
	for _, st := range want {
		if r.rec.StageTime(0, st) <= 0 {
			t.Errorf("stage %s not recorded", st)
		}
	}
	if r.rec.Total(0) <= 0 {
		t.Error("no total recorded")
	}
}

func TestSkipImageOmitsStage(t *testing.T) {
	r := newRig(t, rigConfig{skip: true, lazy: true})
	r.k.Go("t", func(p *sim.Proc) {
		if _, err := r.eng.RunPodSandbox(p, 0); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.rec.StageTime(0, telemetry.StageDMAImage) != 0 {
		t.Error("3-dma-image recorded despite skip")
	}
}

func TestAsyncHidesDriverInitFromStartup(t *testing.T) {
	serial := newRig(t, rigConfig{})
	async := newRig(t, rigConfig{async: true})
	var serialTotal, asyncTotal time.Duration
	serial.k.Go("t", func(p *sim.Proc) {
		if _, err := serial.eng.RunPodSandbox(p, 0); err != nil {
			t.Fatal(err)
		}
	})
	serial.k.Run()
	serialTotal = serial.rec.Total(0)
	async.k.Go("t", func(p *sim.Proc) {
		if _, err := async.eng.RunPodSandbox(p, 0); err != nil {
			t.Fatal(err)
		}
	})
	async.k.Run()
	asyncTotal = async.rec.Total(0)
	if asyncTotal >= serialTotal {
		t.Errorf("async startup (%v) should be shorter than serial (%v)", asyncTotal, serialTotal)
	}
	if async.rec.StageTime(0, telemetry.StageVFDriver) != 0 {
		t.Error("async mode recorded a 5-vf-driver wait")
	}
}

func TestLaunchAppWaitsForIfaceUnderAsync(t *testing.T) {
	r := newRig(t, rigConfig{async: true})
	r.k.Go("t", func(p *sim.Proc) {
		sb, err := r.eng.RunPodSandbox(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.eng.LaunchApp(p, sb, 16<<20); err != nil {
			t.Fatal(err)
		}
		if !sb.Guest.IfaceReady().Fired() {
			t.Error("app launched before interface was ready")
		}
		if !sb.CNIRes.VF.LinkUp {
			t.Error("link not up at app start")
		}
	})
	r.k.Run()
}

func TestNoNetworkSandbox(t *testing.T) {
	r := newRig(t, rigConfig{noNet: true})
	r.k.Go("t", func(p *sim.Proc) {
		sb, err := r.eng.RunPodSandbox(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sb.CNIRes.VF != nil {
			t.Error("no-net sandbox got a VF")
		}
		if err := r.eng.StopPodSandbox(p, sb); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.rec.VFRelatedTime(0) != 0 {
		t.Error("no-net sandbox recorded VF time")
	}
}

func TestLazySandboxNoViolations(t *testing.T) {
	r := newRig(t, rigConfig{lazy: true, skip: true, async: true})
	r.k.Go("t", func(p *sim.Proc) {
		sb, err := r.eng.RunPodSandbox(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.eng.LaunchApp(p, sb, 16<<20); err != nil {
			t.Fatal(err)
		}
	})
	r.k.Run()
	if r.mem.Violations != 0 {
		t.Errorf("violations = %d", r.mem.Violations)
	}
	if r.lazy.Corruptions != 0 {
		t.Errorf("corruptions = %d", r.lazy.Corruptions)
	}
}

// rigCounters snapshots every conservation counter the rig can observe.
type rigCounters struct {
	freeVFs, freePages, registered, opens, vms, vhost int64
}

func (r *rig) counters() rigCounters {
	return rigCounters{
		freeVFs:    int64(r.card.FreeVFs()),
		freePages:  r.mem.FreePages(),
		registered: int64(r.eng.env.VFIO.RegisteredCount()),
		opens:      int64(r.eng.env.VFIO.TotalOpens()),
		vms:        int64(r.eng.env.KVM.LiveVMs()),
		vhost:      int64(r.eng.env.VhostRegistrations()),
	}
}

// TestCrashRollbackLeaksNothing drives a deterministic crash through every
// stage boundary, on both the fixed and the flawed-rebinding CNI path, and
// checks the transactional property: the failed start returns an injected
// fault, records a rollback span, and restores every conservation counter
// to its pre-start value.
func TestCrashRollbackLeaksNothing(t *testing.T) {
	paths := []struct {
		name string
		cfg  rigConfig
	}{
		{"fixed", rigConfig{lazy: true, skip: true, async: true}},
		{"rebind", rigConfig{rebind: true}},
	}
	for _, path := range paths {
		for _, stage := range fault.CrashStages() {
			t.Run(path.name+"/"+string(stage), func(t *testing.T) {
				cfg := path.cfg
				pl := fault.NewPlan()
				pl.Set(fault.CrashSite(stage), fault.Rule{EveryN: 1})
				cfg.plan = pl
				r := newRig(t, cfg)
				before := r.counters()
				r.k.Go("t", func(p *sim.Proc) {
					sb, err := r.eng.RunPodSandbox(p, 0)
					if err == nil {
						t.Fatalf("crash@%s: startup succeeded", stage)
					}
					if sb != nil {
						t.Errorf("crash@%s: failed startup returned a sandbox", stage)
					}
					if !fault.IsFault(err) {
						t.Errorf("crash@%s: error not an injected fault: %v", stage, err)
					}
				})
				r.k.Run()
				if after := r.counters(); after != before {
					t.Errorf("crash@%s leaked: before %+v, after %+v", stage, before, after)
				}
				rollbacks := 0
				for id := 0; id < r.rec.Len(); id++ {
					if r.rec.Span(id).Name == string(telemetry.StageRollback) {
						rollbacks++
					}
				}
				if rollbacks != 1 {
					t.Errorf("crash@%s recorded %d rollback spans, want 1", stage, rollbacks)
				}
				if r.rec.Total(0) != 0 {
					t.Errorf("crash@%s: failed container recorded a total", stage)
				}
			})
		}
	}
}

// TestStopPodSandboxBestEffort drives the teardown path through partial
// failures: every step must still run and every error must surface in the
// aggregated return value.
func TestStopPodSandboxBestEffort(t *testing.T) {
	cases := []struct {
		name string
		cfg  rigConfig
		// sabotage corrupts the sandbox in-sim before StopPodSandbox.
		sabotage func(t *testing.T, r *rig, p *sim.Proc, sb *Sandbox)
		wantSubs []string
	}{
		{
			name: "clean",
			cfg:  rigConfig{rebind: true},
		},
		{
			// A second open on the device fd: teardown closes the VM's own
			// open, the stray one blocks Unregister — but CNI Del must still
			// run and release the VF.
			name: "device held open",
			cfg:  rigConfig{rebind: true},
			sabotage: func(t *testing.T, r *rig, p *sim.Proc, sb *Sandbox) {
				vd, ok := r.eng.env.VFIO.Lookup(sb.CNIRes.VF.Dev)
				if !ok {
					t.Fatal("device not registered")
				}
				r.eng.env.VFIO.Open(p, vd)
			},
			wantSubs: []string{"vfio unregister"},
		},
		{
			// A corrupted CNI result: Del fails, but the microVM teardown
			// already ran.
			name: "missing VF in result",
			cfg:  rigConfig{},
			sabotage: func(t *testing.T, r *rig, p *sim.Proc, sb *Sandbox) {
				sb.CNIRes.VF = nil
			},
			wantSubs: []string{"cni del"},
		},
		{
			name: "multiple failures aggregated",
			cfg:  rigConfig{rebind: true},
			sabotage: func(t *testing.T, r *rig, p *sim.Proc, sb *Sandbox) {
				vd, ok := r.eng.env.VFIO.Lookup(sb.CNIRes.VF.Dev)
				if !ok {
					t.Fatal("device not registered")
				}
				r.eng.env.VFIO.Open(p, vd)
				sb.CNIRes.VF = nil
			},
			wantSubs: []string{"vfio unregister", "cni del"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, c.cfg)
			r.k.Go("t", func(p *sim.Proc) {
				sb, err := r.eng.RunPodSandbox(p, 0)
				if err != nil {
					t.Fatal(err)
				}
				if c.sabotage != nil {
					c.sabotage(t, r, p, sb)
				}
				err = r.eng.StopPodSandbox(p, sb)
				if len(c.wantSubs) == 0 {
					if err != nil {
						t.Fatalf("clean stop errored: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatalf("sabotaged stop returned nil")
				}
				for _, sub := range c.wantSubs {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("error %q missing %q", err, sub)
					}
				}
				if len(c.wantSubs) > 1 {
					joined, ok := err.(interface{ Unwrap() []error })
					if !ok || len(joined.Unwrap()) < len(c.wantSubs) {
						t.Errorf("error does not aggregate %d failures: %v", len(c.wantSubs), err)
					}
				}
				// Best-effort guarantee: the microVM is gone even when a later
				// step failed.
				if n := r.eng.env.KVM.LiveVMs(); n != 0 {
					t.Errorf("%d live VMs after stop", n)
				}
			})
			r.k.Run()
		})
	}
}

func TestConcurrentSandboxesDistinctVFs(t *testing.T) {
	r := newRig(t, rigConfig{})
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		i := i
		r.k.Go("s", func(p *sim.Proc) {
			sb, err := r.eng.RunPodSandbox(p, i)
			if err != nil {
				t.Error(err)
				return
			}
			name := sb.CNIRes.VF.Dev.Addr.String()
			if seen[name] {
				t.Errorf("VF %s assigned twice", name)
			}
			seen[name] = true
		})
	}
	r.k.Run()
	if len(seen) != 4 {
		t.Errorf("%d distinct VFs", len(seen))
	}
}
