package fastiovd

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
)

// moduleOps is the surface FuzzModuleOps drives; *Module and the reference
// *refModule both implement it.
type moduleOps interface {
	Register(p *sim.Proc, pid int, region *hostmem.Region)
	RegisterInstant(p *sim.Proc, pid int, region *hostmem.Region)
	OnEPTFault(p *sim.Proc, pid int, hpaPage int64)
	Release(pid int)
	CrashDaemon(p *sim.Proc)
	StartScrubber(interval time.Duration, pagesPerPass int)
	Tracked(pid int) int
	TrackedTotal() int
	ScrubQueueLen() int
}

func counters(m moduleOps) string {
	switch m := m.(type) {
	case *Module:
		return fmt.Sprintf("lazy=%d scrub=%d instant=%d corrupt=%d restarts=%d",
			m.LazyZeroed, m.ScrubZeroed, m.InstantZeroed, m.Corruptions, m.ScrubberRestarts)
	case *refModule:
		return fmt.Sprintf("lazy=%d scrub=%d instant=%d corrupt=%d restarts=%d",
			m.LazyZeroed, m.ScrubZeroed, m.InstantZeroed, m.Corruptions, m.ScrubberRestarts)
	}
	panic("unknown module")
}

const (
	opsPids    = 4
	opsRegions = 6
	opsPages   = 48 // host pages of 2 MB
)

// opsRig is one simulated host for an op script: a kernel, a small
// fragmented allocator (runs of at most 3 pages, so regions span several
// runs), a fixed set of regions, and the module under test. Its log records
// every probe event with the queue length and tracked total at that
// instant, every page the module zeroes in order, and the observable state
// after each phase.
type opsRig struct {
	k       *sim.Kernel
	mem     *hostmem.Allocator
	mod     moduleOps
	regions [opsRegions]*hostmem.Region
	zeroed  []bool
	log     strings.Builder

	lastFault *sim.Proc
}

func newOpsRig(newMod func(*sim.Kernel, *hostmem.Allocator) moduleOps) *opsRig {
	r := &opsRig{k: sim.NewKernel(1), zeroed: make([]bool, opsPages)}
	cfg := hostmem.DefaultConfig()
	cfg.TotalBytes = opsPages * hostmem.PageSize2M
	cfg.MaxRunPages = 3
	r.mem = hostmem.New(r.k, cfg)
	r.mod = newMod(r.k, r.mem)
	r.k.Go("setup", func(p *sim.Proc) {
		for i := range r.regions {
			r.regions[i], _ = r.mem.Allocate(p, int64(2+i)*hostmem.PageSize2M)
		}
	})
	r.k.Run()
	r.k.SetProbe(func(at time.Duration, ev sim.ProbeEvent) {
		r.scanZeroed()
		fmt.Fprintf(&r.log, "%v %v %v %q %s q=%d t=%d\n", at, ev.Kind, ev.Class, ev.Obj,
			ev.Proc.Name(), r.mod.ScrubQueueLen(), r.mod.TrackedTotal())
	})
	return r
}

// scanZeroed logs pages that became zeroed since the last scan. Every
// zeroing finishes with a membw release probe before the page is marked,
// and the next zeroing's release comes after the mark, so scanning at each
// probe event recovers the exact zeroing order.
func (r *opsRig) scanZeroed() {
	for pg := int64(0); pg < opsPages; pg++ {
		z := r.mem.State(pg) == hostmem.Zeroed
		if z && !r.zeroed[pg] {
			fmt.Fprintf(&r.log, "zeroed %d\n", pg)
		}
		r.zeroed[pg] = z
	}
}

// page picks the i-th page of region ri, if it has one.
func (r *opsRig) page(ri, i int) int64 {
	reg := r.regions[ri]
	if reg == nil {
		return 0
	}
	n := int(reg.PageCount())
	i %= n
	for _, run := range reg.Runs {
		if int64(i) < run.Count {
			return run.Start + int64(i)
		}
		i -= int(run.Count)
	}
	panic("unreachable")
}

func (r *opsRig) logState(tag string) {
	r.scanZeroed()
	fmt.Fprintf(&r.log, "%s now=%v q=%d total=%d %s", tag, r.k.Now(),
		r.mod.ScrubQueueLen(), r.mod.TrackedTotal(), counters(r.mod))
	for pid := 1; pid <= opsPids; pid++ {
		fmt.Fprintf(&r.log, " pid%d=%d", pid, r.mod.Tracked(pid))
	}
	r.log.WriteString("\n")
}

// runPhase starts the scrubber, runs the phase's ops as procs at their
// offsets, and stops the kernel at the deadline, unwinding whatever is
// still mid-zero (the end-of-phase reaping the rollback path exists for).
func (r *opsRig) runPhase(ops [][4]byte, dt time.Duration, interval time.Duration, perPass int) {
	r.mod.StartScrubber(interval, perPass)
	deadline := r.k.Now() + dt
	r.k.Go("idle", func(p *sim.Proc) { p.Sleep(dt) })
	for _, op := range ops {
		off := time.Duration(op[0]/16%8) * 50 * time.Microsecond
		pid := int(op[1])%opsPids + 1
		ri := int(op[2]) % opsRegions
		name := fmt.Sprintf("op%d", op[0]%16)
		proc := r.k.Go(name, func(p *sim.Proc) {
			p.Sleep(off)
			switch op[0] % 16 {
			case 0, 1:
				if reg := r.regions[ri]; reg != nil {
					r.mod.Register(p, pid, reg)
				}
			case 2:
				if reg := r.regions[ri]; reg != nil {
					r.mod.RegisterInstant(p, pid, reg)
				}
			case 3, 4, 5:
				r.mod.OnEPTFault(p, pid, r.page(ri, int(op[3])))
			case 6:
				r.mod.Release(pid)
			case 7:
				r.mod.CrashDaemon(p)
			case 8:
				r.mem.WriteData(r.page(ri, int(op[3])))
			case 9:
				if r.lastFault != nil {
					r.k.Kill(r.lastFault)
				}
			case 10:
				// Recycle: the region's pages go back dirty and a
				// same-sized region is allocated, possibly reusing pages
				// another pid still tracks or has in flight.
				if reg := r.regions[ri]; reg != nil {
					r.mem.Free(p, reg)
					r.regions[ri], _ = r.mem.Allocate(p, reg.Bytes)
				}
			}
		})
		if k := op[0] % 16; k >= 3 && k <= 5 {
			r.lastFault = proc
		}
	}
	func() {
		defer func() {
			if v := recover(); v != nil {
				fmt.Fprintf(&r.log, "panic: %v\n", v)
			}
		}()
		r.k.RunFor(deadline)
	}()
	r.lastFault = nil
	r.logState("phase")
}

// runOps interprets script as a scrubber configuration byte followed by
// 4-byte ops; op kind 11-15 ends the current phase with a length chosen by
// the op. It returns the rig's log.
func runOps(script []byte, newMod func(*sim.Kernel, *hostmem.Allocator) moduleOps) string {
	r := newOpsRig(newMod)
	if len(script) == 0 {
		return r.log.String()
	}
	// The longest interval keeps the scrubber asleep for whole scripts, so
	// fault-path claims race nothing.
	interval := []time.Duration{100 * time.Microsecond, 300 * time.Microsecond, time.Millisecond, time.Second}[script[0]%4]
	perPass := int(script[0]/4%3) + 1
	var phase [][4]byte
	lengths := []time.Duration{150 * time.Microsecond, 250 * time.Microsecond, 600 * time.Microsecond, 2 * time.Millisecond, 10 * time.Millisecond}
	for i := 1; i+4 <= len(script) && i < 1+4*64; i += 4 {
		var op [4]byte
		copy(op[:], script[i:i+4])
		if op[0]%16 >= 11 {
			r.runPhase(phase, lengths[op[0]%16-11], interval, perPass)
			phase = phase[:0]
			continue
		}
		phase = append(phase, op)
	}
	r.runPhase(phase, lengths[len(lengths)-1], interval, perPass)
	return r.log.String()
}

func newModuleOps(k *sim.Kernel, mem *hostmem.Allocator) moduleOps { return New(k, mem) }
func newRefOps(k *sim.Kernel, mem *hostmem.Allocator) moduleOps    { return newRef(k, mem) }

// checkAgainstRef runs script on the module and the reference model and
// fails at the first line where their logs differ.
func checkAgainstRef(t *testing.T, script []byte) {
	t.Helper()
	got := runOps(script, newModuleOps)
	want := runOps(script, newRefOps)
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("script %x diverges from the reference at log line %d:\n got: %s\nwant: %s", script, i, g[i], w[i])
		}
	}
	t.Fatalf("script %x: log lengths differ (%d vs %d lines)", script, len(g), len(w))
}

// Named scripts for the cases the rollback and in-flight bookkeeping exist
// for. A script is a scrubber configuration byte, then ops of
// {kind + 16*offset slot, pid, region, page}; offsets are in 50us slots
// and zeroing one page takes ~195us. Config byte 3 keeps the scrubber
// asleep.
var opsScripts = map[string][]byte{
	// A claim unwound mid-zero after Release must not resurrect the table:
	// once at the phase deadline, once by killing the claimer.
	"unwind-after-release": {3,
		0x00, 0, 0, 0, // register pid 1, region 0
		0x0b, 0, 0, 0, // end phase (150us)
		0x03, 0, 0, 1, // fault pid 1 on page 1 of region 0
		0x16, 0, 0, 0, // release pid 1 at 50us, mid-zero
		0x0b, 0, 0, 0, // end phase at 150us: the claim unwinds
		0x00, 0, 0, 0, // re-register pid 1
		0x13, 0, 0, 0, // fault pid 1 on page 0 at 50us
		0x26, 0, 0, 0, // release pid 1 at 100us
		0x39, 0, 0, 0, // kill the claimer at 150us
		0x0d, 0, 0, 0, // end phase (600us)
	},
	// After a re-Register the unwound claim is restored: once for a page
	// the new registration does not cover, once for one it does.
	"unwind-after-reregister": {3,
		0x00, 1, 1, 0, // register pid 2, region 1
		0x0b, 0, 0, 0,
		0x03, 1, 1, 1, // fault pid 2 on page 1 of region 1
		0x16, 1, 0, 0, // release pid 2 at 50us
		0x20, 1, 2, 0, // re-register pid 2 with region 2 at 100us
		0x39, 0, 0, 0, // kill the claimer at 150us
		0x0c, 0, 0, 0, // end phase (250us)
		0x03, 1, 2, 0, // fault pid 2 on page 0 of region 2
		0x16, 1, 0, 0, // release at 50us
		0x20, 1, 2, 0, // re-register region 2 at 100us
		0x0b, 0, 0, 0, // end phase at 150us: the claim unwinds
		0x0e, 0, 0, 0, // end phase (2ms)
	},
	// Two pids track one page: the later claim replaces the in-flight
	// marker, the earlier claim's completion removes it, so a fault before
	// that completion waits on the later claim and one after it does not
	// wait at all.
	"shared-page-in-flight": {3,
		0x00, 0, 2, 0, // pids 1 and 2 register region 2
		0x00, 1, 2, 0,
		0x0b, 0, 0, 0,
		0x03, 0, 2, 0, // pid 1 faults page 0 at 0
		0x13, 1, 2, 0, // pid 2 faults page 0 at 50us
		0x23, 2, 2, 0, // pid 3 faults page 0 at 100us: waits
		0x43, 3, 2, 0, // pid 4 faults page 0 at 200us: no wait
		0x0d, 0, 0, 0,
	},
	// Daemon crash with a hypervisor-written tracked page, then the
	// region's pages go back dirty and a new owner registers them.
	"crash-and-recycle": {4,
		0x00, 0, 3, 0,
		0x00, 2, 4, 0,
		0x08, 0, 3, 2, // hypervisor write to a tracked page
		0x17, 0, 0, 0, // daemon crash at 50us
		0x0c, 0, 0, 0,
		0x0a, 0, 3, 0, // recycle region 3
		0x10, 3, 3, 0, // pid 4 registers it at 50us
		0x26, 0, 0, 0, // pid 1 released at 100us
		0x0f, 0, 0, 0,
	},
}

func TestModuleOpsMatchReference(t *testing.T) {
	for name, script := range opsScripts {
		t.Run(name, func(t *testing.T) { checkAgainstRef(t, script) })
	}
}

// FuzzModuleOps drives random Register / EPT-fault / Release /
// re-Register / CrashDaemon / kill / scrubber-pass sequences through the
// module and the reference model on identical hosts. Their logs — every
// probe event with the scrub-queue length and tracked total at that
// instant, the order of zeroed pages, and per-pid tracked counts and the
// lazy/scrub/instant/corruption counters after each phase — must match.
func FuzzModuleOps(f *testing.F) {
	for _, script := range opsScripts {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { checkAgainstRef(t, script) })
}
