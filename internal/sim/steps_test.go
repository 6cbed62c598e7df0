package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// stepWorld is the shared state of one FuzzStepsMatchSleep run: a
// two-unit resource, four events and the script's procs.
type stepWorld struct {
	k     *Kernel
	res   *Resource
	evs   [4]*Event
	procs []*Proc
}

// stepProg is one proc's program: two-byte ops {kind, arg}. Step runs the
// non-blocking ops up to the next sleep; an op that blocks ends the chain
// and runs on the coroutine (block), after which the program re-enters.
// The same program runs either as a Sleep loop (runSleep) or through
// Proc.Steps (runSteps), so any difference between the two runs is the
// kernel's.
type stepProg struct {
	w    *stepWorld
	p    *Proc
	ops  []byte
	pc   int
	held int64 // resource units held
	// blk is the blocking op that ended the chain (0 when none) and arg
	// its argument.
	blk, arg byte
}

const (
	opSleep   = iota // sleep arg%4 us (0 is a yield)
	opSleep2         // same, for weight
	opRelease        // release every held unit, then sleep arg%3 us
	opAcquire        // take a unit: TryAcquire in the step, Acquire on the coroutine when contended
	opFire           // fire event arg%4, then sleep arg%2 us
	opAwait          // await event arg%4 on the coroutine
	opKill           // kill proc arg%n (not itself), then sleep 1 us
	opSpawn          // arg%8 == 0: panic; otherwise spawn a child that sleeps arg%4 us
	opKinds
)

func us(n byte) Duration { return Duration(n) * time.Microsecond }

func (g *stepProg) Step() (Duration, bool) {
	w, p := g.w, g.p
	for g.pc+1 < len(g.ops) {
		kind, arg := g.ops[g.pc]%opKinds, g.ops[g.pc+1]
		g.pc += 2
		switch kind {
		case opSleep, opSleep2:
			return us(arg % 4), true
		case opRelease:
			if g.held > 0 {
				w.res.Release(p, g.held)
				g.held = 0
			}
			return us(arg % 3), true
		case opAcquire:
			if w.res.TryAcquire(p, 1) {
				g.held++
				return us(arg % 3), true
			}
			g.blk = opAcquire
			return 0, false
		case opFire:
			w.evs[arg%4].Fire(p)
			return us(arg % 2), true
		case opAwait:
			g.blk, g.arg = opAwait, arg
			return 0, false
		case opKill:
			if q := w.procs[int(arg)%len(w.procs)]; q != p {
				w.k.Kill(q)
			}
			return us(1), true
		case opSpawn:
			if arg%8 == 0 {
				panic(fmt.Sprintf("step panic in %s at op %d", p.Name(), g.pc/2-1))
			}
			w.k.Go("child", func(c *Proc) { c.Sleep(us(arg % 4)) })
			return 0, true
		}
	}
	return 0, false
}

// block runs the op that ended the chain on the coroutine and reports
// whether the program has more to run.
func (g *stepProg) block() bool {
	switch g.blk {
	case opAcquire:
		g.w.res.Acquire(g.p, 1)
		g.held++
	case opAwait:
		g.w.evs[g.arg%4].Await(g.p)
	default:
		return false
	}
	g.blk = 0
	return true
}

func (g *stepProg) runSleep(p *Proc) {
	for {
		for {
			d, more := g.Step()
			if !more {
				break
			}
			p.Sleep(d)
		}
		if !g.block() {
			return
		}
	}
}

func (g *stepProg) runSteps(p *Proc) {
	for {
		p.Steps(g)
		if !g.block() {
			return
		}
	}
}

// runStepScript interprets script — a header byte (proc count, daemon
// mask), a RunFor byte, then ops dealt to the procs round-robin — with the
// procs' programs run as Sleep loops or through Steps. It returns the probe
// stream, any panic out of Run, the Clock triple and each proc's finish
// time.
func runStepScript(script []byte, steps bool) string {
	var b strings.Builder
	if len(script) < 2 {
		return ""
	}
	k := NewKernel(1)
	w := &stepWorld{k: k, res: NewResource("res", 2)}
	for i := range w.evs {
		w.evs[i] = NewEvent(k, fmt.Sprintf("ev%d", i))
	}
	k.SetProbe(func(at Duration, ev ProbeEvent) {
		waker := 0
		if ev.Waker != nil {
			waker = ev.Waker.ID()
		}
		fmt.Fprintf(&b, "%v %v %v %q p%d w%d n%d\n", at, ev.Kind, ev.Class, ev.Obj, ev.Proc.ID(), waker, ev.N)
	})
	n := 1 + int(script[0]%4)
	progs := make([]*stepProg, n)
	for i := range progs {
		progs[i] = &stepProg{w: w}
	}
	ops := script[2:]
	for j := 0; j+1 < len(ops) && j < 128; j += 2 {
		g := progs[(j/2)%n]
		g.ops = append(g.ops, ops[j], ops[j+1])
	}
	finish := make([]Duration, n)
	for i, g := range progs {
		body := func(p *Proc) {
			g.p = p
			defer func() {
				if g.held > 0 {
					w.res.Release(p, g.held)
				}
				finish[i] = k.Now()
			}()
			if steps {
				g.runSteps(p)
			} else {
				g.runSleep(p)
			}
		}
		name := fmt.Sprintf("prog%d", i)
		if script[0]>>2&(1<<i) != 0 {
			w.procs = append(w.procs, k.GoDaemon(name, body))
		} else {
			w.procs = append(w.procs, k.Go(name, body))
		}
	}
	deadline := []Duration{-1, 3 * time.Microsecond, 7 * time.Microsecond, 20 * time.Microsecond}[script[1]%4]
	func() {
		defer func() {
			if v := recover(); v != nil {
				fmt.Fprintf(&b, "panic: %v\n", v)
			}
		}()
		k.RunFor(deadline)
	}()
	now, seq, procSeq := k.Clock()
	fmt.Fprintf(&b, "clock %v %d %d finish %v\n", now, seq, procSeq, finish)
	return b.String()
}

// checkStepsMatchSleep fails at the first line where the Steps run of
// script differs from its Sleep-loop run.
func checkStepsMatchSleep(t *testing.T, script []byte) {
	t.Helper()
	want := runStepScript(script, false)
	got := runStepScript(script, true)
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("script %x: Steps diverges from Sleep at line %d:\n got: %s\nwant: %s", script, i, g[i], w[i])
		}
	}
	t.Fatalf("script %x: line counts differ (%d Steps vs %d Sleep)", script, len(g), len(w))
}

// stepScripts are named seeds for the cases Steps must reproduce. Each is
// {procs-1 + 4*daemon mask, deadline choice, then {kind, arg} ops dealt
// round-robin}.
var stepScripts = map[string][]byte{
	// One proc alone: every sleep takes the inline fast path.
	"inline": {0, 0, opSleep, 1, opSleep, 3, opSleep, 0, opSleep, 2},
	// Two procs sleeping in lockstep: every wake is queued and the chain
	// runs on the kernel stack, with equal-time wakes ordered by seq.
	"queued": {1, 0, opSleep, 1, opSleep, 1, opSleep, 1, opSleep, 1, opSleep, 2, opSleep, 1},
	// Steps that Release and Fire wake procs blocked on the coroutine:
	// prog0 holds both units, prog1 falls back to Acquire and prog2 to
	// Await, then re-enter their chains.
	"release-fire-wake": {2, 0,
		opAcquire, 1, opAcquire, 0, opAwait, 1,
		opAcquire, 2, opSleep, 1, opSleep, 1,
		opRelease, 2, opSleep, 1, opSleep, 2,
		opFire, 1, opSleep, 1, opSleep, 1},
	// prog1 kills prog0 mid-chain while prog0 holds a unit: the deferred
	// release runs under Kill and wakes the unit's next waiter.
	"kill-mid-chain": {2, 0,
		opAcquire, 0, opSleep, 1, opAcquire, 0,
		opSleep, 3, opKill, 0, opAcquire, 1,
		opSleep, 3, opSleep, 1, opSleep, 1},
	// The RunFor cutoff lands mid-chain; prog1 is a daemon reaped by the
	// abort while holding a unit.
	"runfor-cut": {1 + 4*2, 2,
		opSleep, 2, opAcquire, 2, opSleep, 3, opSleep, 3, opSleep, 3, opSleep, 3},
	// A step panics on the kernel stack after queued sleeps; the panic is
	// re-raised from Run after the proc's deferred release.
	"panic": {1, 0,
		opAcquire, 1, opSleep, 1, opSleep, 1, opSleep, 1, opSpawn, 0, opSleep, 1},
	// Fallback then re-entry, repeatedly, with children spawned from steps.
	"fallback-reenter": {2, 3,
		opAcquire, 0, opAcquire, 0, opAcquire, 0,
		opSleep, 2, opSpawn, 1, opSpawn, 2,
		opRelease, 1, opAwait, 2, opFire, 2,
		opAcquire, 1, opRelease, 0, opAcquire, 1},
	// prog0 exits at 1us; prog1 then spawns children, which run on the
	// coroutine prog0's body returned from.
	"spawn-after-exit": {1, 0,
		opSleep, 1, opSleep, 3, opSleep, 0, opSpawn, 1,
		opSleep, 0, opSpawn, 3, opSleep, 0, opSleep, 2},
	// prog1 kills prog0 mid-chain, then spawns children: the killed
	// coroutine ends and the children need fresh ones.
	"spawn-after-kill": {1, 0,
		opSleep, 3, opSleep, 1, opSleep, 3, opKill, 0,
		opSleep, 3, opSpawn, 1, opSleep, 0, opSpawn, 2, opSleep, 1, opSpawn, 3},
}

// FuzzStepsMatchSleep runs each script's programs once as Sleep loops and
// once through Steps. The probe stream, any panic out of Run, the kernel's
// Clock triple and every proc's finish time must match.
func FuzzStepsMatchSleep(f *testing.F) {
	for _, script := range stepScripts {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { checkStepsMatchSleep(t, script) })
}

// TestStepsRunOnKernelStack checks the point of Steps: once a sleep has
// queued, the kernel makes the next Step call itself (from Kernel.step),
// not the proc's coroutine.
func TestStepsRunOnKernelStack(t *testing.T) {
	k := NewKernel(1)
	left := 100
	fromKernel := 0
	k.Go("stepper", func(p *Proc) {
		p.Steps(stepFunc(func() (Duration, bool) {
			if calledFrom("(*Kernel).step") {
				fromKernel++
			}
			if left == 0 {
				return 0, false
			}
			left--
			return time.Microsecond, true
		}))
	})
	k.Go("other", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	k.Run()
	// The first call runs on the coroutine; every wake is queued (other
	// sleeps in lockstep), so the other 100 run on the kernel stack.
	if left != 0 || fromKernel != 100 {
		t.Fatalf("left=%d steps from Kernel.step=%d, want 0 and 100", left, fromKernel)
	}
}

// calledFrom reports whether a function whose name ends in fn is on the
// caller's stack.
func calledFrom(fn string) bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestStepMustNotBlock: a Step that would park panics, and the panic is
// raised from Run.
func TestStepMustNotBlock(t *testing.T) {
	k := NewKernel(1)
	m := NewMutex("m")
	k.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(time.Second)
		m.Unlock(p)
	})
	k.Go("stepper", func(p *Proc) { p.Steps(stepFunc(func() (Duration, bool) { m.Lock(p); return 0, false })) })
	defer func() {
		v := recover()
		if s, _ := v.(string); !strings.Contains(s, "Step of stepper blocked on mutex") {
			t.Fatalf("panic %v, want a blocked-step panic", v)
		}
	}()
	k.Run()
}

type stepFunc func() (Duration, bool)

func (f stepFunc) Step() (Duration, bool) { return f() }

// countdown sleeps 1us per step until *left reaches zero.
type countdown struct{ left *int }

func (c *countdown) Step() (Duration, bool) {
	if *c.left == 0 {
		return 0, false
	}
	*c.left--
	return time.Microsecond, true
}
