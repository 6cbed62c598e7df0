// Package sim implements a deterministic discrete-event simulation (DES)
// kernel used by every substrate in this repository.
//
// The kernel models an operating system's worth of concurrent activity —
// threads, kernel locks, CPU cores, memory bandwidth — under a virtual clock.
// Simulated threads (Procs) are backed by coroutines (iter.Pull), but the
// kernel enforces strict baton-passing: exactly one Proc executes at any
// instant, and the order in which Procs run is a pure function of
// (virtual time, sequence number). Runs are therefore bit-for-bit
// reproducible, which is essential for regenerating the paper's figures.
//
// A 200-container concurrent-startup experiment that spans ~16 virtual
// seconds completes in a few wall-clock milliseconds.
//
// Throughput design notes (the kernel is the ceiling for fleet-scale
// sweeps, so the hot path is deliberately allocation-free):
//
//   - The pending-event queue is a flat binary heap of event VALUES
//     (eventQueue below), not container/heap over *event pointers: pushing
//     an event reuses the slice's backing array, so a steady-state
//     schedule/pop cycle performs zero allocations and no interface boxing.
//   - Procs are coroutines, not goroutines: resuming a parked Proc is a
//     direct coroutine switch (runtime.coroswitch via iter.Pull), roughly
//     4× cheaper than the channel handoff it replaced, and a Proc that
//     sleeps while no other work is due continues inline without any
//     switch at all (Proc.sleepInline, shared by Sleep and Steps).
//   - A queued wakeup still costs two switches: into the proc, and back
//     out at its next park. Proc.Steps removes both for work that is a
//     chain of non-blocking steps separated by sleeps: when the sleep
//     after a step has to queue, the kernel makes the next Step call
//     itself at the wakeup, on its own stack, and resumes the coroutine
//     only when a step ends the chain. A Step must never block (park
//     panics if one tries); blocking work goes between Steps calls, on
//     the coroutine. This is SystemC's split between SC_THREAD processes
//     (threads that may wait anywhere) and run-to-completion SC_METHOD
//     processes, with one Proc moving between the two. The fastiovd
//     scrubber and kvm's TouchRange run their per-page loops this way.
//   - Coroutines are pooled per kernel; Proc records are not. A proc is
//     bound to a coroutine at its first resume: the kernel takes an idle
//     one, or creates one (iter.Pull) if none is idle. A coroutine runs
//     proc bodies one after another and parks on the kernel's idle list
//     between them, so iter.Pull runs once per peak-concurrent proc, not
//     once per spawn, and a stack grown by one body stays grown for the
//     next. A coroutine stopped by Kill or abort ends and is never
//     reused, and a proc that never starts never gets one. When a Run or
//     RunFor phase returns, every idle coroutine is stopped, so none
//     outlives the phase, unless an owner holds them (Kernel.Hold): an
//     owner that runs consecutive phases on one kernel (a startup wave and
//     its audit teardown, a fleet run and its Finish, a serving window)
//     keeps them for its next phase and drains them when it returns. The
//     pool then pays iter.Pull once per peak-concurrent proc of the
//     owner's whole run, not of each phase, as SystemC keeps a thread
//     process for the whole simulation. A proc should stand for
//     concurrency the model has: an audit teardown models no timing, so it
//     stops a host's sandboxes one after another from one proc per host.
//     Under a hold that proc runs on a coroutine the measured phase left
//     idle, and a fleet's teardown costs one proc record per host, not one
//     per pod. Proc records themselves are NOT pooled: user code retains
//     *Proc handles past exit (Join, Done, Finished on an already-finished
//     proc), so recycling records would alias live references. The per-proc cost is one record; the
//     per-coroutine cost is one iter.Pull, paid at a new concurrency peak.
//   - Parking allocates nothing. A proc parks on at most one primitive at
//     a time, so every wait queue (Mutex, RWMutex, Resource, Queue, Event,
//     WaitGroup) is an intrusive FIFO list linked through the parked procs
//     themselves (waitList), with the units a proc asked for kept on the
//     proc; a handoff unlinks the head. A proc's park records the
//     primitive's Name by pointer, and nothing formats it unless a probe,
//     a deadlock report or a panic reads it.
package sim

import (
	"fmt"
	"iter"
	"sort"
	"time"
)

// Duration aliases time.Duration; all simulated time is expressed in
// nanoseconds of virtual time.
type Duration = time.Duration

// Kernel is the simulation scheduler. It owns the virtual clock and the
// pending-event heap. A Kernel must be created with NewKernel.
//
// All Kernel methods except Run and RunFor must be called either before Run
// starts or from within a running Proc (which holds the execution baton), so
// no internal locking is required.
type Kernel struct {
	now      Duration
	events   eventQueue
	seq      uint64
	live     int // non-daemon procs not yet finished
	procSeq  int
	procs    map[int]*Proc // unfinished procs by id, for abort/deadlock
	aborted  bool
	panicked any // panic value captured from a Proc body, re-raised in Run
	// stepPanic carries a panic raised by a Step to the stepping proc's
	// coroutine, which re-raises it from Proc.Steps.
	stepPanic any
	// deadline is the active RunFor cutoff (-1 when none); the inline
	// sleep fast path (Proc.sleepInline) never runs past it.
	deadline Duration

	// idle is the stack of coroutines parked between proc bodies, linked
	// through coro.nextIdle (see bind and drain); coros is the unused
	// tail of the block their records are carved from.
	idle  *coro
	coros []coro
	// holds counts the owners keeping idle coroutines across phases
	// (Hold); while it is positive, a phase's end does not drain them.
	holds int

	// running is the Proc currently holding the execution baton (nil
	// between events and outside Run). It attributes spawns and wakeups to
	// their causal source in probe events.
	running *Proc
	// probe, when non-nil, observes every scheduler and primitive
	// transition (see probe.go).
	probe func(at Duration, ev ProbeEvent)
}

// NewKernel returns a kernel with the virtual clock at zero. The kernel
// holds no randomness: components that draw own their own Rand stream, so
// the same spawns always yield the same execution.
func NewKernel() *Kernel {
	return &Kernel{
		procs:    make(map[int]*Proc),
		deadline: -1,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Duration { return k.now }

// Clock returns the internal scheduling cursor (virtual time, event
// sequence counter and proc counter), so two runs can be checked to leave
// the kernel in exactly the same state.
func (k *Kernel) Clock() (now Duration, seq uint64, procSeq int) {
	return k.now, k.seq, k.procSeq
}

// schedule pushes an event. Events at equal times fire in scheduling order.
func (k *Kernel) schedule(at Duration, p *Proc) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%v now=%v", at, k.now))
	}
	k.seq++
	k.events.push(event{at: at, seq: k.seq, proc: p})
}

// Go spawns a new simulated thread that begins execution at the current
// virtual time. The returned Proc can be joined or inspected. fn runs to
// completion unless the simulation is aborted.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.spawn(Name{s: name}, fn, false)
}

// GoDaemon spawns a background thread that does not keep the simulation
// alive: Run returns once every non-daemon Proc has finished, even if
// daemons still have pending events. Daemons are reaped when Run returns
// (their coroutines unwind); a subsequent Run phase starts without them.
func (k *Kernel) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(Name{s: name}, fn, true)
}

// GoAt spawns a thread that begins execution at absolute virtual time at
// (which must not be in the past). It is the primitive beneath workload
// arrival processes.
func (k *Kernel) GoAt(at Duration, name string, fn func(p *Proc)) *Proc {
	return k.GoAtName(at, Name{s: name}, fn)
}

// GoAtName is GoAt with a Name, formatted the first time it is read. A
// proc spawned per pod start takes one, so an unread name costs nothing;
// GoAtName(k.Now(), ...) spawns it as Go would.
func (k *Kernel) GoAtName(at Duration, name Name, fn func(p *Proc)) *Proc {
	p := k.newProc(name, fn, false)
	k.schedule(at, p)
	return p
}

func (k *Kernel) spawn(name Name, fn func(p *Proc), daemon bool) *Proc {
	p := k.newProc(name, fn, daemon)
	k.schedule(k.now, p)
	return p
}

func (k *Kernel) newProc(name Name, fn func(p *Proc), daemon bool) *Proc {
	k.procSeq++
	p := &Proc{
		k:      k,
		id:     k.procSeq,
		name:   name,
		daemon: daemon,
		fn:     fn,
	}
	p.doneEv.k = k
	if !daemon {
		k.live++
	}
	k.procs[p.id] = p
	if k.probing() {
		k.emit(ProbeSpawn, WaitNone, "", p, k.running, 0)
	}
	return p
}

// coro is a pooled coroutine. Resuming a proc is a direct coroutine switch
// from the scheduler (next), parking it is the matching yield, and stop
// cancels it. Between bodies a coroutine parks idle with p == nil.
type coro struct {
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	p        *Proc // the proc whose body it is running; nil while idle
	nextIdle *coro
}

// resume switches into p's coroutine until p parks or exits, binding a
// coroutine to p on its first resume. A coroutine whose body returned is
// parked idle, ready for the next proc.
func (k *Kernel) resume(p *Proc) {
	c := p.co
	if c == nil {
		c = k.bind(p)
	}
	c.next()
	if c.p == nil {
		c.nextIdle = k.idle
		k.idle = c
	}
}

// bind gives p the most recently parked idle coroutine (its stack is the
// warmest), or a new one if none is idle.
func (k *Kernel) bind(p *Proc) *coro {
	c := k.idle
	if c != nil {
		k.idle, c.nextIdle = c.nextIdle, nil
	} else {
		c = k.newCoro()
	}
	c.p, p.co = p, c
	return c
}

// newCoro creates a coroutine that runs its bound proc's body, exits the
// proc and parks idle, until it is stopped. The body only ever executes
// while holding the baton.
func (k *Kernel) newCoro() *coro {
	if len(k.coros) == 0 {
		// One record for every unfinished proc: a phase whose procs are
		// spawned up front allocates its records at once, and a block is
		// never larger than the proc records already live.
		k.coros = make([]coro, len(k.procs))
	}
	c := &k.coros[0]
	k.coros = k.coros[1:]
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			p := c.p
			fn := p.fn
			p.fn = nil
			runBody(fn, p)
			p.exit()
			c.p, p.co = nil, nil
			// A coroutine stopped under its body (Kill, abort) returns
			// here and is never reused.
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// Hold keeps the kernel's idle coroutines from one Run or RunFor phase to
// the next, until the returned release is called: an owner that runs
// several phases on one kernel (a startup wave, then its teardown) binds
// the second phase's procs to the first phase's coroutines instead of
// creating new ones. Release drains them once the last hold is released,
// so a caller writes
//
//	defer k.Hold()()
//
// and no coroutine outlives its last phase, however that phase ends (a
// panic from Run included). Procs still parked when a phase ends are
// unwound as always; only idle coroutines are kept.
func (k *Kernel) Hold() (release func()) {
	k.holds++
	return func() {
		if k.holds--; k.holds == 0 {
			k.drain()
		}
	}
}

// drain stops every idle coroutine, ending the goroutines behind them.
func (k *Kernel) drain() {
	for c := k.idle; c != nil; {
		next := c.nextIdle
		c.nextIdle = nil
		c.stop()
		c = next
	}
	k.idle = nil
}

// exit performs end-of-life bookkeeping for a Proc: it runs inside the
// coroutine for procs whose body started (normal return, panic, or abort
// unwind) and is called directly by abort and Kill for procs that never
// started.
func (p *Proc) exit() {
	k := p.k
	p.finished = true
	if !p.daemon {
		k.live--
	}
	delete(k.procs, p.id)
	if k.probing() {
		k.emit(ProbeExit, WaitNone, "", p, nil, 0)
	}
	p.doneEv.fireBy(p)
}

// Run executes the simulation until every non-daemon Proc has finished or no
// events remain. It returns the virtual time at which the simulation
// quiesced. If non-daemon Procs remain blocked with no pending events, Run
// panics with a deadlock report naming each blocked Proc and what it is
// waiting on.
func (k *Kernel) Run() Duration {
	return k.run(-1)
}

// RunFor executes the simulation like Run but stops once the virtual clock
// would pass deadline. Pending events beyond the deadline are discarded and
// blocked Procs are abandoned (their coroutines unwind without running
// further user code).
func (k *Kernel) RunFor(deadline Duration) Duration {
	return k.run(deadline)
}

func (k *Kernel) run(deadline Duration) Duration {
	// A kernel can be reused for multiple phases (start containers, Run,
	// tear down, Run again); clear the abort latch from the previous phase.
	k.aborted = false
	k.deadline = deadline
	for k.events.len() > 0 && k.live > 0 {
		e := k.events.pop()
		if deadline >= 0 && e.at > deadline {
			k.now = deadline
			k.abort()
			return k.now
		}
		k.now = e.at
		p := e.proc
		if p.finished {
			continue // stale wakeup for an aborted/finished proc
		}
		k.running = p
		if p.stepper != nil {
			k.step(p)
		} else {
			k.resume(p)
		}
		k.running = nil
		if k.panicked != nil {
			// A Proc body panicked. Unwind the remaining coroutines, then
			// re-raise in the caller's goroutine so tests can observe it.
			v := k.panicked
			k.panicked = nil
			k.abort()
			panic(v)
		}
	}
	if k.live > 0 {
		report := k.deadlockReport()
		k.abort()
		panic("sim: deadlock: " + report)
	}
	k.abort()
	return k.now
}

// step wakes p from a sleep queued by its step chain (Proc.Steps) and
// continues the chain on the kernel's stack. The coroutine is resumed only
// when a step ends the chain (or panics); a sleep that must queue again
// leaves p parked in it.
func (k *Kernel) step(p *Proc) {
	p.unblock(WaitSleep, nil)
	if p.runSteps() {
		k.resume(p)
		return
	}
	p.block(WaitSleep, nil)
}

// abort ends the phase: it unwinds every remaining proc, then, unless an
// owner holds them (Hold), stops every idle coroutine, so no goroutine
// outlives the phase. Every Proc still
// registered is parked inside a primitive or never started. Stopping a
// parked proc's coroutine makes its park observe the cancelled yield and
// panic with abortSentinel, which runBody converts into a clean exit;
// never-started Procs have no coroutine and get their exit bookkeeping
// applied directly (their bodies never run).
//
// The drain is in ascending proc-id order: unwind order is deterministic, so
// any observable side effect of deferred cleanup (counter updates, PRNG
// draws in faulted teardown paths) is identical across runs.
func (k *Kernel) abort() {
	k.aborted = true
	for len(k.procs) > 0 {
		ids := make([]int, 0, len(k.procs))
		for id := range k.procs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			p, ok := k.procs[id]
			if !ok {
				continue // already unwound by an earlier stop this sweep
			}
			if p.co == nil {
				p.exit()
				continue
			}
			p.co.stop()
		}
	}
	if k.holds == 0 {
		k.drain()
	}
}

// Kill unwinds a single Proc without aborting the simulation: its coroutine
// observes the cancelled yield at the park it is blocked in and panics with
// abortSentinel, which runBody converts into a clean exit — deferred
// cleanup runs, explicit rollback closures do not — and the stopped
// coroutine ends rather than returning to the idle list. A proc that has
// not started has no coroutine: it just exits, and its body never runs.
// This models a crash: whatever the proc released via defer is returned,
// everything else is stranded and must be accounted for by the caller (see
// the fleet's LostToCrash ledger).
//
// Kill must be called from a running Proc (the baton holder) on a DIFFERENT
// proc; killing the running proc would stop the coroutine currently
// executing. Killing an already-finished proc is a no-op, so callers may
// kill from stale handle lists without liveness checks.
func (k *Kernel) Kill(p *Proc) {
	if p.finished {
		return
	}
	if p == k.running {
		panic("sim: Kill of the running proc " + p.Name())
	}
	if p.co == nil {
		p.exit()
		return
	}
	p.co.stop()
}

// runBody executes a Proc body. The abort sentinel unwinds silently; any
// other panic is captured on the kernel and re-raised from Run in the
// caller's goroutine (a panic inside a Proc coroutine would otherwise crash
// the process without giving tests a chance to recover it).
func runBody(fn func(*Proc), p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSentinel); !ok {
				p.k.panicked = r
			}
		}
	}()
	fn(p)
}

// deadlockReport lists blocked non-daemon procs and their wait reasons.
func (k *Kernel) deadlockReport() string {
	var lines []string
	for _, p := range k.procs {
		if p.daemon {
			continue
		}
		lines = append(lines, fmt.Sprintf("%s (waiting on %s)", p.Name(), p.blockedOnString()))
	}
	sort.Strings(lines)
	s := ""
	for i, l := range lines {
		if i > 0 {
			s += "; "
		}
		s += l
	}
	return s
}

// event is one pending scheduler entry. Events are stored by value in the
// queue below; the struct never escapes to the heap on the schedule/pop
// path.
type event struct {
	at   Duration
	seq  uint64
	proc *Proc
}

// less orders events by (at, seq): virtual time first, scheduling order as
// the tiebreak. This total order is the entire determinism contract.
func (e event) less(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a flat binary min-heap of event values ordered by
// (at, seq). It replaces container/heap over *event: no per-push
// allocation, no interface boxing, and the backing array is reused across
// the whole run (and across Run phases).
type eventQueue struct {
	h []event
}

func (q *eventQueue) len() int { return len(q.h) }

// minAt returns the earliest pending time; the caller must ensure the queue
// is non-empty.
func (q *eventQueue) minAt() Duration { return q.h[0].at }

func (q *eventQueue) push(e event) {
	q.h = append(q.h, e)
	// Sift up.
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the *Proc reference
	q.h = h[:n]
	// Sift down.
	h = q.h
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h[right].less(h[left]) {
			child = right
		}
		if !h[child].less(h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}
