package sim

// abortSentinel is panicked out of park when the simulation is torn down so
// that parked coroutines unwind without executing further user code.
type abortSentinel struct{}

// Proc is a simulated thread. A Proc's methods must only be called by the
// coroutine running that Proc (they block and hand the baton back to the
// kernel); the sole exceptions are Name, ID, and Finished.
type Proc struct {
	k         *Kernel
	id        int
	name      Name
	daemon    bool
	finished  bool
	parked    bool
	stepping  bool // a Step is executing (it must not block)
	queued    bool // linked on a primitive's wait list (see waitList)
	waitClass WaitClass
	waitObj   *Name // the primitive's name; nil for a sleep
	// next links p into the wait list of the primitive it is parked on,
	// and want is what it asked for there: units of a Resource, or 1 for
	// a writer on an RWMutex. A proc parks on at most one primitive, so
	// parking allocates nothing.
	next *Proc
	want int64
	// doneEv is fired on exit; embedded by value so spawning a Proc does
	// not allocate a separate Event record.
	doneEv Event

	// stepper is the chain a Steps call is running; while it is set, the
	// kernel continues the chain itself at each wakeup (see Steps).
	stepper Stepper

	// fn is the body, until a coroutine takes it at the first resume;
	// co is that coroutine while the body runs (nil before and after).
	fn func(*Proc)
	co *coro
}

// Name returns the Proc's human-readable name.
func (p *Proc) Name() string { return p.name.String() }

// LazyName returns the Proc's Name as spawned, unformatted if nothing has
// read it yet, so an observer can keep it and format it only when needed.
func (p *Proc) LazyName() Name { return p.name }

// ID returns the Proc's unique id (assigned in spawn order).
func (p *Proc) ID() int { return p.id }

// Finished reports whether the Proc's body has returned.
func (p *Proc) Finished() bool { return p.finished }

// Kernel returns the kernel this Proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Duration { return p.k.now }

// park hands the baton to the kernel and blocks until resumed. The wait
// class and object are surfaced in deadlock reports and probe events; the
// object's name is formatted only when one of those reads it.
func (p *Proc) park(class WaitClass, obj *Name) {
	k := p.k
	if k.aborted {
		// Reached from deferred cleanup while this Proc unwinds: do not
		// hand the baton anywhere, just keep unwinding.
		panic(abortSentinel{})
	}
	if p.stepping {
		panic("sim: a Step of " + p.Name() + " blocked on " + class.String())
	}
	p.block(class, obj)
	if !p.co.yield(struct{}{}) || k.aborted {
		// yield returning false means the kernel stopped the coroutine
		// (abort); unwind without running further user code.
		p.parked = false
		panic(abortSentinel{})
	}
	// A step chain resumes the coroutine already woken (Kernel.step).
	if p.parked {
		p.unblock(class, obj)
	}
}

// block marks p parked on class/obj and emits the Block probe.
func (p *Proc) block(class WaitClass, obj *Name) {
	p.waitClass, p.waitObj = class, obj
	p.parked = true
	if p.k.probing() {
		p.k.emit(ProbeBlock, class, obj.text(), p, nil, 0)
	}
}

// unblock marks p running again and emits the matching Unblock probe.
func (p *Proc) unblock(class WaitClass, obj *Name) {
	p.parked = false
	p.waitClass, p.waitObj = WaitNone, nil
	if p.k.probing() {
		p.k.emit(ProbeUnblock, class, obj.text(), p, nil, 0)
	}
}

// blockedOnString renders the wait target for deadlock reports.
func (p *Proc) blockedOnString() string {
	if obj := p.waitObj.text(); obj != "" {
		return p.waitClass.String() + " " + obj
	}
	return p.waitClass.String()
}

// Sleep advances this Proc's virtual time by d. d <= 0 yields the processor
// without advancing time (other runnable Procs at the same instant run
// first).
func (p *Proc) Sleep(d Duration) {
	at := p.wakeAt(d)
	if p.sleepInline(at) {
		return
	}
	p.k.schedule(at, p)
	p.park(WaitSleep, nil)
}

// wakeAt returns the wakeup time of a sleep of d starting now.
func (p *Proc) wakeAt(d Duration) Duration {
	if d < 0 {
		d = 0
	}
	return p.k.now + d
}

// sleepInline is the fast path of a sleep until at, shared by Sleep and
// step chains: if no pending event is due at or before the wake time (and
// the RunFor cutoff is not crossed), no other Proc can run during the
// sleep — the scheduler would pop our own wakeup next. It then advances the
// clock inline and reports true: no heap traffic, no coroutine switch. The
// sequence counter still advances so event numbering is identical to the
// queued path, and the probe stream is byte-identical (the block/unblock
// pair brackets the same instant-pair with nothing in between, exactly as
// a queued wakeup with no intervening events).
func (p *Proc) sleepInline(at Duration) bool {
	k := p.k
	if k.running != p || k.aborted ||
		(len(k.events.h) > 0 && k.events.minAt() <= at) ||
		(k.deadline >= 0 && at > k.deadline) {
		return false
	}
	k.seq++
	if k.probing() {
		p.block(WaitSleep, nil)
		k.now = at
		p.unblock(WaitSleep, nil)
		return true
	}
	k.now = at
	return true
}

// Stepper is a non-blocking piece of a Proc's work, run by Proc.Steps.
// Step does the work up to the Proc's next sleep and returns its length
// with more == true, or returns more == false when the chain is done. A
// Step must not block: it may release, fire, push, schedule and kill, but
// any call that could park the Proc (Lock, Acquire, Await, Pop, Sleep,
// Join, a nested Steps) panics. Implement Step on a pointer receiver so
// passing the Stepper does not allocate.
type Stepper interface {
	Step() (d Duration, more bool)
}

// Steps runs s to the end of its chain: it calls s.Step and, while the step
// returns more, sleeps d exactly as Sleep(d) would — same clock, sequence
// numbers and probe stream — before the next call. The difference is where
// the calls run: when a sleep has to queue, the kernel makes the next Step
// call itself at the wakeup, on its own stack, instead of switching to
// this Proc's coroutine and back. The coroutine is resumed only when a
// step returns more == false, so a chain of per-page steps costs a heap
// push and pop per page rather than two coroutine switches. (SystemC draws
// the same line between SC_THREAD processes and run-to-completion
// SC_METHOD processes.)
//
// Work that may block belongs between Steps calls: a step returns
// more == false, the Proc blocks on the coroutine as usual, then calls
// Steps again. A Proc killed or aborted mid-chain unwinds from Steps like
// from a Sleep; a step that panics has its panic re-raised from Steps.
func (p *Proc) Steps(s Stepper) {
	p.stepper = s
	if !p.runSteps() {
		p.park(WaitSleep, nil)
	}
	if v := p.k.stepPanic; v != nil {
		p.k.stepPanic = nil
		panic(v)
	}
}

// runSteps calls p's stepper until a step ends the chain (true) or the
// sleep after a step has to queue (false: the wakeup is scheduled and the
// caller parks p). A panicking step ends the chain with the panic left in
// k.stepPanic.
func (p *Proc) runSteps() (done bool) {
	defer func() {
		if v := recover(); v != nil {
			p.stepping = false
			p.stepper = nil
			p.k.stepPanic = v
			done = true
		}
	}()
	for {
		p.stepping = true
		d, more := p.stepper.Step()
		p.stepping = false
		if !more {
			p.stepper = nil
			return true
		}
		at := p.wakeAt(d)
		if !p.sleepInline(at) {
			p.k.schedule(at, p)
			return false
		}
	}
}

// Yield reschedules the Proc at the current instant, letting other runnable
// Procs execute first.
func (p *Proc) Yield() { p.Sleep(0) }

// Join blocks until q finishes.
func (p *Proc) Join(q *Proc) { q.doneEv.Await(p) }

// Done returns an Event fired when the Proc finishes, for use with
// WaitAny-style composition.
func (p *Proc) Done() *Event { return &p.doneEv }
