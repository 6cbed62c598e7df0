package sim

import "fmt"

// Mutex is a simulated kernel mutex with FIFO handoff semantics: Unlock
// transfers ownership directly to the longest-waiting Proc, so starvation is
// impossible and lock acquisition order is deterministic.
//
// This mirrors the behaviour of a Linux kernel mutex under heavy contention
// (optimistic spinning is irrelevant in a DES — there is no true
// parallelism to spin against).
type Mutex struct {
	name    Name
	owner   *Proc
	waiters []*Proc
	count   *WaitCount // nil unless CountWaiters attached one
}

// NewMutex returns a named mutex. The name appears in deadlock reports.
func NewMutex(name string) *Mutex { return &Mutex{name: Name{s: name}} }

// Init names a mutex held by value, unlocked with no waiters and no
// WaitCount, and returns it.
func (m *Mutex) Init(name Name) *Mutex {
	*m = Mutex{name: name}
	return m
}

// CountWaiters makes m tally its parked waiters into c and returns m.
func (m *Mutex) CountWaiters(c *WaitCount) *Mutex {
	m.count = c
	return m
}

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.name.String() }

// Lock acquires m, blocking p until the mutex is available.
func (m *Mutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitMutex, m.Name(), p, nil, 0)
		}
		return
	}
	if m.owner == p {
		panic("sim: recursive Lock of " + m.Name() + " by " + p.Name())
	}
	m.waiters = append(m.waiters, p)
	m.count.add(p.k, 1)
	p.park(WaitMutex, m.Name())
}

// TryLock acquires m if it is free and reports whether it succeeded.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.owner != nil {
		return false
	}
	m.owner = p
	if p.k.probing() {
		p.k.emit(ProbeAcquire, WaitMutex, m.Name(), p, nil, 0)
	}
	return true
}

// Unlock releases m, handing it to the longest-waiting Proc if any.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic(fmt.Sprintf("sim: Unlock of %s by non-owner %s", m.Name(), p.Name()))
	}
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitMutex, m.Name(), p, nil, 0)
	}
	// FIFO handoff: ownership transfers at the release instant, and the
	// releaser is the causal source of the waiter's wake-up. Waiters that
	// finished while parked (killed by a host crash) are skipped — handing
	// ownership to a dead proc would strand the mutex forever.
	for len(m.waiters) > 0 {
		next := m.waiters[0]
		m.waiters = m.waiters[1:]
		if next.finished {
			continue
		}
		m.owner = next
		m.count.add(p.k, -1)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitMutex, m.Name(), next, p, 0)
		}
		p.k.schedule(p.k.now, next)
		return
	}
	m.owner = nil
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// WaitCount tallies the procs parked on a group of locks: the current
// waiter depth and its peak. Every lock attached with CountWaiters adds to
// the same tally, so the peak is taken over the group's summed depth. The
// depth rises when a waiter parks and drops at the FIFO handoff that grants
// it the lock, not when it resumes. A waiter killed while parked is skipped
// at handoff and stays counted. Transitions during Kernel abort are not
// counted: that unwind is not part of the observed execution.
type WaitCount struct {
	depth, peak int
}

// Depth returns the current number of parked waiters.
func (c *WaitCount) Depth() int { return c.depth }

// Peak returns the largest depth reached.
func (c *WaitCount) Peak() int { return c.peak }

func (c *WaitCount) add(k *Kernel, delta int) {
	if c == nil || k.aborted {
		return
	}
	c.depth += delta
	c.peak = max(c.peak, c.depth)
}

// rwWaiter is an entry in an RWMutex wait queue.
type rwWaiter struct {
	p     *Proc
	write bool
}

// RWMutex is a simulated fair reader/writer lock. Waiters queue in FIFO
// order; a batch of consecutive readers at the head of the queue is admitted
// together. Writers therefore cannot be starved by a reader stream, matching
// the fairness of Linux's rw_semaphore under contention.
type RWMutex struct {
	name    Name
	readers int
	writer  *Proc
	waiters []rwWaiter
	count   *WaitCount // nil unless CountWaiters attached one
}

// NewRWMutex returns a named reader/writer lock.
func NewRWMutex(name string) *RWMutex { return &RWMutex{name: Name{s: name}} }

// Init names a lock held by value, free with no waiters and no WaitCount,
// and returns it.
func (rw *RWMutex) Init(name Name) *RWMutex {
	*rw = RWMutex{name: name}
	return rw
}

// CountWaiters makes rw tally its parked waiters into c and returns rw.
func (rw *RWMutex) CountWaiters(c *WaitCount) *RWMutex {
	rw.count = c
	return rw
}

// Name returns the lock's name.
func (rw *RWMutex) Name() string { return rw.name.String() }

// RLock acquires a read (shared) hold.
func (rw *RWMutex) RLock(p *Proc) {
	if rw.writer == nil && len(rw.waiters) == 0 {
		rw.readers++
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWRead, rw.Name(), p, nil, 0)
		}
		return
	}
	rw.waiters = append(rw.waiters, rwWaiter{p, false})
	rw.count.add(p.k, 1)
	p.park(WaitRWRead, rw.Name())
}

// RUnlock releases a read hold.
func (rw *RWMutex) RUnlock(p *Proc) {
	if rw.readers <= 0 {
		panic("sim: RUnlock of " + rw.Name() + " with no readers")
	}
	rw.readers--
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitRWRead, rw.Name(), p, nil, 0)
	}
	if rw.readers == 0 {
		rw.dispatch(p)
	}
}

// Lock acquires the write (exclusive) hold.
func (rw *RWMutex) Lock(p *Proc) {
	if rw.writer == nil && rw.readers == 0 && len(rw.waiters) == 0 {
		rw.writer = p
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWWrite, rw.Name(), p, nil, 0)
		}
		return
	}
	rw.waiters = append(rw.waiters, rwWaiter{p, true})
	rw.count.add(p.k, 1)
	p.park(WaitRWWrite, rw.Name())
}

// Unlock releases the write hold.
func (rw *RWMutex) Unlock(p *Proc) {
	if rw.writer != p {
		panic("sim: Unlock of " + rw.Name() + " by non-writer")
	}
	rw.writer = nil
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitRWWrite, rw.Name(), p, nil, 0)
	}
	rw.dispatch(p)
}

// dispatch admits the next writer, or the next batch of readers, from the
// head of the wait queue. Called with the lock free.
func (rw *RWMutex) dispatch(p *Proc) {
	// Waiters that finished while parked (killed by a host crash) are
	// dropped without being granted the lock.
	for len(rw.waiters) > 0 && rw.waiters[0].p.finished {
		rw.waiters = rw.waiters[1:]
	}
	if len(rw.waiters) == 0 {
		return
	}
	if rw.waiters[0].write {
		next := rw.waiters[0].p
		rw.waiters = rw.waiters[1:]
		rw.writer = next
		rw.count.add(p.k, -1)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWWrite, rw.Name(), next, p, 0)
		}
		p.k.schedule(p.k.now, next)
		return
	}
	for len(rw.waiters) > 0 && !rw.waiters[0].write {
		next := rw.waiters[0].p
		rw.waiters = rw.waiters[1:]
		if next.finished {
			continue
		}
		rw.readers++
		rw.count.add(p.k, -1)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWRead, rw.Name(), next, p, 0)
		}
		p.k.schedule(p.k.now, next)
	}
}

// resWaiter is an entry in a Resource wait queue.
type resWaiter struct {
	p *Proc
	n int64
}

// Resource is a counting semaphore with FIFO admission, used to model finite
// hardware capacity: CPU cores, memory-bandwidth streams, PCIe credits, NIC
// queue slots. Acquire(n) blocks until n units are available AND every
// earlier waiter has been admitted (no barging, so large requests are not
// starved by a stream of small ones).
type Resource struct {
	name  string
	cap   int64
	inUse int64
	waitq []resWaiter

	// busy is the time-weighted busy integral in unit-nanoseconds through
	// the last charged change at last, and level the in-use count it
	// charges. Changes made during Kernel abort are not charged, so after
	// an aborted Run level can differ from inUse.
	busy  int64
	last  Duration
	level int64
}

// NewResource returns a resource with the given capacity in abstract units.
func NewResource(name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	return &Resource{name: name, cap: capacity}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Cap returns the configured capacity.
func (r *Resource) Cap() int64 { return r.cap }

// InUse returns the units currently held.
func (r *Resource) InUse() int64 { return r.inUse }

// Busy returns the busy integral through the last change in units held:
// 1 unit held for 1 s is 1 s.
func (r *Resource) Busy() Duration { return Duration(r.busy) }

// BusyAt returns the busy integral extended to at (not before the last
// change), as if the units held stayed held until then.
func (r *Resource) BusyAt(at Duration) Duration {
	return Duration(r.busy + r.level*int64(at-r.last))
}

// Acquire blocks p until n units are available.
func (r *Resource) Acquire(p *Proc, n int64) {
	if r.TryAcquire(p, n) {
		return
	}
	r.waitq = append(r.waitq, resWaiter{p, n})
	p.park(WaitResource, r.name)
}

// TryAcquire takes n units if Acquire would take them without blocking and
// reports whether it did. It never blocks, so a Step may call it.
func (r *Resource) TryAcquire(p *Proc, n int64) bool {
	if n > r.cap {
		panic(fmt.Sprintf("sim: acquire %d > capacity %d of %s", n, r.cap, r.name))
	}
	if len(r.waitq) > 0 || r.inUse+n > r.cap {
		return false
	}
	r.adjust(p.k, n)
	if p.k.probing() {
		p.k.emit(ProbeAcquire, WaitResource, r.name, p, nil, n)
	}
	return true
}

// Release returns n units and admits queued waiters in FIFO order.
func (r *Resource) Release(p *Proc, n int64) {
	if r.inUse < n {
		panic("sim: over-release of " + r.name)
	}
	r.adjust(p.k, -n)
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitResource, r.name, p, nil, n)
	}
	for len(r.waitq) > 0 {
		// Waiters that finished while parked (killed by a host crash) are
		// dropped without taking units — admitting them would leak capacity.
		if r.waitq[0].p.finished {
			r.waitq = r.waitq[1:]
			continue
		}
		if r.inUse+r.waitq[0].n > r.cap {
			break
		}
		w := r.waitq[0]
		r.waitq = r.waitq[1:]
		r.adjust(p.k, w.n)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitResource, r.name, w.p, p, w.n)
		}
		p.k.schedule(p.k.now, w.p)
	}
}

// Use acquires n units, sleeps for d, then releases: the idiom for "this
// operation occupies a core / a bandwidth stream for d". The release is
// deferred so that units are returned even if the Proc is unwound mid-wait
// (a daemon reaped at the end of a Run phase must not strand capacity).
func (r *Resource) Use(p *Proc, n int64, d Duration) {
	r.Acquire(p, n)
	defer r.Release(p, n)
	p.Sleep(d)
}

// adjust applies delta to the units held and, unless k is aborting,
// advances the busy integral to now and applies delta to the charged level.
func (r *Resource) adjust(k *Kernel, delta int64) {
	r.inUse += delta
	if k.aborted {
		return
	}
	r.busy += r.level * int64(k.now-r.last)
	r.last = k.now
	r.level += delta
}

// WaitGroup mirrors sync.WaitGroup for simulated threads.
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
}

// Done decrements the counter, waking waiters when it reaches zero. The
// calling Proc is needed to schedule wakeups.
func (wg *WaitGroup) Done(p *Proc) {
	wg.count--
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		for _, w := range wg.waiters {
			if p.k.probing() {
				p.k.emit(ProbeWake, WaitWG, "", w, p, 0)
			}
			p.k.schedule(p.k.now, w)
		}
		wg.waiters = nil
	}
}

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.park(WaitWG, "")
}

// Event is a one-shot broadcast: once fired, all current and future Await
// calls return immediately.
type Event struct {
	k       *Kernel
	name    string
	fired   bool
	waiters []*Proc
}

// NewEvent returns an unfired event.
func NewEvent(k *Kernel, name string) *Event { return new(Event).Init(k, name) }

// Init makes e, an event held by value, an unfired event on k and returns
// it.
func (e *Event) Init(k *Kernel, name string) *Event {
	*e = Event{k: k, name: name}
	return e
}

func newEvent(k *Kernel) *Event { return &Event{k: k} }

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Fire marks the event fired and wakes all waiters. Firing twice is a no-op.
func (e *Event) Fire(p *Proc) { e.fireBy(p) }

// fireBy fires the event attributing the wakeups to waker (nil when fired
// from outside the simulation).
func (e *Event) fireBy(waker *Proc) {
	if e.fired {
		return
	}
	e.fired = true
	for _, w := range e.waiters {
		if e.k.probing() {
			e.k.emit(ProbeWake, WaitEvent, e.name, w, waker, 0)
		}
		e.k.schedule(e.k.now, w)
	}
	e.waiters = nil
}

// Await blocks p until the event fires.
func (e *Event) Await(p *Proc) {
	if e.fired {
		return
	}
	e.waiters = append(e.waiters, p)
	p.park(WaitEvent, e.name)
}

// Queue is an unbounded FIFO channel between simulated threads.
type Queue[T any] struct {
	name    string
	items   []T
	waiters []*Proc
	closed  bool
}

// NewQueue returns an empty queue.
func NewQueue[T any](name string) *Queue[T] { return &Queue[T]{name: name} }

// Push appends an item, waking one blocked Pop if present.
func (q *Queue[T]) Push(p *Proc, v T) {
	if q.closed {
		panic("sim: push to closed queue " + q.name)
	}
	q.items = append(q.items, v)
	// Skip waiters that finished while parked (killed by a host crash):
	// waking a dead proc would silently lose the wakeup and strand the item.
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.finished {
			continue
		}
		if p.k.probing() {
			p.k.emit(ProbeWake, WaitQueue, q.name, w, p, 0)
		}
		p.k.schedule(p.k.now, w)
		break
	}
}

// Close marks the queue closed; blocked and future Pops return ok=false once
// drained.
func (q *Queue[T]) Close(p *Proc) {
	q.closed = true
	for _, w := range q.waiters {
		if p.k.probing() {
			p.k.emit(ProbeWake, WaitQueue, q.name, w, p, 0)
		}
		p.k.schedule(p.k.now, w)
	}
	q.waiters = nil
}

// Pop removes the oldest item, blocking while the queue is empty and open.
// ok is false if the queue is closed and drained.
func (q *Queue[T]) Pop(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters = append(q.waiters, p)
		p.park(WaitQueue, q.name)
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }
