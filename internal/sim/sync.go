package sim

import "fmt"

// waitList is a FIFO of procs parked on one primitive, linked through
// Proc.next: parking appends the proc itself and a handoff unlinks the
// head, so neither allocates. A proc parks on at most one primitive at a
// time. The one exception is a dying proc: Kill or abort stopped it while
// it was linked here, and its deferred cleanup parks again, which panics
// at once. It joins the second list as a finished copy of itself, which
// every handoff skips as it skips any proc that died while parked.
type waitList struct{ head, tail *Proc }

func (l *waitList) empty() bool { return l.head == nil }

// push links p at the tail, asking for want.
func (l *waitList) push(p *Proc, want int64) {
	if p.queued {
		dead := *p
		dead.finished, dead.next = true, nil
		p = &dead
	}
	p.queued, p.want = true, want
	if l.tail == nil {
		l.head = p
	} else {
		l.tail.next = p
	}
	l.tail = p
}

// pop unlinks and returns the head; the list must not be empty.
func (l *waitList) pop() *Proc {
	p := l.head
	l.head = p.next
	if l.head == nil {
		l.tail = nil
	}
	p.next, p.queued = nil, false
	return p
}

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
	waiters waitList
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
	m.waiters.push(p, 0)
	m.count.add(p.k, 1)
	p.park(WaitMutex, &m.name)
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
	for !m.waiters.empty() {
		next := m.waiters.pop()
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

// RWMutex is a simulated fair reader/writer lock. Waiters queue in FIFO
// order; a batch of consecutive readers at the head of the queue is admitted
// together. Writers therefore cannot be starved by a reader stream, matching
// the fairness of Linux's rw_semaphore under contention.
type RWMutex struct {
	name    Name
	readers int
	writer  *Proc
	waiters waitList   // a writer waits with want 1, a reader with 0
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
	if rw.writer == nil && rw.waiters.empty() {
		rw.readers++
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWRead, rw.Name(), p, nil, 0)
		}
		return
	}
	rw.waiters.push(p, 0)
	rw.count.add(p.k, 1)
	p.park(WaitRWRead, &rw.name)
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
	if rw.writer == nil && rw.readers == 0 && rw.waiters.empty() {
		rw.writer = p
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWWrite, rw.Name(), p, nil, 0)
		}
		return
	}
	rw.waiters.push(p, 1)
	rw.count.add(p.k, 1)
	p.park(WaitRWWrite, &rw.name)
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
	for !rw.waiters.empty() && rw.waiters.head.finished {
		rw.waiters.pop()
	}
	if rw.waiters.empty() {
		return
	}
	if rw.waiters.head.want != 0 {
		next := rw.waiters.pop()
		rw.writer = next
		rw.count.add(p.k, -1)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWWrite, rw.Name(), next, p, 0)
		}
		p.k.schedule(p.k.now, next)
		return
	}
	for !rw.waiters.empty() && rw.waiters.head.want == 0 {
		next := rw.waiters.pop()
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

// Resource is a counting semaphore with FIFO admission, used to model finite
// hardware capacity: CPU cores, memory-bandwidth streams, PCIe credits, NIC
// queue slots. Acquire(n) blocks until n units are available AND every
// earlier waiter has been admitted (no barging, so large requests are not
// starved by a stream of small ones).
type Resource struct {
	name  Name
	cap   int64
	inUse int64
	waitq waitList // each waiter wants the units it asked for

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
	return &Resource{name: Name{s: name}, cap: capacity}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name.String() }

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
	r.waitq.push(p, n)
	p.park(WaitResource, &r.name)
}

// TryAcquire takes n units if Acquire would take them without blocking and
// reports whether it did. It never blocks, so a Step may call it.
func (r *Resource) TryAcquire(p *Proc, n int64) bool {
	if n > r.cap {
		panic(fmt.Sprintf("sim: acquire %d > capacity %d of %s", n, r.cap, r.Name()))
	}
	if !r.waitq.empty() || r.inUse+n > r.cap {
		return false
	}
	r.adjust(p.k, n)
	if p.k.probing() {
		p.k.emit(ProbeAcquire, WaitResource, r.Name(), p, nil, n)
	}
	return true
}

// Release returns n units and admits queued waiters in FIFO order.
func (r *Resource) Release(p *Proc, n int64) {
	if r.inUse < n {
		panic("sim: over-release of " + r.Name())
	}
	r.adjust(p.k, -n)
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitResource, r.Name(), p, nil, n)
	}
	for !r.waitq.empty() {
		// Waiters that finished while parked (killed by a host crash) are
		// dropped without taking units — admitting them would leak capacity.
		if r.waitq.head.finished {
			r.waitq.pop()
			continue
		}
		if r.inUse+r.waitq.head.want > r.cap {
			break
		}
		w := r.waitq.pop()
		r.adjust(p.k, w.want)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitResource, r.Name(), w, p, w.want)
		}
		p.k.schedule(p.k.now, w)
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
	waiters waitList
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
		for !wg.waiters.empty() {
			w := wg.waiters.pop()
			if p.k.probing() {
				p.k.emit(ProbeWake, WaitWG, "", w, p, 0)
			}
			p.k.schedule(p.k.now, w)
		}
	}
}

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters.push(p, 0)
	p.park(WaitWG, nil)
}

// Event is a one-shot broadcast: once fired, all current and future Await
// calls return immediately.
type Event struct {
	k       *Kernel
	name    Name
	fired   bool
	waiters waitList
}

// NewEvent returns an unfired event.
func NewEvent(k *Kernel, name string) *Event { return new(Event).Init(k, name) }

// Init makes e, an event held by value, an unfired event on k and returns
// it.
func (e *Event) Init(k *Kernel, name string) *Event {
	*e = Event{k: k, name: Name{s: name}}
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
	for !e.waiters.empty() {
		w := e.waiters.pop()
		if e.k.probing() {
			e.k.emit(ProbeWake, WaitEvent, e.name.String(), w, waker, 0)
		}
		e.k.schedule(e.k.now, w)
	}
}

// Await blocks p until the event fires.
func (e *Event) Await(p *Proc) {
	if e.fired {
		return
	}
	e.waiters.push(p, 0)
	p.park(WaitEvent, &e.name)
}

// Queue is an unbounded FIFO channel between simulated threads.
type Queue[T any] struct {
	name Name
	// items[head:] are the queued items. Pop advances head and rewinds
	// to the front when the queue drains, and Push compacts before it
	// would grow, so a queue that drains between pushes never allocates.
	items   []T
	head    int
	waiters waitList
	closed  bool
}

// NewQueue returns an empty queue.
func NewQueue[T any](name string) *Queue[T] { return &Queue[T]{name: Name{s: name}} }

// Push appends an item, waking one blocked Pop if present.
func (q *Queue[T]) Push(p *Proc, v T) {
	if q.closed {
		panic("sim: push to closed queue " + q.name.String())
	}
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	// Skip waiters that finished while parked (killed by a host crash):
	// waking a dead proc would silently lose the wakeup and strand the item.
	for !q.waiters.empty() {
		w := q.waiters.pop()
		if w.finished {
			continue
		}
		if p.k.probing() {
			p.k.emit(ProbeWake, WaitQueue, q.name.String(), w, p, 0)
		}
		p.k.schedule(p.k.now, w)
		break
	}
}

// Close marks the queue closed; blocked and future Pops return ok=false once
// drained.
func (q *Queue[T]) Close(p *Proc) {
	q.closed = true
	for !q.waiters.empty() {
		w := q.waiters.pop()
		if p.k.probing() {
			p.k.emit(ProbeWake, WaitQueue, q.name.String(), w, p, 0)
		}
		p.k.schedule(p.k.now, w)
	}
}

// Pop removes the oldest item, blocking while the queue is empty and open.
// ok is false if the queue is closed and drained.
func (q *Queue[T]) Pop(p *Proc) (v T, ok bool) {
	for q.Len() == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters.push(p, 0)
		p.park(WaitQueue, &q.name)
	}
	var zero T
	v, q.items[q.head] = q.items[q.head], zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }
