package sim

// A differential test of the intrusive wait lists (waitList) against a
// reference model of the slice-based queues they replaced, kept below as
// refMutex, refRWMutex, refResource, refQueue, refEvent and refWaitGroup.
// One random script of parks, handoffs, broadcasts and kills runs on two
// kernels, one per implementation, and every observable must agree: the
// probe stream, each proc's log, the panic the run ends in (a deadlock
// report or a body panic), the final clock, waiter tallies and busy
// integrals. FIFO handoff, Resource no-barging, RWMutex reader batches and
// killed waiters being skipped are all behaviours of the reference; a proc
// woken by a broadcast that then parks elsewhere, and a killed waiter whose
// deferred cleanup parks again, are scripted explicitly too.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"
)

type refMutex struct {
	name    Name
	owner   *Proc
	waiters []*Proc
	count   *WaitCount
}

func (m *refMutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitMutex, m.name.String(), p, nil, 0)
		}
		return
	}
	if m.owner == p {
		panic("sim: recursive Lock of " + m.name.String() + " by " + p.Name())
	}
	m.waiters = append(m.waiters, p)
	m.count.add(p.k, 1)
	p.park(WaitMutex, &m.name)
}

func (m *refMutex) Unlock(p *Proc) {
	if m.owner != p {
		panic(fmt.Sprintf("sim: Unlock of %s by non-owner %s", m.name.String(), p.Name()))
	}
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitMutex, m.name.String(), p, nil, 0)
	}
	for len(m.waiters) > 0 {
		next := m.waiters[0]
		m.waiters = m.waiters[1:]
		if next.finished {
			continue
		}
		m.owner = next
		m.count.add(p.k, -1)
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitMutex, m.name.String(), next, p, 0)
		}
		p.k.schedule(p.k.now, next)
		return
	}
	m.owner = nil
}

type rwWaiter struct {
	p     *Proc
	write bool
}

type refRWMutex struct {
	name    Name
	readers int
	writer  *Proc
	waiters []rwWaiter
	count   *WaitCount
}

func (rw *refRWMutex) RLock(p *Proc) {
	if rw.writer == nil && len(rw.waiters) == 0 {
		rw.readers++
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWRead, rw.name.String(), p, nil, 0)
		}
		return
	}
	rw.waiters = append(rw.waiters, rwWaiter{p, false})
	rw.count.add(p.k, 1)
	p.park(WaitRWRead, &rw.name)
}

func (rw *refRWMutex) RUnlock(p *Proc) {
	if rw.readers <= 0 {
		panic("sim: RUnlock of " + rw.name.String() + " with no readers")
	}
	rw.readers--
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitRWRead, rw.name.String(), p, nil, 0)
	}
	if rw.readers == 0 {
		rw.dispatch(p)
	}
}

func (rw *refRWMutex) Lock(p *Proc) {
	if rw.writer == nil && rw.readers == 0 && len(rw.waiters) == 0 {
		rw.writer = p
		if p.k.probing() {
			p.k.emit(ProbeAcquire, WaitRWWrite, rw.name.String(), p, nil, 0)
		}
		return
	}
	rw.waiters = append(rw.waiters, rwWaiter{p, true})
	rw.count.add(p.k, 1)
	p.park(WaitRWWrite, &rw.name)
}

func (rw *refRWMutex) Unlock(p *Proc) {
	if rw.writer != p {
		panic("sim: Unlock of " + rw.name.String() + " by non-writer")
	}
	rw.writer = nil
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitRWWrite, rw.name.String(), p, nil, 0)
	}
	rw.dispatch(p)
}

func (rw *refRWMutex) dispatch(p *Proc) {
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
			p.k.emit(ProbeAcquire, WaitRWWrite, rw.name.String(), next, p, 0)
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
			p.k.emit(ProbeAcquire, WaitRWRead, rw.name.String(), next, p, 0)
		}
		p.k.schedule(p.k.now, next)
	}
}

type resWaiter struct {
	p *Proc
	n int64
}

// refResource keeps its busy integral in an embedded Resource whose own
// wait list stays empty: only adjust is shared.
type refResource struct {
	Resource
	waitq []resWaiter
}

func (r *refResource) Acquire(p *Proc, n int64) {
	if r.TryAcquire(p, n) {
		return
	}
	r.waitq = append(r.waitq, resWaiter{p, n})
	p.park(WaitResource, &r.name)
}

func (r *refResource) TryAcquire(p *Proc, n int64) bool {
	if n > r.cap {
		panic(fmt.Sprintf("sim: acquire %d > capacity %d of %s", n, r.cap, r.Name()))
	}
	if len(r.waitq) > 0 || r.inUse+n > r.cap {
		return false
	}
	r.adjust(p.k, n)
	if p.k.probing() {
		p.k.emit(ProbeAcquire, WaitResource, r.Name(), p, nil, n)
	}
	return true
}

func (r *refResource) Release(p *Proc, n int64) {
	if r.inUse < n {
		panic("sim: over-release of " + r.Name())
	}
	r.adjust(p.k, -n)
	if p.k.probing() {
		p.k.emit(ProbeRelease, WaitResource, r.Name(), p, nil, n)
	}
	for len(r.waitq) > 0 {
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
			p.k.emit(ProbeAcquire, WaitResource, r.Name(), w.p, p, w.n)
		}
		p.k.schedule(p.k.now, w.p)
	}
}

type refWaitGroup struct {
	count   int
	waiters []*Proc
}

func (wg *refWaitGroup) Add(delta int) { wg.count += delta }

func (wg *refWaitGroup) Done(p *Proc) {
	wg.count--
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

func (wg *refWaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.park(WaitWG, nil)
}

type refEvent struct {
	k       *Kernel
	name    Name
	fired   bool
	waiters []*Proc
}

func (e *refEvent) Fire(p *Proc) {
	if e.fired {
		return
	}
	e.fired = true
	for _, w := range e.waiters {
		if e.k.probing() {
			e.k.emit(ProbeWake, WaitEvent, e.name.String(), w, p, 0)
		}
		e.k.schedule(e.k.now, w)
	}
	e.waiters = nil
}

func (e *refEvent) Await(p *Proc) {
	if e.fired {
		return
	}
	e.waiters = append(e.waiters, p)
	p.park(WaitEvent, &e.name)
}

type refQueue struct {
	name    Name
	items   []int
	waiters []*Proc
	closed  bool
}

func (q *refQueue) Push(p *Proc, v int) {
	q.items = append(q.items, v)
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
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

func (q *refQueue) Close(p *Proc) {
	q.closed = true
	for _, w := range q.waiters {
		if p.k.probing() {
			p.k.emit(ProbeWake, WaitQueue, q.name.String(), w, p, 0)
		}
		p.k.schedule(p.k.now, w)
	}
	q.waiters = nil
}

func (q *refQueue) Pop(p *Proc) (int, bool) {
	for len(q.items) == 0 {
		if q.closed {
			return 0, false
		}
		q.waiters = append(q.waiters, p)
		p.park(WaitQueue, &q.name)
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// The method sets both implementations share.
type (
	locker interface {
		Lock(*Proc)
		Unlock(*Proc)
	}
	rwLocker interface {
		locker
		RLock(*Proc)
		RUnlock(*Proc)
	}
	resource interface {
		Acquire(*Proc, int64)
		TryAcquire(*Proc, int64) bool
		Release(*Proc, int64)
		Busy() Duration
		InUse() int64
	}
	intQueue interface {
		Push(*Proc, int)
		Pop(*Proc) (int, bool)
		Close(*Proc)
	}
	broadcast interface {
		Await(*Proc)
		Fire(*Proc)
	}
	waitGroup interface {
		Add(int)
		Done(*Proc)
		Wait(*Proc)
	}
)

// The script's operations. Each targets primitive i of its kind (or, for
// doKill, proc i).
const (
	doSleep     = iota
	doLock      // Lock, sleep d, Unlock (deferred)
	doRead      // RLock, sleep d, RUnlock (deferred)
	doWrite     // Lock, sleep d, Unlock (deferred) on an RWMutex
	doAcquire   // Acquire n, sleep d, Release n (deferred)
	doTry       // TryAcquire n, Release n if taken
	doPush      // Push unless the script closed the queue
	doPop       // Pop, logging the item or the close
	doClose     // Close the queue
	doAwait     // Await the event
	doFire      // Fire the event
	doWait      // Wait on the group
	doDone      // Done on the group (the group is Added once per doDone)
	doKill      // Kill proc i unless it is the caller
	doDeferLock // defer Lock+Unlock of a mutex: parks in the unwind of a kill
	numDos
)

type op struct {
	kind int
	i    int
	n    int64
	d    Duration
}

type procScript struct {
	start Duration
	ops   []op
}

const (
	numPrims = 2 // primitives of each kind
	resCap   = 3
)

// world is one implementation's primitives and the script's shared state.
type world struct {
	mu       [numPrims]locker
	rw       [numPrims]rwLocker
	res      [numPrims]resource
	q        [numPrims]intQueue
	ev       [numPrims]broadcast
	wg       [numPrims]waitGroup
	counts   [numPrims]*WaitCount
	closed   [numPrims]bool
	killed   map[*Proc]bool
	returned map[*Proc]bool
	out      []byte
}

func newWorld(k *Kernel, ref bool, script []procScript) *world {
	w := &world{killed: map[*Proc]bool{}, returned: map[*Proc]bool{}}
	for i := range numPrims {
		c := &WaitCount{}
		w.counts[i] = c
		name := func(kind string) string { return fmt.Sprintf("%s%d", kind, i) }
		if ref {
			w.mu[i] = &refMutex{name: Name{s: name("mu")}, count: c}
			w.rw[i] = &refRWMutex{name: Name{s: name("rw")}, count: c}
			w.res[i] = &refResource{Resource: *NewResource(name("res"), resCap)}
			w.q[i] = &refQueue{name: Name{s: name("q")}}
			w.ev[i] = &refEvent{k: k, name: Name{s: name("ev")}}
			w.wg[i] = &refWaitGroup{}
		} else {
			w.mu[i] = NewMutex(name("mu")).CountWaiters(c)
			w.rw[i] = NewRWMutex(name("rw")).CountWaiters(c)
			w.res[i] = NewResource(name("res"), resCap)
			w.q[i] = NewQueue[int](name("q"))
			w.ev[i] = NewEvent(k, name("ev"))
			w.wg[i] = &WaitGroup{}
		}
	}
	for _, ps := range script {
		for _, o := range ps.ops {
			if o.kind == doDone {
				w.wg[o.i].Add(1)
			}
		}
	}
	return w
}

func (w *world) logf(p *Proc, format string, args ...any) {
	w.out = fmt.Appendf(w.out, "%d p%d ", p.Now(), p.ID())
	w.out = fmt.Appendf(w.out, format, args...)
	w.out = append(w.out, '\n')
}

// exec runs a proc's ops and, once their deferred cleanup has run too,
// logs that the proc returned.
func (w *world) exec(p *Proc, procs []*Proc, ops []op) {
	w.steps(p, procs, ops)
	w.logf(p, "exit")
	w.returned[p] = true
}

func (w *world) steps(p *Proc, procs []*Proc, ops []op) {
	for step, o := range ops {
		switch o.kind {
		case doSleep:
			p.Sleep(o.d)
		case doLock:
			func() {
				m := w.mu[o.i]
				m.Lock(p)
				defer m.Unlock(p)
				p.Sleep(o.d)
			}()
		case doRead:
			func() {
				rw := w.rw[o.i]
				rw.RLock(p)
				defer rw.RUnlock(p)
				p.Sleep(o.d)
			}()
		case doWrite:
			func() {
				rw := w.rw[o.i]
				rw.Lock(p)
				defer rw.Unlock(p)
				p.Sleep(o.d)
			}()
		case doAcquire:
			func() {
				r := w.res[o.i]
				r.Acquire(p, o.n)
				defer r.Release(p, o.n)
				p.Sleep(o.d)
			}()
		case doTry:
			ok := w.res[o.i].TryAcquire(p, o.n)
			w.logf(p, "try res%d %d %v", o.i, o.n, ok)
			if ok {
				w.res[o.i].Release(p, o.n)
			}
		case doPush:
			if !w.closed[o.i] {
				w.q[o.i].Push(p, p.ID()*100+step)
			}
		case doPop:
			v, ok := w.q[o.i].Pop(p)
			w.logf(p, "pop q%d %d %v", o.i, v, ok)
		case doClose:
			w.closed[o.i] = true
			w.q[o.i].Close(p)
		case doAwait:
			w.ev[o.i].Await(p)
			w.logf(p, "woke ev%d", o.i)
		case doFire:
			w.ev[o.i].Fire(p)
		case doWait:
			w.wg[o.i].Wait(p)
			w.logf(p, "woke wg%d", o.i)
		case doDone:
			w.wg[o.i].Done(p)
		case doKill:
			if v := procs[o.i]; v != p {
				if !v.Finished() {
					w.killed[v] = true
				}
				p.k.Kill(v)
			}
		case doDeferLock:
			m := w.mu[o.i]
			defer func() {
				m.Lock(p)
				m.Unlock(p)
			}()
		}
	}
}

// runScript runs script on a fresh kernel with one implementation and
// returns everything it observed.
func runScript(script []procScript, ref bool) (string, *world, []*Proc) {
	k := NewKernel()
	w := newWorld(k, ref, script)
	k.SetProbe(func(at Duration, ev ProbeEvent) {
		waker := 0
		if ev.Waker != nil {
			waker = ev.Waker.ID()
		}
		w.out = fmt.Appendf(w.out, "%d %s %s %q p%d w%d n%d\n",
			at, ev.Kind, ev.Class, ev.Obj, ev.Proc.ID(), waker, ev.N)
	})
	procs := make([]*Proc, len(script))
	for i, ps := range script {
		procs[i] = k.GoAt(ps.start, fmt.Sprintf("p%d", i), func(p *Proc) { w.exec(p, procs, ps.ops) })
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				w.out = fmt.Appendf(w.out, "panic %v\n", r)
			}
		}()
		k.Run()
	}()
	now, seq, procSeq := k.Clock()
	w.out = fmt.Appendf(w.out, "clock %d %d %d\n", now, seq, procSeq)
	for i := range numPrims {
		w.out = fmt.Appendf(w.out, "count%d %d %d res%d %d %d\n",
			i, w.counts[i].Depth(), w.counts[i].Peak(), i, w.res[i].Busy(), w.res[i].InUse())
	}
	return string(w.out), w, procs
}

// randomScript draws a script of 2-11 procs with up to 8 operations each
// over two primitives of each kind, with short sleeps so that many procs
// contend at the same instants. A last proc fires every event and closes
// every queue long after the others start, so fewer runs end deadlocked.
func randomScript(seed uint64) []procScript {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	script := make([]procScript, 2+r.IntN(10))
	for i := range script {
		ps := &script[i]
		ps.start = Duration(r.IntN(4)) * time.Microsecond
		for range 1 + r.IntN(8) {
			o := op{kind: r.IntN(numDos), i: r.IntN(numPrims), n: 1 + r.Int64N(resCap),
				d: Duration(r.IntN(4)) * time.Microsecond}
			if o.kind == doKill {
				o.i = r.IntN(len(script))
			}
			ps.ops = append(ps.ops, o)
		}
	}
	janitor := procScript{start: 50 * time.Microsecond}
	for i := range numPrims {
		janitor.ops = append(janitor.ops, op{kind: doFire, i: i}, op{kind: doClose, i: i})
	}
	return append(script, janitor)
}

// checkScript runs script on both implementations and fails t on any
// difference, or on a proc that returned and is still linked on a wait
// list (one unwound by a kill or by the run's end may stay linked, as it
// stayed in the reference's slice, until a handoff skips it).
func checkScript(t *testing.T, name string, script []procScript) (string, *world) {
	t.Helper()
	got, w, procs := runScript(script, false)
	want, _, _ := runScript(script, true)
	if got != want {
		t.Fatalf("%s: wait lists diverge from the reference at line %d\n--- wait lists\n%s\n--- reference\n%s",
			name, firstDiffLine(got, want), got, want)
	}
	for _, p := range procs {
		if w.returned[p] && (p.queued || p.next != nil) {
			t.Fatalf("%s: proc %d ended still linked on a wait list", name, p.ID())
		}
	}
	return got, w
}

func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

func TestWaitListsMatchReference(t *testing.T) {
	var blocks, kills, deadlocks int
	for seed := range uint64(3000) {
		out, w := checkScript(t, fmt.Sprintf("seed %d", seed), randomScript(seed))
		blocks += strings.Count(out, " block ")
		kills += len(w.killed)
		if strings.Contains(out, "panic sim: deadlock") {
			deadlocks++
		}
	}
	if blocks == 0 || kills == 0 || deadlocks == 0 {
		t.Fatalf("vacuous: %d blocks, %d kills, %d deadlocks", blocks, kills, deadlocks)
	}
	t.Logf("%d blocks, %d kills, %d deadlocks", blocks, kills, deadlocks)
}

// TestWaitListBroadcastThenPark: procs woken by an event and by a group
// park at once on a mutex, FIFO behind each other, with no link left from
// the broadcast.
func TestWaitListBroadcastThenPark(t *testing.T) {
	us := time.Microsecond
	script := []procScript{
		{0, []op{{kind: doLock, i: 0, d: 5 * us}}},
		{0, []op{{kind: doAwait, i: 0}, {kind: doLock, i: 0, d: us}, {kind: doPop, i: 0}}},
		{0, []op{{kind: doAwait, i: 0}, {kind: doWait, i: 1}, {kind: doLock, i: 0, d: us}}},
		{0, []op{{kind: doWait, i: 1}, {kind: doLock, i: 0, d: us}, {kind: doPush, i: 0}}},
		{us, []op{{kind: doFire, i: 0}, {kind: doDone, i: 1}}},
	}
	out, _ := checkScript(t, "broadcast-then-park", script)
	if strings.Count(out, ` block mutex "mu0"`) != 3 {
		t.Fatalf("want three procs parked on mu0 after the broadcasts:\n%s", out)
	}
}

// TestWaitListKilledWaiterParksAgain: a proc killed while parked on one
// mutex parks on a second one from its deferred cleanup. It must not cut
// the first list, and both lists must skip it at handoff.
func TestWaitListKilledWaiterParksAgain(t *testing.T) {
	us := time.Microsecond
	script := []procScript{
		{0, []op{{kind: doLock, i: 0, d: 10 * us}}},
		{0, []op{{kind: doLock, i: 1, d: 10 * us}}},
		{us, []op{{kind: doDeferLock, i: 1}, {kind: doLock, i: 0, d: us}}}, // the victim
		{2 * us, []op{{kind: doLock, i: 0, d: us}}},
		{2 * us, []op{{kind: doLock, i: 1, d: us}}},
		{3 * us, []op{{kind: doKill, i: 2}}},
	}
	out, _ := checkScript(t, "killed-waiter-parks-again", script)
	if strings.Count(out, " exit\n") != 5 || strings.Contains(out, "panic") {
		t.Fatalf("want every proc but the victim to return:\n%s", out)
	}
}
