package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestKillSleepingProc kills a proc parked in Sleep: the victim's body must
// not resume, its deferred cleanup must run, and the simulation must drain
// without a deadlock from the stale wakeup left in the event queue.
func TestKillSleepingProc(t *testing.T) {
	k := NewKernel()
	var resumed, cleaned bool
	victim := k.Go("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(10 * time.Millisecond)
		resumed = true
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Kill(victim)
		if !victim.Finished() {
			t.Error("victim not finished immediately after Kill")
		}
	})
	k.Run()
	if resumed {
		t.Error("victim body resumed past its park after Kill")
	}
	if !cleaned {
		t.Error("victim's deferred cleanup did not run")
	}
}

// TestKillIsNoOpOnFinished kills an already-finished proc: must be a no-op.
func TestKillIsNoOpOnFinished(t *testing.T) {
	k := NewKernel()
	done := k.Go("short", func(p *Proc) {})
	k.Go("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Kill(done) // already exited
		k.Kill(done) // and twice
	})
	k.Run()
}

// TestKillNeverStartedProc kills a proc whose body never ran (spawned for a
// future time): the body must not run at all and Join must still unblock.
func TestKillNeverStartedProc(t *testing.T) {
	k := NewKernel()
	var ran bool
	victim := k.GoAt(time.Second, "future", func(p *Proc) { ran = true })
	k.Go("killer", func(p *Proc) {
		k.Kill(victim)
		p.Join(victim) // doneEv fired by exit bookkeeping
	})
	k.Run()
	if ran {
		t.Error("never-started victim's body ran")
	}
}

// TestKillMutexWaiterSkipsHandoff kills a proc parked in Mutex.Lock: Unlock
// must hand the mutex to the next live waiter, not the corpse.
func TestKillMutexWaiterSkipsHandoff(t *testing.T) {
	k := NewKernel()
	m := NewMutex("m")
	var got []string
	k.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(5 * time.Millisecond)
		m.Unlock(p)
	})
	victim := k.Go("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		m.Lock(p)
		got = append(got, "victim")
		m.Unlock(p)
	})
	k.Go("live", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		m.Lock(p)
		got = append(got, "live")
		m.Unlock(p)
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		k.Kill(victim)
	})
	k.Run()
	if len(got) != 1 || got[0] != "live" {
		t.Errorf("lock handoff order = %v, want [live]", got)
	}
	if m.Locked() {
		t.Error("mutex still held after drain")
	}
}

// TestKillLastMutexWaiterFreesLock kills the only waiter: Unlock must leave
// the mutex free rather than owned by a corpse.
func TestKillLastMutexWaiterFreesLock(t *testing.T) {
	k := NewKernel()
	m := NewMutex("m")
	k.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(5 * time.Millisecond)
		m.Unlock(p)
		if m.Locked() {
			t.Error("mutex owned after handing off to a killed waiter")
		}
	})
	victim := k.Go("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		m.Lock(p)
		t.Error("killed victim acquired the mutex")
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		k.Kill(victim)
	})
	k.Run()
}

// TestKillResourceWaiterKeepsUnits kills a proc parked in Resource.Acquire:
// Release must not take units on the corpse's behalf, and later live
// acquisitions must see full capacity.
func TestKillResourceWaiterKeepsUnits(t *testing.T) {
	k := NewKernel()
	r := NewResource("r", 4)
	k.Go("holder", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(5 * time.Millisecond)
		r.Release(p, 4)
	})
	victim := k.Go("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 2)
		t.Error("killed victim acquired resource units")
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		k.Kill(victim)
	})
	k.Go("late", func(p *Proc) {
		p.Sleep(6 * time.Millisecond)
		if r.InUse() != 0 {
			t.Errorf("r.InUse() = %d after release, want 0 (units leaked to corpse)", r.InUse())
		}
		r.Acquire(p, 4)
		r.Release(p, 4)
	})
	k.Run()
}

// TestKillDuringResourceUseReturnsUnits kills a proc inside Resource.Use's
// occupancy sleep: the deferred Release must restore the units.
func TestKillDuringResourceUseReturnsUnits(t *testing.T) {
	k := NewKernel()
	r := NewResource("r", 4)
	victim := k.Go("victim", func(p *Proc) {
		r.Use(p, 3, 10*time.Millisecond)
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if r.InUse() != 3 {
			t.Fatalf("r.InUse() = %d before kill, want 3", r.InUse())
		}
		k.Kill(victim)
		if r.InUse() != 0 {
			t.Errorf("r.InUse() = %d after kill, want 0 (deferred Release must run)", r.InUse())
		}
	})
	k.Run()
}

// TestKillQueueWaiterPassesItemOn kills a proc parked in Queue.Pop: a Push
// must wake the next live waiter so the item is not stranded.
func TestKillQueueWaiterPassesItemOn(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int]("q")
	var got []int
	victim := k.Go("victim", func(p *Proc) {
		v, ok := q.Pop(p)
		t.Errorf("killed victim popped (%d, %v)", v, ok)
	})
	k.Go("live", func(p *Proc) {
		p.Sleep(time.Millisecond)
		v, ok := q.Pop(p)
		if ok {
			got = append(got, v)
		}
	})
	k.Go("producer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		k.Kill(victim)
		q.Push(p, 7)
		q.Close(p)
	})
	k.Run()
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("live consumer got %v, want [7]", got)
	}
}

// TestKillMutexOwnerThenWaiterUnlockViaDefer kills a proc that holds a mutex
// with a deferred Unlock: the defer runs during the kill unwind and hands
// the lock to the waiter.
func TestKillMutexOwnerThenWaiterUnlockViaDefer(t *testing.T) {
	k := NewKernel()
	m := NewMutex("m")
	var acquired bool
	victim := k.Go("victim", func(p *Proc) {
		m.Lock(p)
		defer m.Unlock(p)
		p.Sleep(10 * time.Millisecond)
	})
	k.Go("waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		m.Lock(p)
		acquired = true
		m.Unlock(p)
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		k.Kill(victim)
	})
	k.Run()
	if !acquired {
		t.Error("waiter never acquired the mutex released by the victim's deferred Unlock")
	}
}

// TestKillDeterminism runs the same kill-heavy schedule twice and compares
// the trace byte for byte.
func TestKillDeterminism(t *testing.T) {
	// Victims and survivors use disjoint primitives, mirroring a fleet host
	// crash: every proc sharing the dead host's locks dies in one sweep, so
	// primitives stranded mid-handoff are only ever observed by corpses.
	run := func() []string {
		k := NewKernel()
		var lines []string
		mkGroup := func(tag string, r *Resource, m *Mutex) []*Proc {
			var procs []*Proc
			for i := 0; i < 4; i++ {
				i := i
				p := k.Go(tag, func(p *Proc) {
					func() {
						m.Lock(p)
						defer m.Unlock(p)
						p.Sleep(time.Duration(i+1) * time.Millisecond)
					}()
					r.Use(p, 1, time.Duration(i+1)*time.Millisecond)
					lines = append(lines, fmt.Sprintf("%s%d-done", tag, i))
				})
				procs = append(procs, p)
			}
			return procs
		}
		victims := mkGroup("v", NewResource("rA", 2), NewMutex("mA"))
		mkGroup("s", NewResource("rB", 2), NewMutex("mB"))
		k.Go("killer", func(p *Proc) {
			p.Sleep(3 * time.Millisecond)
			for _, v := range victims {
				k.Kill(v)
			}
			lines = append(lines, "killed")
		})
		k.Run()
		return lines
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
