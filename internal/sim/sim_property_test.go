package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// Property: under any workload of sleeps, total virtual time equals the
// maximum per-proc sum when procs are independent.
func TestIndependentProcsMakespanProperty(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		if len(raw) == 0 || len(raw) > 20 {
			return true
		}
		k := NewKernel(1)
		var want Duration
		for _, r := range raw {
			total := Duration(int(r[0])+int(r[1])+int(r[2])) * time.Millisecond
			if total > want {
				want = total
			}
			r := r
			k.Go("p", func(p *Proc) {
				for _, d := range r {
					p.Sleep(Duration(d) * time.Millisecond)
				}
			})
		}
		return k.Run() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a mutex-protected counter survives any interleaving intact.
func TestMutexCounterProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 || len(delays) > 30 {
			return true
		}
		k := NewKernel(7)
		m := NewMutex("m")
		counter := 0
		for _, d := range delays {
			d := d
			k.Go("w", func(p *Proc) {
				p.Sleep(Duration(d) * time.Microsecond)
				m.Lock(p)
				v := counter
				p.Sleep(time.Microsecond) // widen the race window
				counter = v + 1
				m.Unlock(p)
			})
		}
		k.Run()
		return counter == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Resource never exceeds capacity for any acquire pattern.
func TestResourceCapacityProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 25 {
			return true
		}
		k := NewKernel(3)
		r := NewResource("r", 7)
		var held Duration
		for _, s := range sizes {
			n := int64(s%7) + 1
			held += Duration(n) * time.Duration(s) * time.Microsecond
			k.Go("u", func(p *Proc) { r.Use(p, n, time.Duration(s)*time.Microsecond) })
		}
		end := k.Run()
		// Every hold is charged in full, and the units held never exceed
		// the capacity at any instant, so the integral is at most 7×end.
		return r.Busy() == held && r.Busy() <= 7*end && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The kernel must support multiple Run phases: work, quiesce, more work.
func TestMultiPhaseRun(t *testing.T) {
	k := NewKernel(1)
	phase1 := false
	k.Go("a", func(p *Proc) {
		p.Sleep(time.Second)
		phase1 = true
	})
	if end := k.Run(); end != time.Second || !phase1 {
		t.Fatalf("phase 1: end=%v done=%v", end, phase1)
	}
	phase2 := false
	k.Go("b", func(p *Proc) {
		p.Sleep(time.Second)
		phase2 = true
	})
	if end := k.Run(); end != 2*time.Second || !phase2 {
		t.Fatalf("phase 2: end=%v done=%v", end, phase2)
	}
}

// Daemons are reaped when a Run phase ends (their goroutines unwind so
// tests do not leak); a later phase runs without them and must not wedge.
func TestMultiPhaseWithDaemon(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.GoDaemon("d", func(p *Proc) {
		for {
			p.Sleep(100 * time.Millisecond)
			ticks++
		}
	})
	k.Go("a", func(p *Proc) { p.Sleep(time.Second) })
	k.Run()
	first := ticks
	if first == 0 {
		t.Fatal("daemon never ran")
	}
	k.Go("b", func(p *Proc) { p.Sleep(time.Second) })
	if end := k.Run(); end != 2*time.Second {
		t.Errorf("phase 2 ended at %v", end)
	}
	if ticks != first {
		t.Error("reaped daemon ran again in phase 2")
	}
}

// RWMutex: any mix of readers and writers keeps the invariant
// (readers > 0) XOR (writer held), checked at every entry.
func TestRWMutexInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) == 0 || len(ops) > 25 {
			return true
		}
		k := NewKernel(11)
		rw := NewRWMutex("rw")
		readers, writers := 0, 0
		ok := true
		for _, op := range ops {
			write := op&1 == 1
			d := Duration(op) * time.Microsecond
			k.Go("x", func(p *Proc) {
				p.Sleep(d)
				if write {
					rw.Lock(p)
					writers++
					if writers != 1 || readers != 0 {
						ok = false
					}
					p.Sleep(time.Microsecond)
					writers--
					rw.Unlock(p)
				} else {
					rw.RLock(p)
					readers++
					if writers != 0 {
						ok = false
					}
					p.Sleep(time.Microsecond)
					readers--
					rw.RUnlock(p)
				}
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
