package sim

import (
	"testing"
	"time"
)

// TestResourceBusyIntegralExact drives a capacity-2 resource through
// overlapping holds: one unit for 30 ms plus one unit for 10 ms is 40
// unit-ms. A reader between changes sees the integral through the last
// change; BusyAt extends it with the units still held.
func TestResourceBusyIntegralExact(t *testing.T) {
	k := NewKernel()
	res := NewResource("pool", 2)
	k.Go("a", func(p *Proc) {
		res.Acquire(p, 1)
		p.Sleep(30 * time.Millisecond)
		res.Release(p, 1)
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		res.Acquire(p, 1)
		p.Sleep(10 * time.Millisecond)
		res.Release(p, 1)
	})
	var mid, midAt Duration
	k.Go("reader", func(p *Proc) {
		p.Sleep(25 * time.Millisecond)
		mid, midAt = res.Busy(), res.BusyAt(p.Now())
	})
	end := k.Run()
	if mid != 30*time.Millisecond || midAt != 35*time.Millisecond {
		t.Fatalf("at 25ms: Busy=%v BusyAt=%v, want 30ms (through the 20ms release) and 35ms", mid, midAt)
	}
	if got := res.Busy(); got != 40*time.Millisecond {
		t.Fatalf("busy integral = %v, want 40ms", got)
	}
	if got := res.BusyAt(end); got != res.Busy() {
		t.Fatalf("BusyAt(end) = %v with nothing held, want %v", got, res.Busy())
	}
}

// TestResourceBusyIntegralConserved: every hold is charged in full, and
// the integral never exceeds capacity times elapsed time.
func TestResourceBusyIntegralConserved(t *testing.T) {
	k := NewKernel()
	cpu := NewResource("cpu", 4)
	for i := 0; i < 8; i++ {
		k.Go("p", func(p *Proc) { cpu.Use(p, 1, time.Second) })
	}
	end := k.Run()
	if end != 2*time.Second {
		t.Fatalf("8 jobs on 4 cores ended at %v, want 2s", end)
	}
	if got := cpu.Busy(); got != 8*time.Second {
		t.Fatalf("busy = %v, want 8 core-seconds", got)
	}
}

// TestWaitCountDepthAndPeak drives three procs through one mutex: with a
// 30 ms hold the queue reaches depth 2 and drains one FIFO handoff at a
// time. The depth drops at the handoff instant, so a reader running in the
// same instant after the Unlock sees the lower depth even though the new
// owner has not resumed yet.
func TestWaitCountDepthAndPeak(t *testing.T) {
	k := NewKernel()
	var c WaitCount
	mu := NewMutex("m").CountWaiters(&c)
	for i := 0; i < 3; i++ {
		i := i
		k.Go("p", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			mu.Lock(p)
			p.Sleep(30 * time.Millisecond)
			mu.Unlock(p)
		})
	}
	var atHandoff, before int
	k.Go("reader", func(p *Proc) {
		p.Sleep(29 * time.Millisecond)
		before = c.Depth()
		// Spawned after the holder, so this wakeup at 30ms runs after the
		// holder's Unlock and before the granted waiter resumes.
		p.Sleep(time.Millisecond)
		atHandoff = c.Depth()
	})
	k.Run()
	if before != 2 || atHandoff != 1 {
		t.Fatalf("depth before/at the 30ms handoff = %d/%d, want 2/1", before, atHandoff)
	}
	if c.Peak() != 2 || c.Depth() != 0 {
		t.Fatalf("peak/depth = %d/%d, want 2/0", c.Peak(), c.Depth())
	}
}

// TestWaitCountSharedPeak: locks sharing one tally report the peak of the
// summed depth, which no single lock reached.
func TestWaitCountSharedPeak(t *testing.T) {
	k := NewKernel()
	var c WaitCount
	a := NewMutex("a").CountWaiters(&c)
	b := NewRWMutex("b").CountWaiters(&c)
	k.Go("hold-a", func(p *Proc) { a.Lock(p); p.Sleep(10 * time.Millisecond); a.Unlock(p) })
	k.Go("hold-b", func(p *Proc) { b.Lock(p); p.Sleep(20 * time.Millisecond); b.Unlock(p) })
	k.Go("wait-a", func(p *Proc) { p.Sleep(time.Millisecond); a.Lock(p); a.Unlock(p) })
	k.Go("wait-b", func(p *Proc) { p.Sleep(time.Millisecond); b.RLock(p); b.RUnlock(p) })
	k.Run()
	if c.Peak() != 2 || c.Depth() != 0 {
		t.Fatalf("shared peak/depth = %d/%d, want 2/0", c.Peak(), c.Depth())
	}
}

// TestWaitCountRWReaderBatch: a writer's release admits the whole batch of
// queued readers at once, so the depth drops by the batch size in one
// instant; the writer queued behind them stays counted.
func TestWaitCountRWReaderBatch(t *testing.T) {
	k := NewKernel()
	var c WaitCount
	rw := NewRWMutex("rw").CountWaiters(&c)
	k.Go("w1", func(p *Proc) {
		rw.Lock(p)
		p.Sleep(10 * time.Millisecond)
		rw.Unlock(p)
	})
	for i := 0; i < 3; i++ {
		k.Go("r", func(p *Proc) {
			p.Sleep(time.Millisecond)
			rw.RLock(p)
			p.Sleep(10 * time.Millisecond)
			rw.RUnlock(p)
		})
	}
	k.Go("w2", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		rw.Lock(p)
		rw.Unlock(p)
	})
	var queued, afterBatch int
	k.Go("reader", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		queued = c.Depth()
		p.Sleep(5 * time.Millisecond) // runs after w1's Unlock at 10ms
		afterBatch = c.Depth()
	})
	k.Run()
	if queued != 4 || afterBatch != 1 {
		t.Fatalf("depth queued/after the reader batch = %d/%d, want 4/1", queued, afterBatch)
	}
	if c.Peak() != 4 || c.Depth() != 0 {
		t.Fatalf("peak/depth = %d/%d, want 4/0", c.Peak(), c.Depth())
	}
}

// TestAbortUnwindNotCounted: the release a reaped daemon's deferred
// cleanup performs during abort is not charged, so the integral keeps the
// unit as held; a kill, by contrast, is part of the run and its deferred
// release is charged at the kill instant.
func TestAbortUnwindNotCounted(t *testing.T) {
	k := NewKernel()
	bw := NewResource("bw", 2)
	k.GoDaemon("scrubber", func(p *Proc) { bw.Use(p, 1, time.Hour) })
	victim := k.Go("victim", func(p *Proc) { bw.Use(p, 1, time.Hour) })
	k.Go("killer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		k.Kill(victim)
		p.Sleep(5 * time.Millisecond)
	})
	end := k.Run()
	if bw.InUse() != 0 {
		t.Fatalf("in use after Run = %d, want 0", bw.InUse())
	}
	// The victim's 5 ms are charged at the kill; the scrubber's release
	// during abort is not, so its hold still extends past the end.
	if got := bw.Busy(); got != 10*time.Millisecond {
		t.Fatalf("busy = %v, want 10ms (5ms victim + 5ms scrubber up to the kill)", got)
	}
	if got := bw.BusyAt(end); got != 15*time.Millisecond {
		t.Fatalf("BusyAt(end) = %v, want 15ms (the uncharged scrubber hold runs to the end)", got)
	}
}

// TestWaitCountKilledWaiter: a waiter killed while parked never gets a
// handoff, so it stays counted; the handoff skips it and dequeues only the
// live waiter behind it.
func TestWaitCountKilledWaiter(t *testing.T) {
	k := NewKernel()
	var c WaitCount
	mu := NewMutex("m").CountWaiters(&c)
	k.Go("holder", func(p *Proc) {
		mu.Lock(p)
		p.Sleep(10 * time.Millisecond)
		mu.Unlock(p)
	})
	victim := k.Go("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		mu.Lock(p)
		mu.Unlock(p)
	})
	got := false
	k.Go("survivor", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		mu.Lock(p)
		got = true
		mu.Unlock(p)
	})
	var afterKill int
	k.Go("killer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		k.Kill(victim)
		afterKill = c.Depth()
	})
	k.Run()
	if !got {
		t.Fatal("the live waiter never got the lock")
	}
	if afterKill != 2 || c.Depth() != 1 || c.Peak() != 2 {
		t.Fatalf("depth after kill/at end, peak = %d/%d, %d; want 2/1, 2", afterKill, c.Depth(), c.Peak())
	}
}
