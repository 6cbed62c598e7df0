package sim

import (
	"testing"
	"time"
)

func TestMutexSerializes(t *testing.T) {
	k := NewKernel()
	var waits WaitCount
	m := NewMutex("m").CountWaiters(&waits)
	for i := 0; i < 10; i++ {
		k.Go("p", func(p *Proc) {
			m.Lock(p)
			p.Sleep(time.Second) // 1s critical section
			m.Unlock(p)
		})
	}
	if end := k.Run(); end != 10*time.Second {
		t.Errorf("10 serialized 1s sections ended at %v, want 10s", end)
	}
	if waits.Peak() != 9 {
		t.Errorf("waiter peak = %d, want 9", waits.Peak())
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	k := NewKernel()
	m := NewMutex("m")
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		k.Go("p", func(p *Proc) {
			m.Lock(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			m.Unlock(p)
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("handoff not FIFO: %v", order)
		}
	}
}

func TestMutexRecursionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on recursive lock")
		}
	}()
	k := NewKernel()
	m := NewMutex("m")
	k.Go("p", func(p *Proc) {
		m.Lock(p)
		m.Lock(p)
	})
	k.Run()
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on foreign unlock")
		}
	}()
	k := NewKernel()
	m := NewMutex("m")
	k.Go("owner", func(p *Proc) {
		m.Lock(p)
		p.Sleep(time.Second)
		m.Unlock(p)
	})
	k.Go("thief", func(p *Proc) {
		p.Sleep(time.Millisecond)
		m.Unlock(p)
	})
	k.Run()
}

func TestTryLock(t *testing.T) {
	k := NewKernel()
	m := NewMutex("m")
	k.Go("holder", func(p *Proc) {
		if !m.TryLock(p) {
			t.Error("TryLock on free mutex failed")
		}
		p.Sleep(time.Second)
		m.Unlock(p)
	})
	k.Go("prober", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if m.TryLock(p) {
			t.Error("TryLock on held mutex succeeded")
		}
		p.Sleep(2 * time.Second)
		if !m.TryLock(p) {
			t.Error("TryLock after release failed")
		}
		m.Unlock(p)
	})
	k.Run()
}

func TestRWMutexReadersOverlap(t *testing.T) {
	k := NewKernel()
	rw := NewRWMutex("rw")
	for i := 0; i < 10; i++ {
		k.Go("r", func(p *Proc) {
			rw.RLock(p)
			p.Sleep(time.Second)
			rw.RUnlock(p)
		})
	}
	if end := k.Run(); end != time.Second {
		t.Errorf("10 parallel readers ended at %v, want 1s", end)
	}
}

func TestRWMutexWriterExcludesReaders(t *testing.T) {
	k := NewKernel()
	rw := NewRWMutex("rw")
	var writerDone, readerStart Duration
	k.Go("w", func(p *Proc) {
		rw.Lock(p)
		p.Sleep(time.Second)
		writerDone = p.Now()
		rw.Unlock(p)
	})
	k.Go("r", func(p *Proc) {
		p.Sleep(time.Millisecond) // arrive while writer holds
		rw.RLock(p)
		readerStart = p.Now()
		rw.RUnlock(p)
	})
	k.Run()
	if readerStart < writerDone {
		t.Errorf("reader entered at %v before writer finished at %v", readerStart, writerDone)
	}
}

func TestRWMutexWriterNotStarved(t *testing.T) {
	// Writer arrives while a reader holds; later readers queue behind the
	// writer instead of barging.
	k := NewKernel()
	rw := NewRWMutex("rw")
	var events []string
	k.Go("r1", func(p *Proc) {
		rw.RLock(p)
		p.Sleep(10 * time.Millisecond)
		rw.RUnlock(p)
	})
	k.Go("w", func(p *Proc) {
		p.Sleep(time.Millisecond)
		rw.Lock(p)
		events = append(events, "w")
		rw.Unlock(p)
	})
	k.Go("r2", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		rw.RLock(p)
		events = append(events, "r2")
		rw.RUnlock(p)
	})
	k.Run()
	if len(events) != 2 || events[0] != "w" || events[1] != "r2" {
		t.Errorf("events = %v, want [w r2]", events)
	}
}

func TestRWMutexReaderBatchAdmission(t *testing.T) {
	// After a writer releases, all queued readers enter together.
	k := NewKernel()
	rw := NewRWMutex("rw")
	k.Go("w", func(p *Proc) {
		rw.Lock(p)
		p.Sleep(time.Second)
		rw.Unlock(p)
	})
	for i := 0; i < 5; i++ {
		k.Go("r", func(p *Proc) {
			p.Sleep(time.Millisecond)
			rw.RLock(p)
			p.Sleep(time.Second)
			rw.RUnlock(p)
		})
	}
	if end := k.Run(); end != 2*time.Second {
		t.Errorf("ended at %v, want 2s (writer 1s + one reader batch 1s)", end)
	}
}

func TestResourceCapacityEnforced(t *testing.T) {
	k := NewKernel()
	cpu := NewResource("cpu", 4)
	for i := 0; i < 8; i++ {
		k.Go("p", func(p *Proc) { cpu.Use(p, 1, time.Second) })
	}
	if end := k.Run(); end != 2*time.Second {
		t.Errorf("8 jobs on 4 cores ended at %v, want 2s", end)
	}
	if cpu.InUse() != 0 {
		t.Errorf("in use after run = %d, want 0", cpu.InUse())
	}
}

func TestResourceLargeRequestNotStarved(t *testing.T) {
	k := NewKernel()
	r := NewResource("r", 4)
	var bigAt Duration
	// Two initial holders of 2 units each; a request for 4 queues; a stream
	// of 1-unit requests arrives later and must NOT overtake the big one.
	k.Go("h1", func(p *Proc) { r.Use(p, 2, time.Second) })
	k.Go("h2", func(p *Proc) { r.Use(p, 2, 2*time.Second) })
	k.Go("big", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 4)
		bigAt = p.Now()
		p.Sleep(time.Second)
		r.Release(p, 4)
	})
	for i := 0; i < 4; i++ {
		k.Go("small", func(p *Proc) {
			p.Sleep(2 * time.Millisecond)
			r.Use(p, 1, time.Second)
		})
	}
	k.Run()
	if bigAt != 2*time.Second {
		t.Errorf("big request admitted at %v, want 2s (when both holders released)", bigAt)
	}
}

func TestResourceOverCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	k := NewKernel()
	r := NewResource("r", 2)
	k.Go("p", func(p *Proc) { r.Acquire(p, 3) })
	k.Run()
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	var wg WaitGroup
	var doneAt Duration
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		k.Go("worker", func(p *Proc) {
			p.Sleep(Duration(i) * time.Second)
			wg.Done(p)
		})
	}
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	k.Run()
	if doneAt != 3*time.Second {
		t.Errorf("wait returned at %v, want 3s", doneAt)
	}
}

func TestWaitGroupZeroNoBlock(t *testing.T) {
	k := NewKernel()
	var wg WaitGroup
	k.Go("p", func(p *Proc) {
		wg.Wait(p)
		if p.Now() != 0 {
			t.Error("Wait on zero counter blocked")
		}
	})
	k.Run()
}

func TestEventBroadcast(t *testing.T) {
	k := NewKernel()
	e := NewEvent(k, "ready")
	var wokeAt []Duration
	for i := 0; i < 3; i++ {
		k.Go("waiter", func(p *Proc) {
			e.Await(p)
			wokeAt = append(wokeAt, p.Now())
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(5 * time.Second)
		e.Fire(p)
	})
	k.Run()
	if len(wokeAt) != 3 {
		t.Fatalf("only %d waiters woke", len(wokeAt))
	}
	for _, at := range wokeAt {
		if at != 5*time.Second {
			t.Errorf("waiter woke at %v, want 5s", at)
		}
	}
}

func TestEventAwaitAfterFire(t *testing.T) {
	k := NewKernel()
	e := NewEvent(k, "done")
	k.Go("p", func(p *Proc) {
		e.Fire(p)
		e.Await(p) // must not block
		e.Fire(p)  // double fire is a no-op
	})
	k.Run()
}

func TestQueueFIFO(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int]("q")
	var got []int
	k.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			q.Push(p, i)
		}
		q.Close(p)
	})
	k.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Pop(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	k.Run()
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int]("q")
	total := 0
	for i := 0; i < 3; i++ {
		k.Go("consumer", func(p *Proc) {
			for {
				v, ok := q.Pop(p)
				if !ok {
					return
				}
				total += v
			}
		})
	}
	k.Go("producer", func(p *Proc) {
		for i := 1; i <= 10; i++ {
			q.Push(p, i)
			p.Yield()
		}
		q.Close(p)
	})
	k.Run()
	if total != 55 {
		t.Errorf("total = %d, want 55", total)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(3)
	base := time.Second
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.2)
		if j < 800*time.Millisecond || j > 1200*time.Millisecond {
			t.Fatalf("jitter %v outside [0.8s, 1.2s]", j)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Error("zero-frac jitter changed base")
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", f)
		}
	}
}

// TestIndexedNameFormatsOnFirstRead pins that a lock named by IndexedName
// formats nothing until the name is read, and then once. A park does not
// read it.
func TestIndexedNameFormatsOnFirstRead(t *testing.T) {
	calls := 0
	format := func(b []byte, i int) []byte {
		calls++
		return append(b, byte('0'+i))
	}
	var m Mutex
	m.Init(IndexedName("dev-", 7, format))
	k := NewKernel()
	k.Go("a", func(p *Proc) {
		m.Lock(p)
		p.Sleep(1)
		m.Unlock(p)
	})
	k.Run()
	if calls != 0 {
		t.Fatalf("uncontended lock formatted its name %d times", calls)
	}
	k.Go("a", func(p *Proc) {
		m.Lock(p)
		p.Sleep(1)
		m.Unlock(p)
	})
	k.Go("b", func(p *Proc) {
		m.Lock(p)
		m.Unlock(p)
	})
	k.Run()
	if calls != 0 {
		t.Fatalf("a contended lock formatted its name %d times with no probe", calls)
	}
	if got := m.Name(); got != "dev-7" || calls != 1 {
		t.Fatalf("name %q after %d formats, want dev-7 after 1", got, calls)
	}
}

// TestProcNameFormatsOnFirstRead pins that a proc spawned under a Name
// formats it only when read, and reads as the eager name would.
func TestProcNameFormatsOnFirstRead(t *testing.T) {
	calls := 0
	format := func(b []byte, i int) []byte {
		calls++
		return appendDecimal(b, i)
	}
	k := NewKernel()
	p := k.GoAtName(0, IndexedName("ctr-", 173, format), func(p *Proc) { p.Sleep(1) })
	q := k.GoAtName(5, DecimalName("stop-", 42), func(*Proc) {})
	k.Run()
	if calls != 0 {
		t.Fatalf("an unread proc name was formatted %d times", calls)
	}
	if p.Name() != "ctr-173" || p.Name() != "ctr-173" || calls != 1 {
		t.Fatalf("name %q after %d formats, want ctr-173 after 1", p.Name(), calls)
	}
	if q.Name() != "stop-42" {
		t.Fatalf("name %q, want stop-42", q.Name())
	}
}
