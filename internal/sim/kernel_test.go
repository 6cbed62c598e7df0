package sim

import (
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke Duration
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(150 * time.Millisecond)
		woke = p.Now()
	})
	end := k.Run()
	if woke != 150*time.Millisecond {
		t.Errorf("woke at %v, want 150ms", woke)
	}
	if end != 150*time.Millisecond {
		t.Errorf("run ended at %v, want 150ms", end)
	}
}

func TestSequentialSleepsAccumulate(t *testing.T) {
	k := NewKernel()
	k.Go("p", func(p *Proc) {
		p.Sleep(time.Second)
		p.Sleep(2 * time.Second)
		p.Sleep(3 * time.Second)
		if p.Now() != 6*time.Second {
			t.Errorf("now = %v, want 6s", p.Now())
		}
	})
	k.Run()
}

func TestConcurrentSleepersOverlap(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 10; i++ {
		k.Go("p", func(p *Proc) { p.Sleep(time.Second) })
	}
	if end := k.Run(); end != time.Second {
		t.Errorf("10 parallel 1s sleeps ended at %v, want 1s", end)
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []int {
		k := NewKernel()
		rng := NewRand(42)
		var order []int
		for i := 0; i < 20; i++ {
			i := i
			k.Go("p", func(p *Proc) {
				p.Sleep(Duration(rng.Int63n(1000)) * time.Microsecond)
				order = append(order, i)
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Go("p", func(p *Proc) { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant procs ran out of spawn order: %v", order)
		}
	}
}

func TestGoAt(t *testing.T) {
	k := NewKernel()
	var started Duration
	k.GoAt(3*time.Second, "late", func(p *Proc) { started = p.Now() })
	k.Run()
	if started != 3*time.Second {
		t.Errorf("started at %v, want 3s", started)
	}
}

func TestJoin(t *testing.T) {
	k := NewKernel()
	k.Go("parent", func(p *Proc) {
		child := k.Go("child", func(c *Proc) { c.Sleep(time.Second) })
		p.Join(child)
		if p.Now() != time.Second {
			t.Errorf("join returned at %v, want 1s", p.Now())
		}
		if !child.Finished() {
			t.Error("child not finished after join")
		}
	})
	k.Run()
}

func TestJoinAlreadyFinished(t *testing.T) {
	k := NewKernel()
	k.Go("parent", func(p *Proc) {
		child := k.Go("child", func(c *Proc) {})
		p.Sleep(time.Second)
		p.Join(child) // must not block
		if p.Now() != time.Second {
			t.Errorf("join advanced time to %v", p.Now())
		}
	})
	k.Run()
}

func TestDaemonDoesNotKeepKernelAlive(t *testing.T) {
	k := NewKernel()
	k.GoDaemon("scrubber", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	k.Go("work", func(p *Proc) { p.Sleep(10 * time.Millisecond) })
	if end := k.Run(); end != 10*time.Millisecond {
		t.Errorf("run ended at %v, want 10ms", end)
	}
}

func TestRunForCutsOff(t *testing.T) {
	k := NewKernel()
	finished := false
	k.Go("long", func(p *Proc) {
		p.Sleep(time.Hour)
		finished = true
	})
	end := k.RunFor(time.Minute)
	if end != time.Minute {
		t.Errorf("ended at %v, want 1m", end)
	}
	if finished {
		t.Error("proc body ran past deadline")
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	k := NewKernel()
	a := NewMutex("a")
	b := NewMutex("b")
	k.Go("p1", func(p *Proc) {
		a.Lock(p)
		p.Sleep(time.Millisecond)
		b.Lock(p)
	})
	k.Go("p2", func(p *Proc) {
		b.Lock(p)
		p.Sleep(time.Millisecond)
		a.Lock(p)
	})
	k.Run()
}

func TestSpawnCascade(t *testing.T) {
	// Procs spawning procs spawning procs — 3 generations of 3.
	k := NewKernel()
	count := 0
	var spawn func(depth int) func(*Proc)
	spawn = func(depth int) func(*Proc) {
		return func(p *Proc) {
			count++
			if depth == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				p.Join(k.Go("c", spawn(depth-1)))
			}
		}
	}
	k.Go("root", spawn(2))
	k.Run()
	if count != 1+3+9 {
		t.Errorf("count = %d, want 13", count)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := NewKernel()
	k.Go("p", func(p *Proc) { p.Sleep(time.Second) })
	k.Run()
	k.schedule(0, nil)
}

func TestNegativeSleepIsYield(t *testing.T) {
	k := NewKernel()
	k.Go("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	k.Run()
}

func TestYieldReordersSameInstant(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) { order = append(order, "b") })
	k.Run()
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
