package sim

// Coverage for the kernel's coroutine pool (Kernel.resume, bind, drain): a
// proc gets a coroutine at its first resume, a coroutine whose body
// returned runs the next proc, a stopped one is never reused, and no
// coroutine outlives the Run or RunFor phase that created it, however the
// phase ends.

import (
	"runtime"
	"testing"
	"time"
)

// checkNoGoroutines fails t if the process has more goroutines than
// before. Every coroutine is a goroutine, so a coroutine left behind by a
// kernel shows up here.
func checkNoGoroutines(t *testing.T, before int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines left behind", n-before)
	}
}

// TestUnrunKernelHoldsNoGoroutines: spawning binds no coroutine, so a
// kernel that is never Run holds no goroutine for its procs.
func TestUnrunKernelHoldsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		k := NewKernel(uint64(i))
		k.Go("worker", func(p *Proc) { p.Sleep(time.Microsecond) })
		k.GoDaemon("daemon", func(p *Proc) { p.Sleep(time.Microsecond) })
		k.GoAt(time.Millisecond, "late", func(*Proc) {})
	}
	checkNoGoroutines(t, before)
}

// TestPhaseEndsLeaveNoCoroutine ends a phase every way one can end and
// checks that no coroutine, idle or bound, is left behind.
func TestPhaseEndsLeaveNoCoroutine(t *testing.T) {
	sleeper := func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	}
	cases := []struct {
		name  string
		panic bool // Run is expected to panic
		run   func(k *Kernel)
	}{
		{"run", false, func(k *Kernel) {
			for i := 0; i < 20; i++ {
				k.Go("w", func(p *Proc) { p.Sleep(Duration(i) * time.Microsecond) })
			}
			k.Run()
		}},
		{"runfor-cut", false, func(k *Kernel) {
			for i := 0; i < 20; i++ {
				k.Go("w", sleeper)
			}
			k.Go("short", func(p *Proc) { p.Sleep(time.Microsecond) })
			k.GoAt(time.Second, "never-started", func(*Proc) {})
			k.RunFor(10 * time.Microsecond)
		}},
		{"body-panic", true, func(k *Kernel) {
			k.Go("bystander", sleeper)
			k.Go("done", func(*Proc) {})
			k.Go("bad", func(p *Proc) {
				p.Sleep(time.Microsecond)
				panic("boom")
			})
			k.Run()
		}},
		{"deadlock", true, func(k *Kernel) {
			ev := NewEvent(k, "never")
			k.Go("done", func(*Proc) {})
			k.Go("stuck", func(p *Proc) { ev.Await(p) })
			k.Run()
		}},
		{"step-panic", true, func(k *Kernel) {
			k.Go("bystander", sleeper)
			k.Go("stepper", func(p *Proc) {
				p.Steps(stepFunc(func() (Duration, bool) { panic("step boom") }))
			})
			k.Run()
		}},
		{"kill-started", false, func(k *Kernel) {
			victim := k.Go("victim", sleeper)
			k.Go("killer", func(p *Proc) {
				p.Sleep(3 * time.Microsecond)
				k.Kill(victim)
			})
			k.Run()
		}},
		{"kill-never-started", false, func(k *Kernel) {
			victim := k.GoAt(time.Millisecond, "victim", sleeper)
			k.Go("killer", func(p *Proc) {
				p.Sleep(time.Microsecond)
				k.Kill(victim)
			})
			k.Run()
		}},
		{"multi-phase-daemons", false, func(k *Kernel) {
			for phase := 0; phase < 3; phase++ {
				k.GoDaemon("daemon", sleeper)
				for i := 0; i < 5; i++ {
					k.Go("w", func(p *Proc) { p.Sleep(Duration(i+1) * time.Microsecond) })
				}
				k.Run()
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := NewKernel(1)
			func() {
				defer func() {
					if r := recover(); (r != nil) != tc.panic {
						t.Fatalf("Run panicked with %v, want panic %v", r, tc.panic)
					}
				}()
				tc.run(k)
			}()
			if k.idle != nil {
				t.Error("idle coroutines left after the phase")
			}
			if len(k.procs) != 0 {
				t.Errorf("%d procs left after the phase", len(k.procs))
			}
			checkNoGoroutines(t, before)
		})
	}
}

// TestSequentialProcsShareOneCoroutine: a thousand spawn/join cycles, one
// child alive at a time, all run on the same coroutine.
func TestSequentialProcsShareOneCoroutine(t *testing.T) {
	k := NewKernel(1)
	seen := map[*coro]bool{}
	k.Go("driver", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			c := k.Go("child", func(c *Proc) {
				seen[c.co] = true
				c.Sleep(time.Microsecond)
			})
			p.Join(c)
		}
	})
	k.Run()
	if len(seen) != 1 {
		t.Fatalf("1000 sequential children ran on %d coroutines, want 1", len(seen))
	}
}

// TestKilledCoroutineNotReused: a proc killed while parked takes its
// coroutine with it; procs spawned afterwards never run on it.
func TestKilledCoroutineNotReused(t *testing.T) {
	k := NewKernel(1)
	var killed *coro
	victim := k.Go("victim", func(p *Proc) {
		killed = p.co
		p.Sleep(time.Hour)
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(time.Microsecond)
		before := runtime.NumGoroutine()
		k.Kill(victim)
		if n := runtime.NumGoroutine(); n != before-1 {
			t.Errorf("Kill left %d goroutines, want %d", n, before-1)
		}
		for i := 0; i < 10; i++ {
			c := k.Go("child", func(c *Proc) {
				if c.co == killed {
					t.Error("a child ran on the killed proc's coroutine")
				}
				c.Yield()
			})
			p.Join(c)
		}
		for c := k.idle; c != nil; c = c.nextIdle {
			if c == killed {
				t.Error("the killed proc's coroutine is on the idle list")
			}
		}
	})
	k.Run()
	if killed == nil {
		t.Fatal("victim never ran")
	}
}
