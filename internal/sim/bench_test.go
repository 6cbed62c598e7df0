package sim

// Microbenchmarks for the kernel's hot paths: the spawn/join cycle (a
// proc record on a pooled coroutine), the flat event queue, a queued sleep
// as a coroutine switch pair (Sleep) or as a kernel-side step (Steps), and
// a contended park and handoff on each primitive. They are gated in CI:
// BenchmarkEventQueue, the two queued benchmarks and
// BenchmarkKernelContended must report 0 allocs/op in steady state — any
// regression back to a boxing or per-push-allocating queue, or to a
// per-wake or per-park allocation, fails the bench smoke job — and
// BenchmarkKernelSpawnJoin may not allocate more per op than its recorded
// value. Seed numbers live in BENCH_kernel.json.

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkKernelSpawnJoin measures one spawn → sleep → join cycle: the
// per-simulated-thread overhead (proc record, binding the idle coroutine
// the previous child returned to, two scheduler passes, done-event fire).
// Only one child is alive at a time, so every cycle after the first
// reuses one coroutine; the op allocates the proc record and the body's
// closure, and no iter.Pull.
func BenchmarkKernelSpawnJoin(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Go("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c := k.Go("child", func(c *Proc) { c.Sleep(time.Microsecond) })
			p.Join(c)
		}
	})
	k.Run()
}

// BenchmarkEventQueue drives the flat heap through full push/pop cycles at
// three sizes. The backing array is warmed before the timer starts, so the
// measured loop is the steady state the simulator lives in — it must run
// allocation-free (CI enforces 0 allocs/op).
func BenchmarkEventQueue(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := NewRand(42)
			at := make([]Duration, n)
			for i := range at {
				at[i] = Duration(rng.Uint64() % uint64(time.Second))
			}
			var q eventQueue
			// Warm the backing array to capacity n.
			for j := 0; j < n; j++ {
				q.push(event{at: at[j], seq: uint64(j)})
			}
			for q.len() > 0 {
				q.pop()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					q.push(event{at: at[j], seq: uint64(j)})
				}
				prev := event{at: -1}
				for q.len() > 0 {
					e := q.pop()
					if e.less(prev) {
						b.Fatalf("heap order violated: %v after %v", e, prev)
					}
					prev = e
				}
			}
		})
	}
}

// BenchmarkKernelSleepFastPath measures the inline-advance case: a lone
// proc sleeping with no competing events skips the coroutine switch
// entirely.
func BenchmarkKernelSleepFastPath(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	k.Run()
}

// BenchmarkKernelSleepQueued measures one queued sleep: procs procs sleep
// 1us round-robin, so every wake goes through the event queue and costs a
// coroutine switch into the proc and one back. One op is one sleep.
func BenchmarkKernelSleepQueued(b *testing.B) { benchmarkQueued(b, false) }

// BenchmarkKernelStepsQueued is BenchmarkKernelSleepQueued with the loop
// written as a Stepper: every wake runs the next step on the kernel's
// stack, with no coroutine switch.
func BenchmarkKernelStepsQueued(b *testing.B) { benchmarkQueued(b, true) }

func benchmarkQueued(b *testing.B, steps bool) {
	for _, procs := range []int{2, 1000} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			k := NewKernel()
			left := b.N
			for i := 0; i < procs; i++ {
				k.Go("rr", func(p *Proc) {
					c := &countdown{left: &left}
					// A coroutine's first resume allocates: start every
					// proc before the timer does.
					p.Yield()
					if steps {
						p.Steps(c)
						return
					}
					for left > 0 {
						left--
						p.Sleep(time.Microsecond)
					}
				})
			}
			k.Go("timer", func(*Proc) { b.ResetTimer() })
			b.ReportAllocs()
			k.Run()
		})
	}
}

// BenchmarkKernelContended measures one contended park and handoff on each
// primitive: every Lock, Acquire, Pop, Await and Wait parks its proc on
// the primitive's wait list, and an Unlock, Release, Push, Fire or Done
// unlinks and wakes it. One op is one handoff (one broadcast round for
// event-waitgroup). Wait lists are linked through the procs, so the steady
// state allocates nothing.
func BenchmarkKernelContended(b *testing.B) {
	const us = time.Microsecond
	cases := []struct {
		name string
		// spawn starts the contending procs; each takes an op from left
		// while it is positive.
		spawn func(k *Kernel, left *int)
	}{
		{"mutex", func(k *Kernel, left *int) {
			m := NewMutex("m")
			for range 4 {
				k.Go("locker", func(p *Proc) {
					for ; *left > 0; *left-- {
						m.Lock(p)
						p.Sleep(us)
						m.Unlock(p)
					}
				})
			}
		}},
		{"rwmutex", func(k *Kernel, left *int) {
			rw := NewRWMutex("rw")
			for i := range 4 {
				k.Go("rw", func(p *Proc) {
					for ; *left > 0; *left-- {
						if i%2 == 0 {
							rw.Lock(p)
							p.Sleep(us)
							rw.Unlock(p)
						} else {
							rw.RLock(p)
							p.Sleep(us)
							rw.RUnlock(p)
						}
					}
				})
			}
		}},
		{"resource", func(k *Kernel, left *int) {
			r := NewResource("r", 2)
			for i := range 4 {
				k.Go("user", func(p *Proc) {
					for ; *left > 0; *left-- {
						r.Use(p, int64(1+i%2), us)
					}
				})
			}
		}},
		{"queue", func(k *Kernel, left *int) {
			q := NewQueue[int]("q")
			for range 2 {
				k.Go("consumer", func(p *Proc) {
					for {
						if _, ok := q.Pop(p); !ok {
							return
						}
					}
				})
			}
			k.Go("producer", func(p *Proc) {
				for ; *left > 0; *left-- {
					q.Push(p, *left)
					p.Sleep(us)
				}
				q.Close(p)
			})
		}},
		{"event-waitgroup", func(k *Kernel, left *int) {
			const waiters = 3
			var ev Event
			var wg WaitGroup
			ev.Init(k, "ev")
			for range waiters {
				k.GoDaemon("waiter", func(p *Proc) {
					for {
						ev.Await(p)
						wg.Done(p)
						p.Sleep(2 * us)
					}
				})
			}
			k.Go("driver", func(p *Proc) {
				for ; *left > 0; *left-- {
					wg.Add(waiters)
					p.Sleep(3 * us)
					ev.Fire(p)
					wg.Wait(p)
					ev.Init(k, "ev")
				}
			})
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel()
			// A few rounds first: coroutines are created at their first
			// resume and the event heap grows to its peak.
			left := b.N + 8
			c.spawn(k, &left)
			k.Go("timer", func(p *Proc) {
				for left > b.N {
					p.Sleep(us)
				}
				b.ResetTimer()
			})
			b.ReportAllocs()
			k.Run()
		})
	}
}
