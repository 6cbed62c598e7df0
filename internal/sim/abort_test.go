package sim

// Regression coverage for abort determinism. RunFor's cutoff unwinds every
// parked coroutine; the drain is in ascending proc-id order (see
// Kernel.abort) so any side effect of deferred cleanup — counter updates,
// PRNG draws in teardown paths — lands identically across runs. These
// tests pin that: a 50-proc contended run cut off mid-flight must produce
// a byte-identical probe stream every time, and the abort unwind
// itself must stay invisible to the probe.

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// abortedRunStreams runs a 50-proc workload (sleeps, mutex contention,
// resource queuing, mid-run spawns) cut off by RunFor at 5ms, and returns
// the formatted probe stream and the order in which deferred cleanups
// observed the unwind.
func abortedRunStreams() (probe []byte, cleanup []int) {
	k := NewKernel(99)
	k.SetProbe(func(at Duration, ev ProbeEvent) {
		waker := 0
		if ev.Waker != nil {
			waker = ev.Waker.ID()
		}
		probe = fmt.Appendf(probe, "%d %s %s %q p%d w%d n%d\n",
			at, ev.Kind, ev.Class, ev.Obj, ev.Proc.ID(), waker, ev.N)
	})
	mu := NewMutex("shared")
	res := NewResource("pool", 4)
	rng := k.Rand()
	for i := 0; i < 50; i++ {
		i := i
		jitter := rng.Duration(time.Millisecond)
		k.GoAt(jitter, fmt.Sprintf("worker-%d", i), func(p *Proc) {
			defer func() { cleanup = append(cleanup, i) }()
			for {
				mu.Lock(p)
				p.Sleep(50 * time.Microsecond)
				mu.Unlock(p)
				res.Use(p, 1, 100*time.Microsecond)
				if i%5 == 0 {
					c := k.Go(fmt.Sprintf("child-%d", i), func(c *Proc) {
						c.Sleep(20 * time.Microsecond)
					})
					p.Join(c)
				}
			}
		})
	}
	k.RunFor(5 * time.Millisecond)
	return probe, cleanup
}

// TestAbortStreamsDeterministic aborts the same 50-proc run twice and
// requires a byte-identical probe stream and identical cleanup (unwind)
// order.
func TestAbortStreamsDeterministic(t *testing.T) {
	p1, c1 := abortedRunStreams()
	p2, c2 := abortedRunStreams()
	if !bytes.Equal(p1, p2) {
		t.Errorf("probe streams diverge across identical aborted runs:\nrun1 %d bytes, run2 %d bytes", len(p1), len(p2))
	}
	if len(c1) != len(c2) {
		t.Fatalf("cleanup counts diverge: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("cleanup order diverges at %d: %d vs %d", i, c1[i], c2[i])
		}
	}
	if len(p1) == 0 || len(c1) == 0 {
		t.Fatal("workload produced no probe events or cleanups; test is vacuous")
	}
}

// TestAbortUnwindOrderAscending pins the documented drain order: deferred
// cleanups of procs alive at the cutoff run in ascending proc-id order.
func TestAbortUnwindOrderAscending(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 50; i++ {
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer func() { order = append(order, p.ID()) }()
			p.Sleep(time.Hour)
		})
	}
	k.RunFor(time.Millisecond)
	if len(order) != 50 {
		t.Fatalf("got %d cleanups, want 50", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("unwind order not ascending at %d: %v", i, order[:i+1])
		}
	}
}

// TestAbortSuppressesProbe verifies that the unwind after the cutoff emits
// no probe events: the aborted tail is not part of the observed execution,
// so two runs differing only in post-cutoff unwind work stay identical.
func TestAbortSuppressesProbe(t *testing.T) {
	k := NewKernel(1)
	var last Duration
	var afterCut int
	k.SetProbe(func(at Duration, ev ProbeEvent) {
		last = at
		if at > 2*time.Millisecond {
			afterCut++
		}
	})
	mu := NewMutex("m")
	for i := 0; i < 10; i++ {
		k.Go("w", func(p *Proc) {
			for {
				mu.Lock(p)
				p.Sleep(time.Millisecond)
				mu.Unlock(p)
			}
		})
	}
	k.RunFor(2 * time.Millisecond)
	if afterCut != 0 {
		t.Fatalf("%d probe events after the cutoff (last at %v); abort must suppress emission", afterCut, last)
	}
}
