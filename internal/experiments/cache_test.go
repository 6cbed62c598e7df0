package experiments

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastiov/internal/cluster"
)

// TestStartupResultDoesNotPinHost checks that a sealed startup result, the
// value the scenario cache keeps, does not keep its host's substrate
// reachable: the audit tore every sandbox down, and each one reaches the
// host's hypervisor environment and through it its KVM, memory, VFIO and
// fastiovd state. Finalizers on the environment and the memory allocator
// report whether the collector freed them once the host is dropped.
func TestStartupResultDoesNotPinHost(t *testing.T) {
	for _, b := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		s := startupSpec{bootSpec: bootSpec{Baseline: b}, N: 8}
		opts, err := s.options(1)
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.boot(opts)
		if err != nil {
			t.Fatal(err)
		}
		var envFreed, memFreed atomic.Bool
		runtime.SetFinalizer(h.Env, func(any) { envFreed.Store(true) })
		runtime.SetFinalizer(h.Mem, func(any) { memFreed.Store(true) })
		res, err := s.measure(h)
		if err != nil {
			t.Fatal(err)
		}
		h = nil
		// Finalizers run on their own goroutine after the cycle that
		// finds the object unreachable; give them a bounded while.
		for i := 0; i < 50 && !(envFreed.Load() && memFreed.Load()); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if !envFreed.Load() || !memFreed.Load() {
			t.Errorf("%s: the sealed result keeps its host's substrate reachable", b)
		}
		if res.Totals.N() != s.N {
			t.Errorf("%s: %d totals, want %d", b, res.Totals.N(), s.N)
		}
		runtime.KeepAlive(res)
	}
}
