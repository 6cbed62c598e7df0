package sim

// This file defines the kernel's probe interface: a single optional hook
// that observes every scheduler and synchronization-primitive transition.
// The event-sourced tracing subsystem (internal/trace) is built entirely on
// this stream; the kernel itself keeps no trace state.
//
// Probes run while the emitting Proc holds the execution baton, so the
// event order is exactly the deterministic execution order and the probe
// needs no synchronization. A nil probe (the default) costs one pointer
// comparison per emission site.

// ProbeKind enumerates the observable transitions.
type ProbeKind uint8

const (
	// ProbeSpawn: a Proc was created. Waker is the spawning Proc (nil when
	// spawned from outside the simulation, e.g. experiment setup).
	ProbeSpawn ProbeKind = iota
	// ProbeExit: a Proc's body returned.
	ProbeExit
	// ProbeBlock: a Proc parked on Class/Obj (including Sleep, which models
	// the Proc consuming service time).
	ProbeBlock
	// ProbeUnblock: a previously parked Proc resumed execution.
	ProbeUnblock
	// ProbeAcquire: a Proc came to hold a lock or resource units. On a
	// contended FIFO handoff Waker is the granting (releasing) Proc — the
	// wake-up causality edge "who released the lock that unblocked me".
	ProbeAcquire
	// ProbeRelease: a Proc released a lock or resource units.
	ProbeRelease
	// ProbeWake: a Proc was scheduled to wake by Waker without an ownership
	// transfer (queue push, event fire, waitgroup completion).
	ProbeWake
)

// String returns the kind's canonical lower-case name.
func (k ProbeKind) String() string {
	switch k {
	case ProbeSpawn:
		return "spawn"
	case ProbeExit:
		return "exit"
	case ProbeBlock:
		return "block"
	case ProbeUnblock:
		return "unblock"
	case ProbeAcquire:
		return "acquire"
	case ProbeRelease:
		return "release"
	case ProbeWake:
		return "wake"
	}
	return "?"
}

// WaitClass classifies what a Proc blocks on or holds.
type WaitClass uint8

const (
	WaitNone WaitClass = iota
	WaitSleep
	WaitMutex
	WaitRWRead
	WaitRWWrite
	WaitResource
	WaitQueue
	WaitEvent
	WaitWG
)

// String returns the class name as it appears in deadlock reports and
// contention profiles.
func (c WaitClass) String() string {
	switch c {
	case WaitSleep:
		return "sleep"
	case WaitMutex:
		return "mutex"
	case WaitRWRead:
		return "rwmutex(r)"
	case WaitRWWrite:
		return "rwmutex(w)"
	case WaitResource:
		return "resource"
	case WaitQueue:
		return "queue"
	case WaitEvent:
		return "event"
	case WaitWG:
		return "waitgroup"
	}
	return ""
}

// ProbeEvent is one observed transition. Proc is always the subject; Waker,
// when non-nil, is the causal source (spawner, lock granter, or waker).
type ProbeEvent struct {
	Kind  ProbeKind
	Class WaitClass
	Obj   string // primitive name ("" for sleeps and unnamed primitives)
	Proc  *Proc
	Waker *Proc
	N     int64 // units on Resource acquire/release; 0 elsewhere
}

// SetProbe installs fn as the kernel's probe; nil disables probing. The
// probe must be installed before any simulated work runs and must only
// observe — calling kernel or Proc methods from inside it would re-enter
// the scheduler.
func (k *Kernel) SetProbe(fn func(at Duration, ev ProbeEvent)) { k.probe = fn }

// ChainProbe installs fn downstream of any already-installed probe: each
// event is delivered first to the existing probe, then to fn. This lets
// independent observers (the tracer, a benchmark's event counter) share
// the single probe slot. Like SetProbe, it must be called before any
// simulated work runs.
func (k *Kernel) ChainProbe(fn func(at Duration, ev ProbeEvent)) {
	prev := k.probe
	if prev == nil {
		k.probe = fn
		return
	}
	k.probe = func(at Duration, ev ProbeEvent) {
		prev(at, ev)
		fn(at, ev)
	}
}

// probing reports whether emissions are currently observable. Every
// emission site guards its emit call with this check, so an unobserved run
// pays one inlined nil-check per site and never materializes probe-event
// arguments. Emissions are suppressed during abort: the unwind of parked
// coroutines (deferred releases, stale wakeups) happens after the
// simulation has quiesced and is not part of the observed execution.
func (k *Kernel) probing() bool {
	return k.probe != nil && !k.aborted
}

// emit delivers one probe event at the current virtual time. Callers must
// check probing() first (emit re-checks only as a safety net for direct
// callers in tests).
func (k *Kernel) emit(kind ProbeKind, class WaitClass, obj string, p, waker *Proc, n int64) {
	if k.probe == nil || k.aborted {
		return
	}
	k.probe(k.now, ProbeEvent{Kind: kind, Class: class, Obj: obj, Proc: p, Waker: waker, N: n})
}
