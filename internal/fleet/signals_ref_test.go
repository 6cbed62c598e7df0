package fleet

// This file keeps the probe-fed saturation watchers that the fleet, the
// host metrics and the saturation experiment read before the signals moved
// into the sim primitives. They are the reference model for
// signals_test.go: the code below is the original watcher code, with only
// the registry type renamed and the Seal step reduced to its watcher half.

import (
	"strings"
	"time"

	"fastiov/internal/sim"
)

// ResourceWatch tracks a sim.Resource through the probe stream, maintaining
// the exact time-weighted busy integral (units x time): every acquire and
// release updates the integral at event granularity, so conservation
// properties hold exactly instead of up to sampling error.
type ResourceWatch struct {
	name  string
	inUse int64
	last  sim.Duration
	busy  int64 // unit-nanoseconds
}

// InUse returns the units currently held, as observed via the probe.
func (w *ResourceWatch) InUse() int64 { return w.inUse }

// Busy returns the accumulated busy integral in unit-seconds, expressed as
// a duration (1 unit held for 1 s == 1 s).
func (w *ResourceWatch) Busy() time.Duration { return time.Duration(w.busy) }

// update advances the integral to at, then applies the in-use delta.
func (w *ResourceWatch) update(at sim.Duration, delta int64) {
	w.busy += w.inUse * int64(at-w.last)
	w.last = at
	w.inUse += delta
}

// Reset zeroes the in-use level after advancing the busy integral to at.
// A host crash kills procs that hold units without a release probe ever
// firing; the fleet calls Reset at the crash instant so the integral stops
// charging the dead holders and the recovered generation (whose primitives
// reuse the scoped name) starts from an empty watch.
func (w *ResourceWatch) Reset(at sim.Duration) {
	w.busy += w.inUse * int64(at-w.last)
	w.last = at
	w.inUse = 0
}

// QueueWatch tracks the waiter-queue depth of every lock whose name matches
// a prefix, via the probe stream: a Block on the lock enters the queue, a
// contended Acquire (FIFO handoff, Waker != nil) leaves it. Peak is exact —
// it observes every transition, not just sample instants.
type QueueWatch struct {
	prefix string
	depth  int
	peak   int
}

// Depth returns the current waiter count.
func (q *QueueWatch) Depth() int { return q.depth }

// Peak returns the maximum waiter count observed.
func (q *QueueWatch) Peak() int { return q.peak }

// Reset zeroes the current depth, keeping the peak. A host crash kills
// blocked waiters whose dequeue handoff never fires; the fleet calls Reset
// at the crash instant so the corpses stop counting as queued.
func (q *QueueWatch) Reset() { q.depth = 0 }

// watchRegistry is the watcher half of the original metrics.Registry.
type watchRegistry struct {
	sealed    bool
	resources map[string]*ResourceWatch
	queues    []*QueueWatch
}

func newWatchRegistry() *watchRegistry {
	return &watchRegistry{resources: make(map[string]*ResourceWatch)}
}

// WatchResource registers an event-driven busy-integral tracker for the
// named sim.Resource. The returned watch is fed by Observer; it must be
// registered before any simulated work runs.
func (r *watchRegistry) WatchResource(name string) *ResourceWatch {
	if w, ok := r.resources[name]; ok {
		return w
	}
	w := &ResourceWatch{name: name}
	r.resources[name] = w
	return w
}

// WatchLockQueue registers an event-driven waiter-queue tracker for every
// mutex/rwmutex whose name starts with prefix.
func (r *watchRegistry) WatchLockQueue(prefix string) *QueueWatch {
	q := &QueueWatch{prefix: prefix}
	r.queues = append(r.queues, q)
	return q
}

// lockClass reports whether a probe wait class is a mutex-family lock.
func lockClass(c sim.WaitClass) bool {
	return c == sim.WaitMutex || c == sim.WaitRWRead || c == sim.WaitRWWrite
}

// Observer returns the registry's kernel probe: it feeds the resource and
// lock-queue watchers and only observes (it never calls back into the
// scheduler). Install it with sim.Kernel.ChainProbe so it composes with the
// tracing probe.
func (r *watchRegistry) Observer() func(at sim.Duration, ev sim.ProbeEvent) {
	return func(at sim.Duration, ev sim.ProbeEvent) {
		if r.sealed {
			return
		}
		switch ev.Kind {
		case sim.ProbeAcquire:
			if ev.Class == sim.WaitResource {
				if w := r.resources[ev.Obj]; w != nil {
					w.update(at, ev.N)
				}
				return
			}
			// A contended FIFO handoff (Waker != nil) is the instant the
			// waiter leaves the lock's queue; uncontended acquires never
			// queued.
			if ev.Waker != nil && lockClass(ev.Class) {
				for _, q := range r.queues {
					if strings.HasPrefix(ev.Obj, q.prefix) {
						q.depth--
					}
				}
			}
		case sim.ProbeRelease:
			if ev.Class == sim.WaitResource {
				if w := r.resources[ev.Obj]; w != nil {
					w.update(at, -ev.N)
				}
			}
		case sim.ProbeBlock:
			if lockClass(ev.Class) {
				for _, q := range r.queues {
					if strings.HasPrefix(ev.Obj, q.prefix) {
						q.depth++
						if q.depth > q.peak {
							q.peak = q.depth
						}
					}
				}
			}
		}
	}
}

// Seal is the watcher half of the original Registry.Seal: resource
// integrals are extended to end and further probe events are ignored.
func (r *watchRegistry) Seal(end sim.Duration) {
	if r.sealed {
		return
	}
	for _, w := range r.resources {
		w.update(end, 0)
	}
	r.sealed = true
}

// BusyIntegral returns the exact time-weighted busy integral of a watched
// resource (unit-seconds as a duration), or 0 if the resource is unwatched.
func (r *watchRegistry) BusyIntegral(resource string) time.Duration {
	if w, ok := r.resources[resource]; ok {
		return w.Busy()
	}
	return 0
}

// QueuePeak returns the exact peak waiter depth of the first queue watch
// with the given prefix (0 if none).
func (r *watchRegistry) QueuePeak(prefix string) int {
	for _, q := range r.queues {
		if q.prefix == prefix {
			return q.peak
		}
	}
	return 0
}
