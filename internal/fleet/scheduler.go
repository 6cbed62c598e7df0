// Fleet scheduling: the placement policies that choose a host for each
// arriving container start. Policies see a read-only HostState snapshot per
// host, taken at the arrival instant from live substrate state (free VFs,
// in-flight starts, and the devset lock queue depth and membw busy
// integral the sim primitives keep). Every policy is deterministic given
// its inputs (the random policy draws from its own injected PRNG stream),
// so fleet runs stay bit-for-bit reproducible.
package fleet

import (
	"errors"
	"fmt"
	"time"

	"fastiov/internal/sim"
)

// Placement reject reasons. Every policy distinguishes "nothing is alive"
// from "everything alive is full": the serving layer treats the former as
// an outage (reroute/requeue) and the latter as backpressure.
var (
	// ErrAllHostsDown rejects placement because zero hosts are in service
	// (Health == HealthUp).
	ErrAllHostsDown = errors.New("fleet: no host in service")
	// ErrNoCapacity rejects placement because every in-service host is out
	// of VF admission headroom.
	ErrNoCapacity = errors.New("fleet: every in-service host is at capacity")
)

// rejectReason classifies a failed placement: ErrNoCapacity when at least
// one host is up but full, ErrAllHostsDown otherwise.
func rejectReason(hosts []HostState) error {
	for _, h := range hosts {
		if h.Health == HealthUp {
			return ErrNoCapacity
		}
	}
	return ErrAllHostsDown
}

// Policy names, in presentation order.
const (
	PolicyRandom      = "random"
	PolicyRoundRobin  = "rr"
	PolicyLeastLoaded = "least-loaded"
	PolicyVFAware     = "vf-aware"
)

// Policies lists every scheduling policy in presentation order.
func Policies() []string {
	return []string{PolicyRandom, PolicyRoundRobin, PolicyLeastLoaded, PolicyVFAware}
}

// HostState is the scheduler's read-only view of one host at a placement
// instant.
type HostState struct {
	// Index identifies the host in the fleet's host list.
	Index int
	// CapVFs is the host's total VF population (0 = the host imposes no VF
	// capacity, e.g. a no-net fleet).
	CapVFs int
	// FreeVFs is the NIC's current free VF count.
	FreeVFs int
	// Inflight counts container starts currently in progress on the host.
	Inflight int
	// QueueDepth is the host's current VFIO devset lock queue depth (exact
	// at every park and handoff; the §3.2 serialization signal).
	QueueDepth int
	// MembwBusy is the host's accumulated zeroing-bandwidth busy integral
	// in stream-time through its last change (exact at every acquire and
	// release; the §3.3 bandwidth-pressure signal).
	MembwBusy time.Duration
	// Health is the host's failure-domain state (see Health). The zero
	// value is HealthUp, so states built without failure tracking are
	// schedulable unchanged.
	Health Health
}

// Headroom is the host's remaining VF admission capacity: free VFs minus
// starts already in flight (each in-flight start will claim a VF). It is
// deliberately conservative — a start that has already leased its VF is
// counted twice until it finishes — which only errs toward rejecting late.
func (s HostState) Headroom() int { return s.FreeVFs - s.Inflight }

// Eligible reports whether the host can admit one more start: it must be
// in service (up) and have VF admission headroom.
func (s HostState) Eligible() bool {
	if s.Health != HealthUp {
		return false
	}
	if s.CapVFs == 0 {
		return true
	}
	return s.Headroom() > 0
}

// Scheduler picks a host for each arriving container start.
type Scheduler interface {
	// Name returns the policy name.
	Name() string
	// Place returns the index of the chosen host, or (-1, err) to reject
	// the request with a reason — ErrAllHostsDown when zero hosts are in
	// service, ErrNoCapacity when the in-service hosts are full.
	// Implementations must never panic and must only return a valid,
	// eligible index or an explicit reject. hosts is valid only during
	// the call: the fleet refills it for the next placement, so an
	// implementation must copy any state it keeps.
	Place(hosts []HostState) (int, error)
}

// Scorer is optionally implemented by schedulers that rank hosts with a
// numeric score. Journey tracing uses it to attach the chosen host's score
// to the placement span; policies without a meaningful score (random,
// round-robin) simply don't implement it.
type Scorer interface {
	// Score returns the ranking value Place maximizes for one host.
	Score(h HostState) float64
}

// NewScheduler builds the named policy. The PRNG stream is consumed only by
// the random policy, which requires one; deterministic policies ignore it.
func NewScheduler(name string, rng *sim.Rand) (Scheduler, error) {
	switch name {
	case PolicyRandom:
		if rng == nil {
			return nil, fmt.Errorf("fleet: policy %q requires a PRNG stream", name)
		}
		return &randomSched{rng: rng}, nil
	case PolicyRoundRobin:
		return &rrSched{}, nil
	case PolicyLeastLoaded:
		return &leastLoadedSched{}, nil
	case PolicyVFAware:
		return &vfAwareSched{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown policy %q", name)
}

// randomSched places uniformly at random among eligible hosts.
type randomSched struct {
	rng *sim.Rand
}

func (s *randomSched) Name() string { return PolicyRandom }

func (s *randomSched) Place(hosts []HostState) (int, error) {
	eligible := make([]int, 0, len(hosts))
	for i, h := range hosts {
		if h.Eligible() {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return -1, rejectReason(hosts)
	}
	return eligible[int(s.rng.Int63n(int64(len(eligible))))], nil
}

// rrSched is round-robin bin-packing: it keeps filling the cursor host
// until that host is out of capacity, then advances to the next eligible
// one, wrapping around the fleet.
type rrSched struct {
	cursor int
}

func (s *rrSched) Name() string { return PolicyRoundRobin }

func (s *rrSched) Place(hosts []HostState) (int, error) {
	if len(hosts) == 0 {
		return -1, ErrAllHostsDown
	}
	if s.cursor >= len(hosts) || s.cursor < 0 {
		s.cursor = 0
	}
	for off := 0; off < len(hosts); off++ {
		i := (s.cursor + off) % len(hosts)
		if hosts[i].Eligible() {
			s.cursor = i
			return i, nil
		}
	}
	return -1, rejectReason(hosts)
}

// leastLoadedSched places on the eligible host with the fewest in-flight
// starts, breaking ties toward the lowest index.
type leastLoadedSched struct{}

func (s *leastLoadedSched) Name() string { return PolicyLeastLoaded }

// Score ranks by negated in-flight load (Scorer).
func (s *leastLoadedSched) Score(h HostState) float64 { return -float64(h.Inflight) }

func (s *leastLoadedSched) Place(hosts []HostState) (int, error) {
	best := -1
	for i, h := range hosts {
		if !h.Eligible() {
			continue
		}
		if best < 0 || h.Inflight < hosts[best].Inflight {
			best = i
		}
	}
	if best < 0 {
		return -1, rejectReason(hosts)
	}
	return best, nil
}

// vfAwareSched scores eligible hosts on the three passthrough-startup
// signals and places on the best score, breaking ties toward the lowest
// index:
//
//   - In-flight starts, the base load signal: balancing them beats blind
//     spraying because the random policy's per-host Poisson tail is what
//     creates straggler hosts.
//   - Devset lock queue depth (the §3.2 serialization bottleneck), twice
//     the weight of raw load: a waiter means the host is already past its
//     serialization knee, and every further start adds a full devset pass
//     to the critical path. Deliberately NOT raw VF headroom — big hosts
//     are slower per devset operation under coarse locking, so chasing
//     absolute headroom piles load exactly where it hurts most.
//   - The membw busy integral (accumulated zeroing pressure), steering
//     away from hosts that have been grinding their zeroing streams.
//   - VF headroom as a fraction of the host's VF population, a weak
//     tiebreak toward relatively emptier hosts.
type vfAwareSched struct{}

func (s *vfAwareSched) Name() string { return PolicyVFAware }

// Score is the ranking function Place maximizes (Scorer).
func (s *vfAwareSched) Score(h HostState) float64 { return s.score(h) }

// score is the ranking function Place maximizes.
func (s *vfAwareSched) score(h HostState) float64 {
	frac := 1.0
	if h.CapVFs > 0 {
		frac = float64(h.Headroom()) / float64(h.CapVFs)
	}
	return frac - float64(h.Inflight) - 2*float64(h.QueueDepth) - h.MembwBusy.Seconds()/8
}

func (s *vfAwareSched) Place(hosts []HostState) (int, error) {
	best := -1
	bestScore := 0.0
	for i, h := range hosts {
		if !h.Eligible() {
			continue
		}
		sc := s.score(h)
		if best < 0 || sc > bestScore {
			best, bestScore = i, sc
		}
	}
	if best < 0 {
		return -1, rejectReason(hosts)
	}
	return best, nil
}
