// Fleet failure domains: whole-host crashes, fastiovd daemon crashes,
// heartbeat-driven detection, and the recovery path that re-boots a dead
// host. Crash clauses come from the fault plan's host-scoped grammar
// (fault.HostClause); the fleet schedules them deterministically on
// simulated time, so crashing runs are exactly as reproducible as clean
// ones. A crash kills every proc the dead host owns (in ascending proc-id
// order), destroys its live pods, and releases nothing — the unreturned
// state is recorded on the LostToCrash ledger (audit.Ledger) so fleet-wide
// conservation still closes to zero. Recovery re-runs host boot under a
// generation-salted PRNG stream and pays the baseline's readiness cost:
// vanilla resets and re-zeroes its whole VF pool (the recovery cliff),
// FastIOV reloads fastiovd and conservatively re-registers the lost scrub
// tracking (near-flat). None of this machinery exists on host-clause-free
// plans: no monitor daemon, no tracking maps, no extra events — those runs
// stay byte-identical to pre-failure-domain builds.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fastiov/internal/audit"
	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/sim"
)

// Health is a host's failure-domain state as the scheduler sees it. The
// zero value is HealthUp so HostState literals built without failure
// tracking stay schedulable.
type Health uint8

const (
	// HealthUp: in service, schedulable.
	HealthUp Health = iota
	// HealthDraining: one missed heartbeat — no new placements, existing
	// work (from the scheduler's point of view) may still complete.
	HealthDraining
	// HealthDown: confirmed dead (missedBeatsDown heartbeats missed).
	HealthDown
	// HealthRecovering: re-booting; schedulable again once Up.
	HealthRecovering
)

// String renders the state for reports.
func (h Health) String() string {
	switch h {
	case HealthUp:
		return "up"
	case HealthDraining:
		return "draining"
	case HealthDown:
		return "down"
	case HealthRecovering:
		return "recovering"
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// ErrHostDown reports a dispatch that landed on a host which crashed
// inside the detection window: the scheduler's heartbeat view still said
// up, but the host was already dead, so the start is lost (not begun, not
// rejected). The serving layer reroutes these.
var ErrHostDown = errors.New("fleet: dispatched to a crashed host")

// Heartbeat detection parameters: the monitor ticks on simulated time and
// flips a silent host to draining after one missed beat and to down after
// missedBeatsDown.
const (
	HeartbeatInterval = 100 * time.Millisecond
	missedBeatsDown   = 3
)

// maxGenerations caps MTBF re-arming per host so a pathological plan
// (mtbf shorter than recovery on a busy fleet) cannot keep the simulation
// alive forever. Explicit clauses always fire; only re-arms are capped.
const maxGenerations = 32

// genStream salts the per-host boot seed with the generation number:
// generation g of host i draws sim.SplitSeed(seed, i + g*genStream).
// Host indexes stay far below 2^32 and schedStream is 1<<32, so streams
// never collide across hosts, generations, or the scheduler.
const genStream = uint64(1) << 33

// Recovery is one completed host recovery, recorded as first-class
// telemetry: Took is the full outage-to-up readiness delay the baseline
// paid (re-boot plus the recovery cost model — see cluster.RecoveryCost),
// measured from the start of recovery (crash + MTTR).
type Recovery struct {
	Host       int
	Generation int
	// At is the simulated instant recovery began; Took is how long the
	// host needed to return to service from there.
	At   time.Duration
	Took time.Duration
}

// initFailureDomains arms the failure machinery for a plan with host
// clauses: validates clause targets, allocates the health/tracking state,
// installs the engines' background-proc hooks, and spawns the heartbeat
// monitor plus one crash-injector daemon per clause. Daemons do not keep
// the simulation alive, so a crash scheduled past the workload simply
// never fires.
func (f *Fleet) initFailureDomains() error {
	clauses := f.Cfg.Faults.HostClauses()
	n := len(f.Hosts)
	for _, c := range clauses {
		if c.Host >= n {
			return fmt.Errorf("fleet: crash clause %s targets host %d but the fleet has %d hosts", c, c.Host, n)
		}
	}
	f.failuresOn = true
	f.health = make([]Health, n)
	f.down = make([]bool, n)
	f.missed = make([]int, n)
	f.generation = make([]int, n)
	f.mtbf = make([]time.Duration, n)
	f.lastCrash = make([]audit.Snapshot, n)
	f.procs = make([]map[int]*sim.Proc, n)
	for i := range f.procs {
		f.procs[i] = make(map[int]*sim.Proc)
		f.installTrack(i, f.Hosts[i])
	}

	// Heartbeat monitor: a pure-observation daemon on simulated time. It
	// is the only writer of the scheduler-visible health states for the
	// up -> draining -> down transitions; recovery flips recovering -> up.
	f.K.GoDaemon("fleet-health-monitor", func(p *sim.Proc) {
		for {
			p.Sleep(HeartbeatInterval)
			for hi := range f.Hosts {
				if !f.down[hi] {
					continue
				}
				if f.health[hi] == HealthUp || f.health[hi] == HealthDraining {
					f.missed[hi]++
					if f.missed[hi] >= missedBeatsDown {
						f.health[hi] = HealthDown
					} else {
						f.health[hi] = HealthDraining
					}
				}
			}
		}
	})

	for ci, c := range clauses {
		c := c
		f.K.GoDaemon(fmt.Sprintf("fleet-crash-%d", ci), func(p *sim.Proc) {
			p.Sleep(c.At)
			f.fireCrash(p, c)
		})
	}
	return nil
}

// installTrack wires host hi's engine so background procs it spawns (the
// async vf-init threads) join the host's kill set.
func (f *Fleet) installTrack(hi int, h *cluster.Host) {
	h.Eng.SetTrack(func(vp *sim.Proc) {
		f.procs[hi][vp.ID()] = vp
	})
}

// trackStart registers an in-flight container start on host hi.
func (f *Fleet) trackStart(hi int, p *sim.Proc) {
	if f.procs == nil {
		return
	}
	f.procs[hi][p.ID()] = p
}

// untrackStart removes a start from the kill set (also runs on the kill
// unwind itself, which is fine — the proc is already dying).
func (f *Fleet) untrackStart(hi int, p *sim.Proc) {
	if f.procs == nil {
		return
	}
	delete(f.procs[hi], p.ID())
}

// fireCrash executes one clause at its scheduled instant and handles MTBF
// re-arming for daemon crashes (host crashes re-arm on return to service,
// see recoverHost).
func (f *Fleet) fireCrash(p *sim.Proc, c fault.HostClause) {
	hi := c.Host
	if c.Daemon {
		if f.down[hi] {
			return // the whole host is down; its daemon is already dead
		}
		h := f.Hosts[hi]
		if h.Lazy != nil {
			f.daemonCrashes++
			h.Lazy.CrashDaemon(p)
		}
		// A daemon failover is immediate, so its MTBF re-arms directly.
		if c.MTBF > 0 && f.daemonCrashes < maxGenerations*len(f.Hosts) {
			f.armCrash(c, c.MTBF)
		}
		return
	}
	if c.MTBF > 0 {
		f.mtbf[hi] = c.MTBF
	}
	f.crashHost(p, hi)
}

// armCrash schedules clause c to fire again after delay, as a daemon so a
// re-armed crash past the workload cannot keep the simulation alive.
func (f *Fleet) armCrash(c fault.HostClause, delay time.Duration) {
	f.K.GoDaemon(fmt.Sprintf("fleet-rearm-h%03d", c.Host), func(p *sim.Proc) {
		p.Sleep(delay)
		f.fireCrash(p, c)
	})
}

// crashHost kills host hi at the current instant: every tracked proc dies
// in ascending proc-id order (in-flight starts, async vf-init threads),
// the fastiovd scrubber daemon dies with them, live pods are destroyed
// releasing nothing, the host's signals retire the dead generation (the
// kill unwind's releases are charged first), and the generation's
// unreturned state is recorded on the LostToCrash ledger. Detection is
// heartbeat-driven: the scheduler keeps seeing the host as up until the
// monitor notices the silence.
func (f *Fleet) crashHost(p *sim.Proc, hi int) {
	if f.down[hi] {
		return
	}
	f.down[hi] = true
	f.hostCrashes++
	h := f.Hosts[hi]

	ids := make([]int, 0, len(f.procs[hi]))
	for id := range f.procs[hi] {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if q, ok := f.procs[hi][id]; ok {
			f.K.Kill(q)
		}
	}
	f.procs[hi] = make(map[int]*sim.Proc)
	if h.Lazy != nil {
		if sp := h.Lazy.ScrubProc(); sp != nil {
			f.K.Kill(sp)
		}
	}

	f.lostPods += len(f.live[hi])
	f.live[hi] = nil

	// Retire the signals after the kills so the deferred releases of the
	// dying procs are charged to the dead generation, then freeze.
	now := p.Now()
	f.signals[hi].crash(now)

	// The crash snapshot is taken after the kill sweep: whatever the
	// unwinds gave back (CPU units, bandwidth streams) is not lost; what
	// remains held is, and the ledger owns it from here.
	snap := h.AuditSnapshot()
	f.lastCrash[hi] = snap
	f.ledger.Add(audit.LedgerEntry{
		Host: hi, Generation: f.generation[hi], At: now,
		Base: h.Baseline, AtCrash: snap,
	})

	if mttr := f.Cfg.Faults.RecoverAfter(); mttr > 0 {
		// Recovery is first-class work: a non-daemon proc, so the run does
		// not quiesce with a recovery half-done.
		f.K.Go(fmt.Sprintf("fleet-recover-h%03d-g%d", hi, f.generation[hi]+1), func(q *sim.Proc) {
			q.Sleep(mttr)
			f.recoverHost(q, hi)
		})
	}
}

// recoverHost re-runs host boot for a dead host: a fresh generation under
// the same scope with a generation-salted seed, then the baseline's
// readiness cost — the paper's recovery asymmetry, timed as first-class
// telemetry (see cluster.Host.RecoveryCost). The scheduler sees
// recovering until the cost is paid, then up.
func (f *Fleet) recoverHost(q *sim.Proc, hi int) {
	began := q.Now()
	f.health[hi] = HealthRecovering
	gen := f.generation[hi] + 1
	lost := f.lastCrash[hi].LazyTracked - f.Hosts[hi].Baseline.LazyTracked

	opts := f.baseOpts
	opts.Scope = Scope(hi)
	opts.Seed = sim.SplitSeed(f.Cfg.Seed, uint64(hi)+uint64(gen)*genStream)
	opts.Faults = f.Cfg.Faults
	opts.Trace = false
	opts.Metrics = false
	opts.Audit = false
	h, err := cluster.NewHostOn(f.K, sim.NewRand(opts.Seed), spec(f.Cfg, hi), opts)
	if err != nil {
		f.errs = append(f.errs, fmt.Errorf("fleet: host %d recovery (gen %d): %w", hi, gen, err))
		return
	}
	// The new generation's signals count from boot, not from its return
	// to service: its scrubber already runs during the readiness delay.
	f.signals[hi].live = h
	q.Sleep(h.RecoveryCost(lost))

	f.Hosts[hi] = h
	f.installTrack(hi, h)
	f.generation[hi] = gen
	f.down[hi] = false
	f.missed[hi] = 0
	f.health[hi] = HealthUp
	f.recoveries = append(f.recoveries, Recovery{
		Host: hi, Generation: gen, At: began, Took: q.Now() - began,
	})
	if f.mtbf[hi] > 0 && gen < maxGenerations {
		// The host is back in service; its MTBF clause re-arms from now.
		f.armCrash(fault.HostClause{At: 0, Host: hi, MTBF: f.mtbf[hi]}, f.mtbf[hi])
	}
}

// spec returns host hi's spec from the config.
func spec(cfg Config, hi int) cluster.HostSpec { return cfg.HostSpecs[hi] }
