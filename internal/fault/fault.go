// Package fault implements deterministic fault injection for the simulated
// startup path. A Plan names injection sites (device reset, DMA map,
// scrubber wake, CNI add, ...) and attaches a Rule to each: a
// per-occurrence failure probability, a scripted every-Nth-occurrence
// failure, and/or a latency inflation factor. An Injector evaluates the
// plan with a PRNG stream derived from the simulation seed but independent
// of the kernel's main stream, so injection decisions never perturb
// arrival jitter or poll delays: the same seed plus the same plan yields
// bit-for-bit identical runs, and an empty plan consumes no randomness at
// all — every code path stays byte-identical to a fault-free build.
//
// The package also carries the robustness side: Policy describes bounded
// retry with exponential backoff, deterministic jitter, and a per-stage
// timeout, and Do runs an operation under that policy, retrying only
// injected faults so genuine errors propagate unchanged.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"fastiov/internal/clause"
	"fastiov/internal/sim"
)

// Site names an injection point in the startup path.
type Site string

// The injection sites threaded through the substrates.
const (
	// SiteVFIOReset is the function-level reset (FLR) issued on the VFIO
	// device-open path, under the devset lock.
	SiteVFIOReset Site = "vfio-reset"
	// SiteBusReset is the devset-wide (bus-level) secondary reset; on
	// failure the driver degrades to per-device slot resets.
	SiteBusReset Site = "bus-reset"
	// SiteDMAMap is the IOMMU translation install at the end of the DMA
	// map path (retrieve → zero → pin → map).
	SiteDMAMap Site = "dma-map"
	// SiteMemBW inflates host memory zeroing latency (degraded bandwidth);
	// it is a latency-only site and never fails.
	SiteMemBW Site = "mem-bw"
	// SiteScrubber stalls fastiovd's background scrubber: a failed wake
	// does no zeroing work, and a latency factor stretches the wake
	// interval.
	SiteScrubber Site = "scrubber"
	// SiteCNIAdd times out the CNI add-device call; the engine retries the
	// whole add with backoff.
	SiteCNIAdd Site = "cni-add"
)

// Sites returns every known injection site in canonical (sorted) order.
// Crash sites (crash@<stage>) are named separately — see CrashStages.
func Sites() []Site {
	return []Site{SiteBusReset, SiteCNIAdd, SiteDMAMap, SiteMemBW, SiteScrubber, SiteVFIOReset}
}

// CrashStage names a startup stage boundary at which a crash@<stage> plan
// clause deterministically aborts the container, exercising the runtime's
// compensating rollback from that exact interruption point.
type CrashStage string

// The crash points, in startup order. There is deliberately no crash point
// after the asynchronous VF-init spawn: past that boundary the sandbox has
// been handed to the caller and failure means teardown, not rollback.
const (
	// CrashCNI fires after the CNI add returned a result.
	CrashCNI CrashStage = "cni"
	// CrashMicroVM fires after the microVM and virtiofsd are running.
	CrashMicroVM CrashStage = "microvm"
	// CrashVFIOReg fires after the flawed-path vfio rebind+register (and at
	// the same boundary on the fixed path, where nothing was registered).
	CrashVFIOReg CrashStage = "vfio-reg"
	// CrashDMA fires after guest memory is pinned and IOMMU-mapped.
	CrashDMA CrashStage = "dma"
	// CrashVhost fires after the vhost registration(s).
	CrashVhost CrashStage = "vhost"
	// CrashDev fires after the VFIO device fd is open (or the vdpa device
	// is added).
	CrashDev CrashStage = "dev"
	// CrashFirmware fires after firmware load.
	CrashFirmware CrashStage = "firmware"
	// CrashBoot fires after guest boot — the last crash point.
	CrashBoot CrashStage = "boot"
)

// CrashStages returns every crash point in startup order.
func CrashStages() []CrashStage {
	return []CrashStage{
		CrashCNI, CrashMicroVM, CrashVFIOReg, CrashDMA,
		CrashVhost, CrashDev, CrashFirmware, CrashBoot,
	}
}

// crashPrefix introduces a crash site in the plan grammar.
const crashPrefix = "crash@"

// crashSites holds every crash point's site, so evaluating a crash point
// formats nothing.
var crashSites = func() map[CrashStage]Site {
	m := make(map[CrashStage]Site)
	for _, c := range CrashStages() {
		m[c] = Site(crashPrefix + string(c))
	}
	return m
}()

// CrashSite returns the injection site for a crash stage, named
// "crash@<stage>" in the plan grammar.
func CrashSite(stage CrashStage) Site {
	if s, ok := crashSites[stage]; ok {
		return s
	}
	return Site(crashPrefix + string(stage))
}

// IsCrashSite reports whether the site is a crash@<stage> site.
func IsCrashSite(s Site) bool {
	stage, ok := strings.CutPrefix(string(s), crashPrefix)
	if !ok {
		return false
	}
	for _, c := range CrashStages() {
		if string(c) == stage {
			return true
		}
	}
	return false
}

func knownSite(s Site) bool {
	for _, k := range Sites() {
		if k == s {
			return true
		}
	}
	return IsCrashSite(s)
}

// Host-scoped clause keywords in the plan grammar: <kind>@<t> for the two
// crash kinds, host-recover=<dur> for the MTTR. Unlike site rules, host
// clauses are not evaluated by the Injector: the fleet layer reads them off
// the plan and schedules deterministic whole-host (or daemon) crashes on
// simulated time.
const (
	hostCrash   = "host-crash"
	daemonCrash = "daemon-crash"
	hostRecover = "host-recover"
)

// HostClause is one host-scoped crash event: at simulated time At, host
// Host either dies wholesale (in-flight starts aborted, live pods
// destroyed, nothing released) or, with Daemon set, loses only its fastiovd
// daemon (scrub-tracking state must be conservatively rebuilt). A non-zero
// MTBF re-arms the clause: each time the host returns to service it crashes
// again MTBF later.
type HostClause struct {
	At     time.Duration
	Host   int
	Daemon bool
	MTBF   time.Duration
}

// String renders the clause in the plan grammar.
func (c HostClause) String() string {
	kind := hostCrash
	if c.Daemon {
		kind = daemonCrash
	}
	s := kind + "@" + c.At.String()
	var kvs []string
	if c.Host != 0 {
		kvs = append(kvs, "host="+strconv.Itoa(c.Host))
	}
	if c.MTBF > 0 {
		kvs = append(kvs, "mtbf="+c.MTBF.String())
	}
	if len(kvs) > 0 {
		s += ":" + strings.Join(kvs, ",")
	}
	return s
}

// Rule configures one site. The zero value is inert.
type Rule struct {
	// Prob is the per-occurrence failure probability in [0, 1], drawn from
	// the injector's seeded PRNG.
	Prob float64
	// EveryN, when > 0, fails deterministically on every Nth occurrence
	// (scripted faults, independent of Prob).
	EveryN int
	// Limit, when > 0, caps the number of failures injected at this site.
	Limit int
	// Latency is a multiplicative inflation factor applied to the site's
	// operation latency; 0 and 1 both mean "unchanged".
	Latency float64
}

// active reports whether the rule can affect a run at all.
func (r Rule) active() bool {
	return r.Prob > 0 || r.EveryN > 0 || (r.Latency > 0 && r.Latency != 1)
}

// Plan maps sites to rules and carries the host-scoped crash clauses. The
// zero value and nil are both valid empty plans.
type Plan struct {
	rules map[Site]Rule
	// hosts are the host/daemon crash clauses, in parse order (String sorts
	// them canonically).
	hosts []HostClause
	// recoverAfter is the MTTR installed by host-recover=<dur>; 0 means
	// crashed hosts stay down for the rest of the run.
	recoverAfter time.Duration
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Set installs (or replaces) the rule for a site.
func (pl *Plan) Set(site Site, r Rule) {
	if pl.rules == nil {
		pl.rules = make(map[Site]Rule)
	}
	pl.rules[site] = r
}

// Rule returns the rule for a site.
func (pl *Plan) Rule(site Site) (Rule, bool) {
	if pl == nil {
		return Rule{}, false
	}
	r, ok := pl.rules[site]
	return r, ok
}

// HostClauses returns the host-scoped crash clauses in canonical order
// (sorted by At, then Host, then daemon-ness, then MTBF), nil-safe. The
// returned slice is a copy.
func (pl *Plan) HostClauses() []HostClause {
	if pl == nil || len(pl.hosts) == 0 {
		return nil
	}
	out := append([]HostClause(nil), pl.hosts...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.Daemon != b.Daemon {
			return !a.Daemon
		}
		return a.MTBF < b.MTBF
	})
	return out
}

// RecoverAfter returns the MTTR (nil-safe); 0 means crashed hosts never
// recover.
func (pl *Plan) RecoverAfter() time.Duration {
	if pl == nil {
		return 0
	}
	return pl.recoverAfter
}

// HasHostFaults reports whether any host-scoped clause is present
// (nil-safe). A bare host-recover with no crash clause is inert and does
// not count.
func (pl *Plan) HasHostFaults() bool { return pl != nil && len(pl.hosts) > 0 }

// hasSiteRules reports whether any per-site rule is active (nil-safe).
func (pl *Plan) hasSiteRules() bool {
	if pl == nil {
		return false
	}
	for _, r := range pl.rules {
		if r.active() {
			return true
		}
	}
	return false
}

// Empty reports whether the plan has no active rule and no host-scoped
// crash clause (nil-safe). An empty plan must behave exactly like no plan.
// A plan whose only clause is host-recover is still empty: with nothing to
// crash, recovery never triggers.
func (pl *Plan) Empty() bool {
	return !pl.hasSiteRules() && !pl.HasHostFaults()
}

// String renders the plan in the -faults grammar with sites sorted, host
// clauses in canonical order, and inert rules and fields omitted, so plans
// that behave the same render identically (the rendering doubles as a
// cache-key component). An empty plan renders as "".
func (pl *Plan) String() string {
	if pl.Empty() {
		return ""
	}
	sites := make([]string, 0, len(pl.rules))
	for s, r := range pl.rules {
		if r.active() {
			sites = append(sites, string(s))
		}
	}
	sort.Strings(sites)
	var clauses []string
	for _, s := range sites {
		r := pl.rules[Site(s)]
		var kvs []string
		if r.Prob > 0 {
			kvs = append(kvs, "p="+strconv.FormatFloat(r.Prob, 'g', -1, 64))
		}
		if r.EveryN > 0 {
			kvs = append(kvs, "every="+strconv.Itoa(r.EveryN))
		}
		if r.Limit > 0 {
			kvs = append(kvs, "limit="+strconv.Itoa(r.Limit))
		}
		if r.Latency > 0 && r.Latency != 1 {
			kvs = append(kvs, "lat="+strconv.FormatFloat(r.Latency, 'g', -1, 64))
		}
		clauses = append(clauses, s+":"+strings.Join(kvs, ","))
	}
	for _, c := range pl.HostClauses() {
		clauses = append(clauses, c.String())
	}
	// host-recover is inert without a crash clause to recover from.
	if pl.recoverAfter > 0 && pl.HasHostFaults() {
		clauses = append(clauses, hostRecover+"="+pl.recoverAfter.String())
	}
	return strings.Join(clauses, ";")
}

// Uniform builds a plan failing each listed site (every site when none are
// listed) with probability p.
func Uniform(p float64, sites ...Site) *Plan {
	if len(sites) == 0 {
		sites = Sites()
	}
	pl := NewPlan()
	for _, s := range sites {
		pl.Set(s, Rule{Prob: p})
	}
	return pl
}

// ParsePlan parses the -faults grammar (EXPERIMENTS.md, "Spec grammars";
// lexed by package clause):
//
//	<site>:key=val[,key=val...]                site rule: p, every, limit, lat
//	host-crash@<t>[:host=<sel>][,mtbf=<dur>]   kill a whole host at t
//	daemon-crash@<t>[:host=<sel>][,mtbf=<dur>] kill only its fastiovd at t
//	host-recover=<dur>                         MTTR: recovery starts dur after a crash
//
// where site is one of Sites() or crash@<stage> with stage from
// CrashStages(). Crash sites and crash clauses reject lat: a crash is an
// instant, it has no latency to inflate. A site and host-recover may each
// appear at most once. Malformed specs return an error; the parser never
// panics. The empty string parses to an empty plan.
func ParsePlan(spec string) (*Plan, error) {
	pl := NewPlan()
	seenRecover := false
	for _, part := range clause.Split(spec) {
		if k, v, ok := strings.Cut(part, "="); ok && strings.TrimSpace(k) == hostRecover {
			if seenRecover {
				return nil, fmt.Errorf("fault: host-recover specified twice")
			}
			d, err := clause.Duration(strings.TrimSpace(v))
			if err != nil {
				return nil, fmt.Errorf("fault: host-recover=%w", err)
			}
			seenRecover = true
			pl.recoverAfter = d
			continue
		}
		name, kvs, hasKVs := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if kind, at, _ := strings.Cut(name, "@"); kind == hostCrash || kind == daemonCrash {
			c, err := parseHostClause(kind, at, kvs, hasKVs)
			if err != nil {
				return nil, err
			}
			pl.hosts = append(pl.hosts, c)
			continue
		}
		if !hasKVs {
			return nil, fmt.Errorf("fault: %q: want site:key=val[,key=val...]", part)
		}
		site := Site(name)
		if !knownSite(site) {
			return nil, fmt.Errorf("fault: unknown site %q (known: %s)", name, siteList())
		}
		if _, dup := pl.Rule(site); dup {
			return nil, fmt.Errorf("fault: site %q specified twice", site)
		}
		args, err := clause.Args(kvs, "p", "every", "limit", "lat")
		if err != nil {
			return nil, fmt.Errorf("fault: %s: %w", site, err)
		}
		var r Rule
		for _, a := range args {
			switch a.Key {
			case "p":
				r.Prob, err = clause.Float(a.Val, 0, 1)
			case "every":
				r.EveryN, err = clause.Int(a.Val, 1)
			case "limit":
				r.Limit, err = clause.Int(a.Val, 0)
			case "lat":
				if IsCrashSite(site) {
					return nil, fmt.Errorf("fault: %s: lat is not valid for crash sites (want p, every, limit)", site)
				}
				r.Latency, err = clause.Positive(a.Val)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: %s: %s=%w", site, a.Key, err)
			}
		}
		pl.Set(site, r)
	}
	return pl, nil
}

// parseHostClause parses a host-crash@/daemon-crash@ clause of the given
// kind: the crash time at and, when hasKVs, its key=val list.
func parseHostClause(kind, at, kvs string, hasKVs bool) (HostClause, error) {
	t, err := clause.Time(strings.TrimSpace(at))
	if err != nil {
		return HostClause{}, fmt.Errorf("fault: %s@%w", kind, err)
	}
	c := HostClause{At: t, Daemon: kind == daemonCrash}
	if !hasKVs {
		return c, nil
	}
	args, err := clause.Args(kvs, "host", "mtbf", "lat")
	if err != nil {
		return HostClause{}, fmt.Errorf("fault: %s: %w", kind, err)
	}
	for _, a := range args {
		switch a.Key {
		case "host":
			c.Host, err = clause.Int(a.Val, 0)
		case "mtbf":
			c.MTBF, err = clause.Duration(a.Val)
		case "lat":
			return HostClause{}, fmt.Errorf("fault: %s: lat is not valid for crash clauses (want host, mtbf)", kind)
		}
		if err != nil {
			return HostClause{}, fmt.Errorf("fault: %s: %s=%w", kind, a.Key, err)
		}
	}
	return c, nil
}

func siteList() string {
	var parts []string
	for _, s := range Sites() {
		parts = append(parts, string(s))
	}
	var stages []string
	for _, c := range CrashStages() {
		stages = append(stages, string(c))
	}
	parts = append(parts, crashPrefix+"{"+strings.Join(stages, "|")+"}")
	return strings.Join(parts, ", ")
}

// Injector evaluates a plan at run time. A nil *Injector is the canonical
// "no faults" value: every method is nil-safe and free, so substrates hold
// a possibly-nil injector without branching at call sites.
type Injector struct {
	rng   *sim.Rand
	sites map[Site]*siteState
}

type siteState struct {
	rule        Rule
	occurrences int
	injected    int
}

// injectorSalt decorrelates the injector's PRNG stream from the kernel's
// main stream, which is seeded with the raw run seed.
const injectorSalt = 0x9E3779B97F4A7C15

// NewInjector builds an injector for the plan, deriving an independent
// PRNG stream from the run seed. Plans without active site rules yield nil:
// zero site faults means zero draws, zero branches, and byte-identical
// simulation. Host-scoped clauses do not need an injector — the fleet
// schedules them directly on simulated time — so a host-clause-only plan
// also yields nil, keeping per-host fault accounting byte-absent.
func NewInjector(seed uint64, plan *Plan) *Injector {
	if !plan.hasSiteRules() {
		return nil
	}
	inj := &Injector{
		rng:   sim.NewRand(seed ^ injectorSalt),
		sites: make(map[Site]*siteState),
	}
	for s, r := range plan.rules {
		if r.active() {
			inj.sites[s] = &siteState{rule: r}
		}
	}
	return inj
}

// Fail records one occurrence at the site and returns an *InjectedError if
// the plan fails it, nil otherwise. The probability draw happens on every
// occurrence of a probabilistic site (even when a scripted rule already
// fired), keeping the PRNG stream a pure function of the occurrence count.
func (i *Injector) Fail(site Site) error {
	if i == nil {
		return nil
	}
	st := i.sites[site]
	if st == nil {
		return nil
	}
	st.occurrences++
	hit := st.rule.EveryN > 0 && st.occurrences%st.rule.EveryN == 0
	if st.rule.Prob > 0 && i.rng.Float64() < st.rule.Prob {
		hit = true
	}
	if !hit || (st.rule.Limit > 0 && st.injected >= st.rule.Limit) {
		return nil
	}
	st.injected++
	return &InjectedError{Site: site, Occurrence: st.occurrences}
}

// Inflate applies the site's latency factor to a duration.
func (i *Injector) Inflate(site Site, d time.Duration) time.Duration {
	if i == nil {
		return d
	}
	st := i.sites[site]
	if st == nil {
		return d
	}
	if f := st.rule.Latency; f > 0 && f != 1 {
		return time.Duration(float64(d) * f)
	}
	return d
}

// Rand exposes the injector's PRNG stream (nil for a nil injector) so
// retry jitter draws from the fault stream, not the workload stream.
func (i *Injector) Rand() *sim.Rand {
	if i == nil {
		return nil
	}
	return i.rng
}

// SiteStat is one site's occurrence/injection counters.
type SiteStat struct {
	Site        Site
	Occurrences int
	Injected    int
}

// Snapshot returns per-site counters sorted by site name (nil for a nil
// injector), including configured sites that never fired.
func (i *Injector) Snapshot() []SiteStat {
	if i == nil {
		return nil
	}
	out := make([]SiteStat, 0, len(i.sites))
	for s, st := range i.sites {
		out = append(out, SiteStat{Site: s, Occurrences: st.occurrences, Injected: st.injected})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Site < out[b].Site })
	return out
}

// Injected returns the total number of failures injected across all sites.
func (i *Injector) Injected() int {
	if i == nil {
		return 0
	}
	total := 0
	for _, st := range i.sites {
		total += st.injected
	}
	return total
}
