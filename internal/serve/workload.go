// Package serve is the admission-controlled serving control plane over the
// fleet: the long-running-daemon shape of the startup problem. An open-loop
// arrival process (per-tenant Poisson, with an optional flash-crowd burst)
// feeds pod-start requests into an admission queue; pluggable policies
// decide at arrival (and again at dispatch) whether each request is worth
// serving, and admitted requests flow to the fleet scheduler. Everything
// rides the determinism substrate: each tenant draws arrivals from its own
// split PRNG stream, the whole run executes on one simulated kernel, and
// results fingerprint byte-identically across double-runs.
package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"fastiov/internal/clause"
	"fastiov/internal/sim"
)

// tenantStream is the base PRNG stream index for tenant arrival processes:
// tenant i (in canonical name order) draws stream tenantStream+i. The fleet
// reserves streams [0, hosts) for hosts and 1<<32 for the scheduler; 1<<33
// keeps the serving layer clear of both.
const tenantStream = uint64(1) << 33

// Priority is a request's admission class: under pressure the SLO-aware
// policy sheds low before normal before high.
type Priority uint8

const (
	PrioLow Priority = iota
	PrioNormal
	PrioHigh
)

// String returns the grammar token for the priority.
func (p Priority) String() string {
	switch p {
	case PrioLow:
		return "low"
	case PrioHigh:
		return "high"
	default:
		return "normal"
	}
}

func parsePriority(s string) (Priority, error) {
	switch s {
	case "low":
		return PrioLow, nil
	case "normal":
		return PrioNormal, nil
	case "high":
		return PrioHigh, nil
	}
	return PrioNormal, fmt.Errorf("%q: unknown priority (want low|normal|high)", s)
}

// Tenant is one workload source: a named Poisson arrival stream with an
// admission class and a contracted-capacity weight.
type Tenant struct {
	Name string
	// Rate is the tenant's offered arrival rate in requests per second.
	Rate float64
	// Priority is the tenant's admission class (default normal).
	Priority Priority
	// Weight is the tenant's share of contracted capacity under the
	// token-bucket policy (default 1).
	Weight int
}

// Flash is a flash-crowd burst: every tenant's rate multiplies by Factor
// for the window [At, At+For).
type Flash struct {
	At     time.Duration
	Factor float64
	For    time.Duration
}

// Workload is a parsed multi-tenant arrival description. Tenants are held
// in canonical (name) order.
type Workload struct {
	Tenants []Tenant
	Flash   *Flash
}

// ParseWorkload parses the tenant grammar (EXPERIMENTS.md, "Spec grammars";
// lexed by package clause): ';'-separated tenants and at most one
// flash-crowd burst,
//
//	name:rate=<req/s>[,prio=low|normal|high][,weight=<n>]
//	flash@<start>:x=<factor>[,for=<duration>]
//
// with names [a-z0-9-]+ and unique, and for defaulting to 1s. The
// canonical rendering (String) sorts tenants by name, omits default
// fields, and re-parses to an identical workload — a fixed point, like
// fault.Plan.String.
func ParseWorkload(spec string) (*Workload, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("serve: empty workload")
	}
	w := &Workload{}
	for _, c := range clause.Split(spec) {
		if rest, ok := strings.CutPrefix(c, "flash@"); ok {
			if w.Flash != nil {
				return nil, fmt.Errorf("serve: duplicate flash clause %q", c)
			}
			fl, err := parseFlash(rest)
			if err != nil {
				return nil, fmt.Errorf("serve: clause %q: %w", c, err)
			}
			w.Flash = fl
			continue
		}
		t, err := parseTenant(c)
		if err != nil {
			return nil, fmt.Errorf("serve: clause %q: %w", c, err)
		}
		if slices.ContainsFunc(w.Tenants, func(o Tenant) bool { return o.Name == t.Name }) {
			return nil, fmt.Errorf("serve: duplicate tenant %q", t.Name)
		}
		w.Tenants = append(w.Tenants, t)
	}
	if len(w.Tenants) == 0 {
		return nil, fmt.Errorf("serve: workload %q has no tenants", spec)
	}
	sort.Slice(w.Tenants, func(i, j int) bool { return w.Tenants[i].Name < w.Tenants[j].Name })
	return w, nil
}

func parseTenant(c string) (Tenant, error) {
	name, kvs, ok := strings.Cut(c, ":")
	t := Tenant{Name: strings.TrimSpace(name), Weight: 1, Priority: PrioNormal}
	if !ok {
		return t, fmt.Errorf("want name:key=value[,...]")
	}
	if err := clause.Name(t.Name); err != nil {
		return t, fmt.Errorf("bad tenant name %w", err)
	}
	args, err := clause.Args(kvs, "rate", "prio", "weight")
	if err != nil {
		return t, err
	}
	haveRate := false
	for _, a := range args {
		switch a.Key {
		case "rate":
			t.Rate, err = clause.Float(a.Val, 0, math.Inf(1))
			haveRate = true
		case "prio":
			t.Priority, err = parsePriority(a.Val)
		case "weight":
			t.Weight, err = clause.Int(a.Val, 1)
		}
		if err != nil {
			return t, fmt.Errorf("bad %s %w", a.Key, err)
		}
	}
	if !haveRate {
		return t, fmt.Errorf("tenant %q missing rate", t.Name)
	}
	return t, nil
}

func parseFlash(rest string) (*Flash, error) {
	at, kvs, ok := strings.Cut(rest, ":")
	if !ok {
		return nil, fmt.Errorf("want flash@<start>:x=<factor>[,for=<duration>]")
	}
	start, err := clause.Time(strings.TrimSpace(at))
	if err != nil {
		return nil, fmt.Errorf("bad flash start %w", err)
	}
	fl := &Flash{At: start, For: time.Second}
	args, err := clause.Args(kvs, "x", "for")
	if err != nil {
		return nil, err
	}
	for _, a := range args {
		switch a.Key {
		case "x":
			if fl.Factor, err = clause.Positive(a.Val); err != nil {
				return nil, fmt.Errorf("bad flash factor %w", err)
			}
		case "for":
			if fl.For, err = clause.Duration(a.Val); err != nil {
				return nil, fmt.Errorf("bad flash duration %w", err)
			}
		}
	}
	if fl.Factor == 0 {
		return nil, fmt.Errorf("flash missing x=<factor>")
	}
	return fl, nil
}

// fmtRate renders a rate so it re-parses to the identical float64.
func fmtRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

// String renders the canonical workload spec: tenants in name order with
// default fields omitted, then the flash clause. ParseWorkload(w.String())
// returns an identical workload, and String is a fixed point:
// Parse(String(w)).String() == String(w).
func (w *Workload) String() string {
	var b strings.Builder
	for i, t := range w.Tenants {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s:rate=%s", t.Name, fmtRate(t.Rate))
		if t.Priority != PrioNormal {
			fmt.Fprintf(&b, ",prio=%s", t.Priority)
		}
		if t.Weight != 1 {
			fmt.Fprintf(&b, ",weight=%d", t.Weight)
		}
	}
	if w.Flash != nil {
		fmt.Fprintf(&b, ";flash@%s:x=%s,for=%s", w.Flash.At, fmtRate(w.Flash.Factor), w.Flash.For)
	}
	return b.String()
}

// TotalRate sums the tenants' base (non-flash) offered rates.
func (w *Workload) TotalRate() float64 {
	var total float64
	for _, t := range w.Tenants {
		total += t.Rate
	}
	return total
}

// MaxExpectedArrivals caps the mean arrival count of one serving window.
// Every arrival is drawn up front and becomes a proc, so an unbounded load
// would exhaust memory before the run starts; the shipped workloads expect
// a few thousand arrivals at most.
const MaxExpectedArrivals = 1_000_000

// expected returns the mean arrival count over [0, window): the base
// offered rate times the window, plus Factor-1 times the base rate over
// the part of the flash window inside it.
func (w *Workload) expected(window time.Duration) float64 {
	span := window.Seconds()
	if span <= 0 {
		return 0
	}
	if fl := w.Flash; fl != nil {
		lo, hi := max(fl.At.Seconds(), 0), min((fl.At+fl.For).Seconds(), span)
		if hi > lo {
			span += (hi - lo) * (fl.Factor - 1)
		}
	}
	return w.TotalRate() * span
}

// CheckLoad reports an error when the workload expects more than
// MaxExpectedArrivals arrivals in window (or a non-finite number of them).
func (w *Workload) CheckLoad(window time.Duration) error {
	if n := w.expected(window); !(n <= MaxExpectedArrivals) {
		return fmt.Errorf("serve: workload %q expects %.4g arrivals in %v, more than the cap of %d",
			w, n, window, MaxExpectedArrivals)
	}
	return nil
}

// Scaled returns a copy whose tenant rates are scaled so the base offered
// rate totals target requests/second (proportions preserved). target <= 0
// or a zero-rate workload returns an unscaled copy.
func (w *Workload) Scaled(target float64) *Workload {
	out := &Workload{Tenants: append([]Tenant(nil), w.Tenants...)}
	if w.Flash != nil {
		fl := *w.Flash
		out.Flash = &fl
	}
	total := w.TotalRate()
	if target <= 0 || total <= 0 {
		return out
	}
	for i := range out.Tenants {
		out.Tenants[i].Rate *= target / total
	}
	return out
}

// Request is one pod-start arrival.
type Request struct {
	// ID is globally unique across the run, assigned in arrival order, and
	// becomes the container id on the fleet (so trace binding sees the
	// standard ctr-<id> names).
	ID int
	// Tenant and Priority identify the source stream.
	Tenant   string
	Priority Priority
	// At is the arrival instant, as an offset from serving start.
	At time.Duration
}

// Arrivals draws every tenant's Poisson arrival process over [0, window)
// and merges them into one arrival-ordered request list. Tenant i (name
// order) draws from sim.SplitSeed(seed, tenantStream+i), so streams never
// collide with host or scheduler streams and adding a tenant never shifts
// another tenant's draws. The flash-crowd window multiplies the
// instantaneous rate piecewise; arrivals are drawn by unit-exponential
// integration across the rate steps, so the process stays memoryless across
// the flash boundaries.
func (w *Workload) Arrivals(seed uint64, window time.Duration) []Request {
	var all []Request
	for i, t := range w.Tenants {
		rng := sim.NewRand(sim.SplitSeed(seed, tenantStream+uint64(i)))
		for _, at := range poissonTimes(rng, t.Rate, w.Flash, window) {
			all = append(all, Request{Tenant: t.Name, Priority: t.Priority, At: at})
		}
	}
	// Merge deterministically: by time, then tenant name (per-tenant order
	// is already increasing, so the sort is total).
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		return all[i].Tenant < all[j].Tenant
	})
	for i := range all {
		all[i].ID = i
	}
	return all
}

// poissonTimes draws one tenant's arrival instants in [0, window) for a
// piecewise-constant rate: base everywhere, base*flash.Factor inside the
// flash window. Each inter-arrival consumes one unit-exponential deviate,
// integrated across rate steps.
func poissonTimes(rng *sim.Rand, base float64, flash *Flash, window time.Duration) []time.Duration {
	if base <= 0 || window <= 0 {
		return nil
	}
	end := window.Seconds()
	// Rate steps as seconds offsets.
	var fStart, fEnd float64
	factor := 1.0
	if flash != nil {
		fStart, fEnd = flash.At.Seconds(), (flash.At + flash.For).Seconds()
		factor = flash.Factor
	}
	rateAt := func(t float64) float64 {
		if flash != nil && t >= fStart && t < fEnd {
			return base * factor
		}
		return base
	}
	nextStep := func(t float64) float64 {
		if flash == nil {
			return math.Inf(1)
		}
		switch {
		case t < fStart:
			return fStart
		case t < fEnd:
			return fEnd
		}
		return math.Inf(1)
	}
	var out []time.Duration
	t := 0.0
	for {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		e := -math.Log(u) // unit-exponential deviate
		for e > 0 {
			r := rateAt(t)
			step := nextStep(t)
			need := e / r
			if t+need < step {
				t += need
				e = 0
			} else {
				e -= (step - t) * r
				t = step
			}
		}
		if t >= end {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}
