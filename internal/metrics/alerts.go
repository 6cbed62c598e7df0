// Simulated-time SLO alerting: a parsed rule grammar evaluated by a
// registry-driven daemon proc with multi-window burn-rate semantics.
//
// Two rule kinds:
//
//	alert <name>: burnrate(<metric>, slo=<dur>, short=<win>, long=<win>) > <factor>
//	alert <name>: value(<metric>) > <threshold> [for <dur>]
//
// A burn-rate rule watches a latency histogram family: the error fraction
// over a trailing window is the share of new observations above the SLO
// bound, and the alert fires only when BOTH the short and the long window
// exceed the factor (the classic multi-window guard: the long window
// filters blips, the short window makes the alert resolve quickly once
// the burn stops). It resolves as soon as the short window drops back to
// or below the factor. A value rule compares a live gauge/counter family
// value against a threshold, optionally requiring the breach to sustain
// for a duration before firing.
//
// The engine samples the metric source on a fixed simulated-time tick from
// a daemon proc; it takes no locks and draws no randomness, so attaching
// it perturbs nothing (only the explicit alert outputs differ).
package metrics

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"fastiov/internal/clause"
	"fastiov/internal/sim"
)

// DefaultEvalInterval is the alert engine's sampling tick.
const DefaultEvalInterval = 25 * time.Millisecond

// RuleKind discriminates the two grammar productions.
type RuleKind int

const (
	// KindBurnRate is `burnrate(metric, slo=, short=, long=) > factor`.
	KindBurnRate RuleKind = iota
	// KindValue is `value(metric) > threshold [for dur]`.
	KindValue
)

// Rule is one parsed alert rule.
type Rule struct {
	Name   string
	Kind   RuleKind
	Metric string // metric family name (labels aggregated away)

	// Burn-rate fields.
	SLO   time.Duration // latency objective (histogram bucket bound)
	Short time.Duration // fast window
	Long  time.Duration // slow window

	Threshold float64       // burn factor or raw value bound
	For       time.Duration // value rule sustain (0 = immediate)
}

// String renders the rule in canonical form; ParseRules(r.String()) is a
// fixed point.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "alert %s: ", r.Name)
	switch r.Kind {
	case KindBurnRate:
		fmt.Fprintf(&b, "burnrate(%s, slo=%s, short=%s, long=%s)", r.Metric, r.SLO, r.Short, r.Long)
	case KindValue:
		fmt.Fprintf(&b, "value(%s)", r.Metric)
	}
	fmt.Fprintf(&b, " > %s", strconv.FormatFloat(r.Threshold, 'g', -1, 64))
	if r.Kind == KindValue && r.For > 0 {
		fmt.Fprintf(&b, " for %s", r.For)
	}
	return b.String()
}

// FormatRules renders a rule set as a ';'-separated spec.
func FormatRules(rules []Rule) string {
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}

func isMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ParseRules parses a ';'-separated alert rule spec (lexed by package
// clause), so empty clauses are skipped and a trailing ';' is harmless.
// Accepted specs re-parse to a fixed point: ParseRules(FormatRules(rules))
// round-trips (fuzz-tested).
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	seen := make(map[string]bool)
	for _, c := range clause.Split(spec) {
		r, err := parseRule(c)
		if err != nil {
			return nil, fmt.Errorf("alert rule %q: %w", c, err)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("alert rule %q: duplicate name %q", c, r.Name)
		}
		seen[r.Name] = true
		rules = append(rules, r)
	}
	return rules, nil
}

func parseRule(c string) (Rule, error) {
	var r Rule
	rest, ok := strings.CutPrefix(c, "alert ")
	if !ok {
		return r, fmt.Errorf(`expected "alert <name>: ..."`)
	}
	name, expr, ok := strings.Cut(rest, ":")
	if !ok {
		return r, fmt.Errorf(`missing ':' after alert name`)
	}
	r.Name = strings.TrimSpace(name)
	if err := clause.Name(r.Name); err != nil {
		return r, fmt.Errorf("bad alert name %w", err)
	}

	// Split off the comparison: `<call> > <f> [for <dur>]`.
	call, cmp, ok := strings.Cut(expr, ">")
	if !ok {
		return r, fmt.Errorf("missing '>' comparison")
	}
	call = strings.TrimSpace(call)
	cmp = strings.TrimSpace(cmp)

	// Optional `for <dur>` suffix on the comparison side.
	var err error
	if num, dur, found := cutLast(cmp, " for "); found {
		if r.For, err = clause.Time(strings.TrimSpace(dur)); err != nil {
			return r, fmt.Errorf("bad for %w", err)
		}
		cmp = strings.TrimSpace(num)
	}
	if r.Threshold, err = clause.Float(cmp, math.Inf(-1), math.Inf(1)); err != nil {
		return r, fmt.Errorf("bad threshold %w", err)
	}

	inner, ok := strings.CutSuffix(call, ")")
	fn, list, _ := strings.Cut(inner, "(")
	switch fn = strings.TrimSpace(fn); {
	case ok && fn == "value":
		r.Kind = KindValue
		r.Metric = strings.TrimSpace(list)
	case ok && fn == "burnrate":
		if r.For != 0 {
			return r, fmt.Errorf("burnrate rules do not take 'for'")
		}
		r.Kind = KindBurnRate
		metric, kvs, _ := strings.Cut(list, ",")
		r.Metric = strings.TrimSpace(metric)
		args, err := clause.Args(kvs, "slo", "short", "long")
		if err == nil && len(args) != 3 {
			err = fmt.Errorf("want (metric, slo=, short=, long=)")
		}
		if err != nil {
			return r, fmt.Errorf("burnrate: %w", err)
		}
		dst := map[string]*time.Duration{"slo": &r.SLO, "short": &r.Short, "long": &r.Long}
		for _, a := range args {
			if *dst[a.Key], err = clause.Duration(a.Val); err != nil {
				return r, fmt.Errorf("burnrate: %s=%w", a.Key, err)
			}
		}
		if r.Short > r.Long {
			return r, fmt.Errorf("short window %s exceeds long window %s", r.Short, r.Long)
		}
	default:
		return r, fmt.Errorf("expected burnrate(...) or value(...)")
	}
	if !isMetricName(r.Metric) {
		return r, fmt.Errorf("bad metric name %q", r.Metric)
	}
	return r, nil
}

// cutLast cuts s around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// MetricSource is the live metric surface the engine evaluates against.
// *Registry implements it; the engine tests substitute a fake.
type MetricSource interface {
	// FamilyValue sums the live values of every instrument in the named
	// family (labels aggregate away); ok is false when the family is
	// unknown.
	FamilyValue(name string) (v float64, ok bool)
	// FamilyBad returns the cumulative (above-SLO, total) observation
	// counts of the named histogram family, counting an observation as bad
	// when it exceeds the largest bucket bound <= slo.
	FamilyBad(name string, slo float64) (bad, total float64, ok bool)
}

// AlertState is an alert's lifecycle state.
type AlertState int

const (
	// StateFiring marks a fire transition.
	StateFiring AlertState = iota
	// StateResolved marks a resolve transition.
	StateResolved
)

// String returns "firing" or "resolved".
func (s AlertState) String() string {
	if s == StateFiring {
		return "firing"
	}
	return "resolved"
}

// AlertEvent is one fire or resolve transition.
type AlertEvent struct {
	At    time.Duration
	Rule  string
	State AlertState
	Value float64 // the evaluated value at the transition (short-window fraction for burn rates)
}

// ruleEval is the per-rule evaluation state.
type ruleEval struct {
	rule   Rule
	firing bool

	// Burn rate: ring of cumulative (bad, total) samples covering the long
	// window; oldest samples are dropped once they age past Long.
	samples []brSample

	// Value rule: simulated instant the value first exceeded the
	// threshold, or -1 while at or below it.
	aboveSince time.Duration
}

type brSample struct {
	at         time.Duration
	bad, total float64
}

// Engine evaluates a rule set against a metric source on a simulated-time
// tick. Create with NewEngine, attach with Start before kernel.Run.
type Engine struct {
	rules  []ruleEval
	src    MetricSource
	events []AlertEvent
}

// NewEngine returns an alert engine over src, evaluated every
// DefaultEvalInterval.
func NewEngine(rules []Rule, src MetricSource) *Engine {
	e := &Engine{src: src}
	for _, r := range rules {
		e.rules = append(e.rules, ruleEval{rule: r, aboveSince: -1})
	}
	return e
}

// Start spawns the evaluation daemon. Daemons never keep the simulation
// alive, so the engine simply stops when the run drains.
func (e *Engine) Start(k *sim.Kernel) {
	k.GoDaemon("slo-alert-engine", func(p *sim.Proc) {
		for {
			e.eval(p.Now())
			p.Sleep(DefaultEvalInterval)
		}
	})
}

func (e *Engine) eval(now time.Duration) {
	for i := range e.rules {
		re := &e.rules[i]
		switch re.rule.Kind {
		case KindBurnRate:
			e.evalBurnRate(re, now)
		case KindValue:
			e.evalValue(re, now)
		}
	}
}

// windowFrac returns the error fraction over the trailing window w: new
// bad observations divided by new total observations since the newest
// sample at or before now-w (or since the start of history when the run
// is younger than the window). An empty window counts as zero burn.
func (re *ruleEval) windowFrac(now, w time.Duration) float64 {
	if len(re.samples) == 0 {
		return 0
	}
	base := re.samples[0]
	for _, s := range re.samples {
		if s.at > now-w {
			break
		}
		base = s
	}
	head := re.samples[len(re.samples)-1]
	dt := head.total - base.total
	if dt <= 0 {
		return 0
	}
	return (head.bad - base.bad) / dt
}

func (e *Engine) evalBurnRate(re *ruleEval, now time.Duration) {
	bad, total, ok := e.src.FamilyBad(re.rule.Metric, re.rule.SLO.Seconds())
	if !ok {
		return
	}
	re.samples = append(re.samples, brSample{now, bad, total})
	// Keep one sample older than the long window as the diff base.
	for len(re.samples) > 2 && re.samples[1].at <= now-re.rule.Long {
		re.samples = re.samples[1:]
	}
	short := re.windowFrac(now, re.rule.Short)
	long := re.windowFrac(now, re.rule.Long)
	if !re.firing && short > re.rule.Threshold && long > re.rule.Threshold {
		re.firing = true
		e.events = append(e.events, AlertEvent{now, re.rule.Name, StateFiring, short})
	} else if re.firing && short <= re.rule.Threshold {
		re.firing = false
		e.events = append(e.events, AlertEvent{now, re.rule.Name, StateResolved, short})
	}
}

func (e *Engine) evalValue(re *ruleEval, now time.Duration) {
	v, ok := e.src.FamilyValue(re.rule.Metric)
	if !ok {
		return
	}
	if v > re.rule.Threshold {
		if re.aboveSince < 0 {
			re.aboveSince = now
		}
		if !re.firing && now-re.aboveSince >= re.rule.For {
			re.firing = true
			e.events = append(e.events, AlertEvent{now, re.rule.Name, StateFiring, v})
		}
	} else {
		re.aboveSince = -1
		if re.firing {
			re.firing = false
			e.events = append(e.events, AlertEvent{now, re.rule.Name, StateResolved, v})
		}
	}
}

// Events returns the fire/resolve transitions in simulated-time order.
func (e *Engine) Events() []AlertEvent { return e.events }

// Rules returns the engine's parsed rules.
func (e *Engine) Rules() []Rule {
	out := make([]Rule, len(e.rules))
	for i := range e.rules {
		out[i] = e.rules[i].rule
	}
	return out
}

// FirstFiring returns the instant the named rule first fired at or after
// the given onset.
func (e *Engine) FirstFiring(rule string, after time.Duration) (time.Duration, bool) {
	for _, ev := range e.events {
		if ev.Rule == rule && ev.State == StateFiring && ev.At >= after {
			return ev.At, true
		}
	}
	return 0, false
}

// FirstResolve returns the instant the named rule first resolved at or
// after the given instant.
func (e *Engine) FirstResolve(rule string, after time.Duration) (time.Duration, bool) {
	for _, ev := range e.events {
		if ev.Rule == rule && ev.State == StateResolved && ev.At >= after {
			return ev.At, true
		}
	}
	return 0, false
}

// AppendCanonical appends the canonical alert timeline: a header per rule,
// then one line per transition.
func (e *Engine) AppendCanonical(b []byte) []byte {
	b = fmt.Appendf(b, "alerts rules=%d eval=%s events=%d\n", len(e.rules), DefaultEvalInterval, len(e.events))
	for i := range e.rules {
		b = fmt.Appendf(b, "rule %s\n", e.rules[i].rule)
	}
	for _, ev := range e.events {
		b = fmt.Appendf(b, "%d %s %s %s\n", int64(ev.At), ev.Rule, ev.State,
			strconv.FormatFloat(ev.Value, 'g', -1, 64))
	}
	return b
}

// WriteTimeline writes a human-oriented alert timeline.
func (e *Engine) WriteTimeline(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "alert timeline: %d rules, eval every %s\n", len(e.rules), DefaultEvalInterval)
	for i := range e.rules {
		fmt.Fprintf(&b, "  %s\n", e.rules[i].rule)
	}
	if len(e.events) == 0 {
		b.WriteString("(no transitions)\n")
	}
	for _, ev := range e.events {
		fmt.Fprintf(&b, "%12s  %-16s %-9s value=%s\n", ev.At, ev.Rule, ev.State,
			strconv.FormatFloat(ev.Value, 'g', -1, 64))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Fingerprint returns an FNV-1a hash over the canonical alert timeline.
func (e *Engine) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write(e.AppendCanonical(nil))
	return h.Sum64()
}
