// Package clause is the lexer shared by the repo's spec grammars: fault
// plans (fault.ParsePlan), serving tenant mixes (serve.ParseWorkload) and
// SLO alert rules (journey.ParseRules). The grammars keep their own
// productions; this package owns the lexical policy they all follow:
// whitespace around separators is ignored, empty ';' clauses are skipped,
// every list item is key=value, and a key may appear at most once.
//
// Value parsers return errors that start with the quoted value, so callers
// prefix them with the key: fmt.Errorf("%s=%w", key, err).
package clause

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Split returns the ';'-separated clauses of spec, trimmed, with empty
// clauses dropped.
func Split(spec string) []string {
	var out []string
	for _, c := range strings.Split(spec, ";") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}

// Arg is one key=value item of an argument list.
type Arg struct{ Key, Val string }

// Args parses a "k=v[,k=v...]" list in input order. Keys and values are
// trimmed, every item needs '=', each key must be one of keys, and a key
// may appear at most once.
func Args(list string, keys ...string) ([]Arg, error) {
	var out []Arg
	for _, item := range strings.Split(list, ",") {
		k, v, ok := strings.Cut(item, "=")
		a := Arg{strings.TrimSpace(k), strings.TrimSpace(v)}
		switch {
		case !ok:
			return nil, fmt.Errorf("bad key=value %q (want key=val)", a.Key)
		case !slices.Contains(keys, a.Key):
			return nil, fmt.Errorf("unknown key %q (want %s)", a.Key, strings.Join(keys, ", "))
		case slices.ContainsFunc(out, func(prev Arg) bool { return prev.Key == a.Key }):
			return nil, fmt.Errorf("duplicate key %q", a.Key)
		}
		out = append(out, a)
	}
	return out, nil
}

// Float parses v as a finite float64 in [lo, hi]. NaN and ±Inf are
// rejected: a non-finite rate or factor would poison every derived
// duration.
func Float(v string, lo, hi float64) (float64, error) {
	f, err := finite(v)
	if err == nil && (f < lo || f > hi) {
		err = fmt.Errorf("%q: out of [%g,%g]", v, lo, hi)
	}
	return f, err
}

// Positive parses v as a finite float64 > 0.
func Positive(v string) (float64, error) {
	f, err := finite(v)
	if err == nil && f <= 0 {
		err = fmt.Errorf("%q: must be > 0", v)
	}
	return f, err
}

func finite(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%q: %w", v, err.(*strconv.NumError).Err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%q: non-finite value", v)
	}
	return f, nil
}

// Int parses v as a base-10 integer >= min.
func Int(v string, min int) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < min {
		return 0, fmt.Errorf("%q: want integer >= %d", v, min)
	}
	return n, nil
}

// Time parses v (time.ParseDuration syntax) as an offset on the simulated
// clock: >= 0.
func Time(v string) (time.Duration, error) { return duration(v, 0, "time >= 0") }

// Duration parses v (time.ParseDuration syntax) as a span: > 0.
func Duration(v string) (time.Duration, error) { return duration(v, 1, "duration > 0") }

func duration(v string, min time.Duration, want string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("%q: invalid duration", v)
	}
	if d < min {
		return 0, fmt.Errorf("%q: want %s", v, want)
	}
	return d, nil
}

// Name checks that s is a name: one or more of [a-z0-9-].
func Name(s string) error {
	ok := s != ""
	for _, r := range s {
		ok = ok && (r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-')
	}
	if !ok {
		return fmt.Errorf("%q (want [a-z0-9-]+)", s)
	}
	return nil
}

// FixedPoint checks a grammar's round-trip contract on spec: if parse
// accepts it, the canonical rendering must re-parse and render to itself.
// A rejected spec passes; the rendering doubles as a cache-key component,
// so only accepted specs are bound by it.
func FixedPoint[T any](spec string, parse func(string) (T, error), format func(T) string) error {
	v, err := parse(spec)
	if err != nil {
		return nil
	}
	canon := format(v)
	again, err := parse(canon)
	if err != nil {
		return fmt.Errorf("canonical form %q of %q does not re-parse: %v", canon, spec, err)
	}
	if got := format(again); got != canon {
		return fmt.Errorf("not a fixed point: %q -> %q -> %q", spec, canon, got)
	}
	return nil
}
