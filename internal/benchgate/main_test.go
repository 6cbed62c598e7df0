package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// entry is what the tests read of a BENCH_kernel.json result.
type entry struct {
	name          string
	bytes, allocs int64
	gated         bool
}

// line is one benchmark result line of go test -bench -benchmem output.
type line struct {
	name          string // as printed, -<GOMAXPROCS> suffix included
	bytes, allocs int64
	noBytes       bool // the line lacks its B/op field
}

func (l line) value(label string) (int64, bool) {
	if label == "B/op" {
		return l.bytes, !l.noBytes
	}
	return l.allocs, true
}

func render(lines []line) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: fastiov/internal/sim\n")
	for _, l := range lines {
		fmt.Fprintf(&b, "%-40s\t     100\t     12345 ns/op", l.name)
		if !l.noBytes {
			fmt.Fprintf(&b, "\t%8d B/op", l.bytes)
		}
		fmt.Fprintf(&b, "\t%8d allocs/op\n", l.allocs)
	}
	b.WriteString("PASS\nok  \tfastiov/internal/sim\t1.234s\n")
	return b.String()
}

// recorded reads the repository's BENCH_kernel.json.
func recorded(t *testing.T) ([]byte, []entry) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_kernel.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Benchmark string
			Bytes     int64 `json:"bytes_per_op"`
			Allocs    int64 `json:"allocs_per_op"`
			Gate      map[string]string
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var es []entry
	for _, r := range doc.Results {
		es = append(es, entry{r.Benchmark, r.Bytes, r.Allocs, r.Gate != nil})
	}
	return raw, es
}

// passing is one output line per recorded entry at its recorded values;
// every other line carries a -4 suffix, as a 4-CPU run without -cpu 1
// prints it.
func passing(es []entry) []line {
	out := make([]line, len(es))
	for i, e := range es {
		out[i] = line{name: e.name, bytes: e.bytes, allocs: e.allocs}
		if i%2 == 0 {
			out[i].name += "-4"
		}
	}
	return out
}

// oldStep models one of the jq + awk CI steps that results[].gate
// replaced. Each step matched output lines by a name prefix (awk
// /^prefix/) and compared one unit per line against a limit.
type oldStep struct {
	step   string
	prefix string
	label  string
	// limit is the step's bound over a recorded value, computed as awk
	// did; nil for the must-be-0 steps, which read no recorded value.
	limit func(rec int64) float64
	// subs: limits are per recorded sub-benchmark, an unrecorded line
	// fails, and every recorded one must have run.
	subs bool
	// minLines is how many matching lines a must-be-0 step required.
	minLines int
}

func plus(n int64) func(int64) float64 { return func(r int64) float64 { return float64(r + n) } }

func pct5(r int64) float64 { return float64(r) * 1.05 }

// oldSteps are the fifteen gate steps. The queued-wake step is modelled as
// one row per family, since it required a line of each, and the contended
// step as one row per unit.
var oldSteps = []oldStep{
	{"spawn/join allocs", "BenchmarkKernelSpawnJoin", "allocs/op", plus(0), false, 0},
	{"fleet allocs", "BenchmarkFleet100x20", "allocs/op", plus(64), false, 0},
	{"fleet bytes", "BenchmarkFleet100x20", "B/op", pct5, false, 0},
	{"page-size ablation allocs", "BenchmarkAblationPageSize", "allocs/op", plus(8), false, 0},
	{"page-size ablation bytes", "BenchmarkAblationPageSize", "B/op", pct5, false, 0},
	{"startup allocs", "BenchmarkStartupC200/", "allocs/op", plus(8), true, 0},
	{"startup bytes", "BenchmarkStartupC200/", "B/op", pct5, true, 0},
	{"fastiovd allocs", "BenchmarkFastiovdRegisterScrub", "allocs/op", plus(0), false, 0},
	{"journey export allocs", "BenchmarkJourneyExports", "allocs/op", plus(0), false, 0},
	{"serving allocs", "BenchmarkServeJourneys/", "allocs/op", plus(64), true, 0},
	{"serving bytes", "BenchmarkServeJourneys/", "B/op", pct5, true, 0},
	{"trace allocs", "BenchmarkTraceRecordAnalyze", "allocs/op", plus(0), false, 0},
	{"trace bytes", "BenchmarkTraceRecordAnalyze", "B/op", pct5, false, 0},
	{"event-queue allocs", "BenchmarkEventQueue", "allocs/op", nil, false, 1},
	{"queued-wake allocs (sleep)", "BenchmarkKernelSleepQueued", "allocs/op", nil, false, 1},
	{"queued-wake allocs (steps)", "BenchmarkKernelStepsQueued", "allocs/op", nil, false, 1},
	{"contended handoff allocs", "BenchmarkKernelContended/", "allocs/op", nil, false, 5},
	{"contended handoff bytes", "BenchmarkKernelContended/", "B/op", nil, false, 5},
}

// passes is the old step's verdict on out.
func (s oldStep) passes(es []entry, out []line) bool {
	rec := map[string]entry{}
	for _, e := range es {
		rec[e.name] = e
	}
	seen := map[string]bool{}
	n := 0
	for _, l := range out {
		if !strings.HasPrefix(l.name, s.prefix) {
			continue
		}
		name := procsSuffix.ReplaceAllString(l.name, "")
		n++
		seen[name] = true
		limit := 0.0
		switch {
		case s.limit == nil:
		case s.subs:
			r, ok := rec[name]
			if !ok {
				return false
			}
			limit = s.limit(r.value(s.label))
		default:
			limit = s.limit(rec[s.prefix].value(s.label))
		}
		if v, ok := l.value(s.label); !ok || float64(v) > limit {
			return false
		}
	}
	if s.limit == nil {
		return n >= s.minLines
	}
	if s.subs {
		for _, e := range es {
			if strings.HasPrefix(e.name, s.prefix) && !seen[e.name] {
				return false
			}
		}
	}
	return n > 0
}

func (e entry) value(label string) int64 {
	if label == "B/op" {
		return e.bytes
	}
	return e.allocs
}

// covers lists the recorded entries a step checked.
func (s oldStep) covers(es []entry) []entry {
	var out []entry
	for _, e := range es {
		if e.name == s.prefix || (strings.HasPrefix(e.name, s.prefix) && strings.Contains(e.name, "/")) {
			out = append(out, e)
		}
	}
	return out
}

// family is the gated family a step's prefix names.
func (s oldStep) family() string { return strings.TrimSuffix(s.prefix, "/") }

// tightened reports the cases where the checker fails output the old step
// passed: a recorded sub-benchmark of a family whose old step wanted any
// one line must run by name, and a line of a gated family must have a
// gated entry, where the old prefix match checked an unrecorded
// sub-benchmark against the family's one limit.
func (s oldStep) tightened(kind string) bool {
	return kind == "not run" && s.minLines == 1 || kind == "unrecorded sub-benchmark" && !s.subs
}

// TestOldGatesReproduced feeds the checker, for every old gate step and
// every entry it checked, lines at the bound, one over it, without B/op,
// missing, and an unrecorded sub-benchmark of its family. Each verdict
// must equal the old steps' joint verdict, except the listed tightenings,
// where the checker fails what the old step passed.
func TestOldGatesReproduced(t *testing.T) {
	raw, es := recorded(t)
	base := passing(es)
	if fails, _ := check(raw, strings.NewReader(render(base))); len(fails) > 0 {
		t.Fatalf("recorded values fail:\n%s", strings.Join(fails, "\n"))
	}
	oldPass := func(out []line) bool {
		for _, s := range oldSteps {
			if !s.passes(es, out) {
				return false
			}
		}
		return true
	}
	if !oldPass(base) {
		t.Fatal("the old steps fail the recorded values")
	}
	edit := func(name string, f func(*line) bool) []line {
		var out []line
		for _, l := range base {
			if procsSuffix.ReplaceAllString(l.name, "") == name && !f(&l) {
				continue
			}
			out = append(out, l)
		}
		return out
	}
	run := func(s oldStep, kind, want string, out []line) {
		t.Helper()
		fails, _ := check(raw, strings.NewReader(render(out)))
		got, old := len(fails) == 0, oldPass(out)
		switch {
		case s.tightened(kind):
			if got || !old {
				t.Errorf("%s, %s: checker pass=%v, old pass=%v; want a tightening (false, true)", s.step, kind, got, old)
			}
		case got != old:
			t.Errorf("%s, %s: checker pass=%v, old pass=%v\n%s", s.step, kind, got, old, strings.Join(fails, "\n"))
		}
		if !got && !strings.Contains(strings.Join(fails, "\n"), want) {
			t.Errorf("%s, %s: no failure names %s:\n%s", s.step, kind, want, strings.Join(fails, "\n"))
		}
	}
	for _, s := range oldSteps {
		covered := s.covers(es)
		if len(covered) == 0 {
			t.Fatalf("%s: no recorded entry", s.step)
		}
		for _, e := range covered {
			bound := int64(0)
			if s.limit != nil {
				bound = int64(s.limit(e.value(s.label)))
			}
			set := func(v int64) func(*line) bool {
				return func(l *line) bool {
					if s.label == "B/op" {
						l.bytes = v
					} else {
						l.allocs = v
					}
					return true
				}
			}
			for _, c := range []struct {
				kind string
				out  []line
			}{
				{"at bound", edit(e.name, set(bound))},
				{"bound+1", edit(e.name, set(bound+1))},
				{"no B/op", edit(e.name, func(l *line) bool { l.noBytes = true; return true })},
				{"not run", edit(e.name, func(*line) bool { return false })},
			} {
				run(s, c.kind, e.name, c.out)
			}
		}
		sub := s.family() + "/unrecorded"
		run(s, "unrecorded sub-benchmark", sub, append(append([]line(nil), base...), line{name: sub + "-4"}))
	}
}

// TestUngatedFamiliesIgnored: lines of ungated benchmarks pass whatever
// they read, and their absence is no failure.
func TestUngatedFamiliesIgnored(t *testing.T) {
	raw, es := recorded(t)
	var out []line
	for _, l := range passing(es) {
		name := procsSuffix.ReplaceAllString(l.name, "")
		if name == "BenchmarkKernelSleepFastPath" || name == "BenchmarkFleet1000x20" {
			continue
		}
		out = append(out, l)
	}
	out = append(out, line{name: "BenchmarkFleet1000x20", bytes: 1 << 40, allocs: 1 << 40, noBytes: true})
	gated := 0
	for _, e := range es {
		if e.gated {
			gated++
		}
	}
	if fails, n := check(raw, strings.NewReader(render(out))); len(fails) > 0 || n != gated {
		t.Fatalf("%d of %d gates checked, failures:\n%s", n, gated, strings.Join(fails, "\n"))
	}
}

func TestLimitOf(t *testing.T) {
	rec := int64(824640)
	for _, c := range []struct {
		bound string
		want  int64
		ok    bool
	}{
		{"+0", rec, true},
		{"+64", rec + 64, true},
		{"+5%", 865872, true}, // exactly 1.05 times: the bound itself passes
		{"+0%", rec, true},
		{"64", 0, false},
		{"+-1", 0, false},
		{"+5.5%", 0, false},
		{"+", 0, false},
	} {
		got, err := limitOf(&rec, c.bound)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("limitOf(%d, %q) = %d, %v; want %d, ok=%v", rec, c.bound, got, err, c.want, c.ok)
		}
	}
	if _, err := limitOf(nil, "+0"); err == nil {
		t.Error("a bound over no recorded value was accepted")
	}
}

// TestBadGatesRejected: a gate the checker cannot apply fails the check
// rather than gating nothing.
func TestBadGatesRejected(t *testing.T) {
	out := render([]line{{name: "BenchmarkX"}})
	for _, doc := range []string{
		`{"results": []}`,
		`{"results": [{"benchmark": "BenchmarkX"}]}`,
		`{"results": [{"benchmark": "BenchmarkX", "allocs_per_op": 1, "gate": {}}]}`,
		`{"results": [{"benchmark": "BenchmarkX", "allocs_per_op": 1, "gate": {"alloc": "+0"}}]}`,
		`{"results": [{"benchmark": "BenchmarkX", "allocs_per_op": 1, "gate": {"bytes": "+0"}}]}`,
		`{"results": [{"benchmark": "BenchmarkX", "allocs_per_op": 1, "gate": {"allocs": "5%"}}]}`,
		`{"results": [{"benchmark": "BenchmarkX", "allocs_per_op": 1, "gate": {"allocs": "+0"}},
		              {"benchmark": "BenchmarkX", "allocs_per_op": 1, "gate": {"allocs": "+0"}}]}`,
		`{"results": [{"allocs_per_op": 1, "gate": {"allocs": "+0"}}]}`,
		`not json`,
	} {
		if fails, _ := check([]byte(doc), strings.NewReader(out)); len(fails) == 0 {
			t.Errorf("accepted %s", doc)
		}
	}
	ok := `{"results": [{"benchmark": "BenchmarkX", "allocs_per_op": 0, "bytes_per_op": 0, "gate": {"allocs": "+0", "bytes": "+0"}}]}`
	if fails, _ := check([]byte(ok), strings.NewReader(out)); len(fails) > 0 {
		t.Errorf("rejected %s: %v", ok, fails)
	}
}

// TestNameMatching: only a trailing all-digit -N is the GOMAXPROCS
// suffix, so a sub-benchmark name with a dash matches exactly.
func TestNameMatching(t *testing.T) {
	doc := `{"results": [
		{"benchmark": "BenchmarkS/fastiov-L", "allocs_per_op": 1, "gate": {"allocs": "+0"}},
		{"benchmark": "BenchmarkS/pre10", "allocs_per_op": 1, "gate": {"allocs": "+0"}}]}`
	for _, c := range []struct {
		out  []line
		pass bool
	}{
		{[]line{{name: "BenchmarkS/fastiov-L", allocs: 1}, {name: "BenchmarkS/pre10-16", allocs: 1}}, true},
		{[]line{{name: "BenchmarkS/fastiov-L-2", allocs: 1}, {name: "BenchmarkS/pre10", allocs: 1}}, true},
		{[]line{{name: "BenchmarkS/fastiov", allocs: 1}, {name: "BenchmarkS/pre10", allocs: 1}}, false},
		{[]line{{name: "BenchmarkS/fastiov-L-2", allocs: 2}, {name: "BenchmarkS/pre10-2", allocs: 1}}, false},
	} {
		fails, _ := check([]byte(doc), strings.NewReader(render(c.out)))
		if (len(fails) == 0) != c.pass {
			t.Errorf("%v: failures %v, want pass=%v", c.out, fails, c.pass)
		}
	}
}
