// Command benchgate checks `go test -bench -benchmem` output against the
// bounds recorded in BENCH_kernel.json:
//
//	go run ./internal/benchgate BENCH_kernel.json bench-output.txt
//
// A results[] entry is gated when it has a "gate" field, for example
// {"allocs": "+64", "bytes": "+5%"}. Each bound is a slack over the entry's
// own recorded allocs_per_op or bytes_per_op: "+N" allows N more per op,
// "+P%" allows P percent more. An output line's name is matched exactly
// after its -<GOMAXPROCS> suffix is removed, and its values are read by
// their unit label (allocs/op, B/op). The check fails when a gated line
// exceeds a bound or lacks a bounded field, when a gated entry did not run,
// and when a line of a gated family (the name before the first "/") has no
// gated entry. It exits 1 on any failure and 2 on a usage error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// procsSuffix is the -<GOMAXPROCS> suffix go test appends to a name.
var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

// bound is one gated value: the unit label it is read by in benchmark
// output and the largest value that passes.
type bound struct {
	label string
	limit int64
}

// gated is one gated entry and whether it ran.
type gated struct {
	name   string
	bounds []bound
	ran    bool
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate BENCH_kernel.json bench-output.txt")
		os.Exit(2)
	}
	recorded, err := os.ReadFile(os.Args[1])
	out, err2 := os.Open(os.Args[2])
	if err != nil || err2 != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", errors.Join(err, err2))
		os.Exit(2)
	}
	fails, checked := check(recorded, out)
	for _, f := range fails {
		fmt.Println("FAIL", f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d gated benchmarks within their bounds\n", checked)
}

// check returns every failure of the benchmark output against the gated
// entries of recorded, and the number of gated entries.
func check(recorded []byte, output io.Reader) (fails []string, gates int) {
	var doc struct {
		Results []struct {
			Benchmark string            `json:"benchmark"`
			Allocs    *int64            `json:"allocs_per_op"`
			Bytes     *int64            `json:"bytes_per_op"`
			Gate      map[string]string `json:"gate"`
		} `json:"results"`
	}
	if err := json.Unmarshal(recorded, &doc); err != nil {
		return []string{err.Error()}, 0
	}
	var order []*gated
	byName := map[string]*gated{}
	families := map[string]bool{}
	for _, e := range doc.Results {
		if e.Gate == nil {
			continue
		}
		if e.Benchmark == "" || len(e.Gate) == 0 || byName[e.Benchmark] != nil {
			return []string{fmt.Sprintf("%q: a gate needs a unique benchmark name and at least one bound", e.Benchmark)}, 0
		}
		g := &gated{name: e.Benchmark}
		for _, u := range []struct {
			key, label string
			recorded   *int64
		}{{"allocs", "allocs/op", e.Allocs}, {"bytes", "B/op", e.Bytes}} {
			s, ok := e.Gate[u.key]
			if !ok {
				continue
			}
			limit, err := limitOf(u.recorded, s)
			if err != nil {
				return []string{fmt.Sprintf("%s: gate %s %q: %v", e.Benchmark, u.key, s, err)}, 0
			}
			g.bounds = append(g.bounds, bound{u.label, limit})
		}
		if len(g.bounds) != len(e.Gate) {
			return []string{fmt.Sprintf("%s: gate keys are allocs and bytes, not %v", e.Benchmark, e.Gate)}, 0
		}
		order = append(order, g)
		byName[g.name] = g
		families[family(g.name)] = true
	}
	if len(order) == 0 {
		return []string{"no results[] entry has a gate"}, 0
	}

	sc := bufio.NewScanner(output)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := procsSuffix.ReplaceAllString(f[0], "")
		if !families[family(name)] {
			continue
		}
		g := byName[name]
		if g == nil {
			fails = append(fails, fmt.Sprintf("%s: no gated entry in this gated family: %s", name, sc.Text()))
			continue
		}
		g.ran = true
		for _, b := range g.bounds {
			v, ok := valueOf(f, b.label)
			switch {
			case !ok:
				fails = append(fails, fmt.Sprintf("%s: no %s field: %s", name, b.label, sc.Text()))
			case v > b.limit:
				fails = append(fails, fmt.Sprintf("%s: %d %s > %d: %s", name, v, b.label, b.limit, sc.Text()))
			}
		}
	}
	if err := sc.Err(); err != nil {
		fails = append(fails, err.Error())
	}
	for _, g := range order {
		if !g.ran {
			fails = append(fails, g.name+": gated but did not run")
		}
	}
	return fails, len(order)
}

// limitOf returns the largest value a bound lets through over recorded:
// "+N" adds N, "+P%" adds P percent (rounded down, as values are whole).
func limitOf(recorded *int64, bound string) (int64, error) {
	if recorded == nil {
		return 0, fmt.Errorf("no recorded value")
	}
	s, ok := strings.CutPrefix(bound, "+")
	if !ok {
		return 0, fmt.Errorf("no leading +")
	}
	s, pct := strings.CutSuffix(s, "%")
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad slack %q", s)
	}
	if pct {
		return *recorded * (100 + n) / 100, nil
	}
	return *recorded + n, nil
}

// valueOf returns the whole number in front of label in a result line.
func valueOf(fields []string, label string) (int64, bool) {
	for i := 2; i < len(fields); i++ {
		if fields[i] == label {
			v, err := strconv.ParseInt(fields[i-1], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// family is a benchmark's top-level name.
func family(name string) string {
	top, _, _ := strings.Cut(name, "/")
	return top
}
