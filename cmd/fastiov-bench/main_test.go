package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

func TestSanitize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"fig11", "fig11"},
		{"fig16a-d", "fig16a-d"},
		{"sec6.5", "sec6_5"},
		{"abl-busscan", "abl-busscan"},
		{"UPPER", "_____"},
		{"a/b\\c", "a_b_c"},
		{"", ""},
		{"..", "__"},
		{"id with spaces", "id_with_spaces"},
	}
	for _, c := range cases {
		if got := sanitize(c.in); got != c.want {
			t.Errorf("sanitize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// stripTimes removes the wall-time trailer lines, which are the only
// nondeterministic part of the output at a fixed seed.
func stripTimes(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "(") && strings.Contains(line, "wall time)") {
			continue
		}
		if strings.HasPrefix(line, "(suite:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// golden runs the CLI and compares stripped stdout against a golden file,
// rewriting it under -update.
func golden(t *testing.T, name string, argv []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	got := stripTimes(stdout.String())
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/fastiov-bench -run TestGolden -update` to create)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update after intended changes):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// The golden tests pin the exact rendered output of two representative
// experiments at the default seed and a small fixed concurrency: fig11
// (the headline all-baselines table plus notes) and tab1 (the stage
// breakdown), in both text and CSV form. Any unintended change to the
// simulation, statistics, or rendering shows up as a byte diff.
func TestGoldenFig11Text(t *testing.T) {
	golden(t, "fig11_n20.txt", []string{"-experiment", "fig11", "-n", "20"})
}

func TestGoldenFig11CSV(t *testing.T) {
	golden(t, "fig11_n20.csv", []string{"-experiment", "fig11", "-n", "20", "-csv"})
}

func TestGoldenTab1Text(t *testing.T) {
	golden(t, "tab1_n20.txt", []string{"-experiment", "tab1", "-n", "20"})
}

func TestGoldenTab1CSV(t *testing.T) {
	golden(t, "tab1_n20.csv", []string{"-experiment", "tab1", "-n", "20", "-csv"})
}

// The chaos goldens pin the fault-injection surface end to end: the sweep
// table (success rate, survivor latency percentiles, injection counters,
// retry telemetry) and its per-site notes at two seeds.
func TestGoldenChaosText(t *testing.T) {
	golden(t, "chaos_n20.txt", []string{"-experiment", "chaos", "-n", "20", "-seeds", "2"})
}

func TestGoldenChaosCSV(t *testing.T) {
	golden(t, "chaos_n20.csv", []string{"-experiment", "chaos", "-n", "20", "-seeds", "2", "-csv"})
}

// The contention goldens pin the lock-profiling surface: the per-baseline
// top-lock table (wait/hold totals, queue depths, top blockers) and the
// critical-path decomposition text, which must name the VFIO devset global
// mutex as vanilla's dominant blocker.
func TestGoldenContentionText(t *testing.T) {
	golden(t, "contention_n20.txt", []string{"-contention", "-n", "20"})
}

func TestGoldenContentionCSV(t *testing.T) {
	golden(t, "contention_n20.csv", []string{"-experiment", "contention", "-n", "20", "-csv"})
}

// traceFile runs `-trace` into a temp file and returns the bytes.
func traceFile(t *testing.T, extra ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	argv := append([]string{"-trace", path}, extra...)
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "perfetto") {
		t.Errorf("missing Perfetto pointer in: %s", stdout.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenTraceJSON pins the exported Chrome traces of small runs
// byte-for-byte: event names, timestamps, durations, and tid/pid layout are
// all pure functions of (baseline, n, seed). The fastiov trace pins the
// fastiovd scrubber's per-page memory-bandwidth holds, which vanilla lacks.
func TestGoldenTraceJSON(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"trace_n5.json", []string{"-n", "5"}},
		{"trace_fastiov_n5.json", []string{"-baseline", "fastiov", "-n", "5"}},
	} {
		t.Run(c.file, func(t *testing.T) {
			got := traceFile(t, c.args...)
			path := filepath.Join("testdata", c.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/fastiov-bench -run TestGolden -update` to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace JSON differs from %s (re-run with -update after intended changes)", path)
			}
		})
	}
}

// TestTraceExportValidJSON is the acceptance check at paper-adjacent scale:
// a 50-container export must be valid trace-event JSON with the expected
// envelope, and two exports at the same seed must be byte-identical.
func TestTraceExportValidJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("50-container export")
	}
	b1 := traceFile(t, "-n", "50")
	b2 := traceFile(t, "-n", "50")
	if !bytes.Equal(b1, b2) {
		t.Error("two -trace exports at the same seed differ")
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b1, &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", file.DisplayTimeUnit)
	}
	if len(file.TraceEvents) < 100 {
		t.Errorf("only %d events for a 50-container run", len(file.TraceEvents))
	}
	var sawDevsetWait bool
	for _, ev := range file.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("event missing name/ph: %+v", ev)
		}
		if strings.Contains(ev.Name, "vfio-devset") {
			sawDevsetWait = true
		}
	}
	if !sawDevsetWait {
		t.Error("vanilla 50-container trace contains no vfio-devset wait events")
	}
}

// TestBadFaultSpecExits2 checks -faults pre-validation: a malformed plan is
// a usage error diagnosed before any experiment runs.
func TestBadFaultSpecExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "tab1", "-n", "20", "-faults", "bogus-site:p=0.1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown site") {
		t.Errorf("stderr missing grammar diagnosis:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("experiment ran despite bad -faults:\n%s", stdout.String())
	}
}

// TestFaultsFlagChangesOutput checks the -faults flag reaches the
// simulation: the same experiment renders differently under a plan.
func TestFaultsFlagChangesOutput(t *testing.T) {
	var clean, faulted, errBuf bytes.Buffer
	if code := run([]string{"-experiment", "tab1", "-n", "20"}, &clean, &errBuf); code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, errBuf.String())
	}
	if code := run([]string{"-experiment", "tab1", "-n", "20", "-faults", "vfio-reset:p=0.2"}, &faulted, &errBuf); code != 0 {
		t.Fatalf("faulted run: exit %d, stderr: %s", code, errBuf.String())
	}
	if stripTimes(clean.String()) == stripTimes(faulted.String()) {
		t.Error("-faults vfio-reset:p=0.2 left tab1 output unchanged")
	}
}

// TestErrorAggregation checks that a failing experiment no longer aborts
// the batch: healthy ids still run and render, every bad id is reported,
// and the exit code signals failure once at the end.
func TestErrorAggregation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-experiment", "bogus1,tab1,bogus2", "-n", "20"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	errText := stderr.String()
	for _, want := range []string{"bogus1", "bogus2", "2 of 3 experiments failed"} {
		if !strings.Contains(errText, want) {
			t.Errorf("stderr missing %q:\n%s", want, errText)
		}
	}
	if !strings.Contains(stdout.String(), "tab1") {
		t.Errorf("healthy experiment tab1 did not render:\n%s", stdout.String())
	}
}

func TestListExits0(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	for _, id := range []string{"fig1", "fig11", "tab1", "bg-dataplane", "availability"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list missing %s", id)
		}
	}
}

func TestBadFlagExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestOutDirWritesCSV checks the -out side channel.
func TestOutDirWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "tab1", "-n", "20", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	b, err := os.ReadFile(filepath.Join(dir, "tab1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "Step") {
		t.Errorf("tab1.csv missing header: %s", b)
	}
}

// TestWorkersMatchSerial is the CLI-level parallel==serial identity: the
// same ids at the same seeds must render byte-identically regardless of
// worker count.
func TestWorkersMatchSerial(t *testing.T) {
	argsSerial := []string{"-experiment", "fig11,tab1", "-n", "20", "-seeds", "2", "-workers", "1"}
	argsParallel := []string{"-experiment", "fig11,tab1", "-n", "20", "-seeds", "2", "-workers", "8"}
	var out1, out2, errBuf bytes.Buffer
	if code := run(argsSerial, &out1, &errBuf); code != 0 {
		t.Fatalf("serial: exit %d, stderr: %s", code, errBuf.String())
	}
	if code := run(argsParallel, &out2, &errBuf); code != 0 {
		t.Fatalf("parallel: exit %d, stderr: %s", code, errBuf.String())
	}
	if s1, s2 := stripTimes(out1.String()), stripTimes(out2.String()); s1 != s2 {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s1, s2)
	}
}

// TestOversizedSeedsHostsExit2 checks the -seeds and -hosts bounds: a value
// above fastiov.MaxSeeds or fastiov.MaxHosts is a usage error diagnosed
// before anything is allocated or run, in the suite and the standalone
// export modes alike, and the bounds themselves are accepted.
func TestOversizedSeedsHostsExit2(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		argv []string
		code int
		want string
	}{
		{[]string{"-list", "-seeds", "1001"}, 2, "-seeds 1001 exceeds the limit of 1000"},
		{[]string{"-list", "-hosts", "10001"}, 2, "-hosts 10001 exceeds the limit of 10000"},
		{[]string{"-trace", filepath.Join(dir, "t.json"), "-seeds", "1001"}, 2, "-seeds 1001 exceeds"},
		{[]string{"-metrics", filepath.Join(dir, "m.om"), "-seeds", "1001"}, 2, "-seeds 1001 exceeds"},
		{[]string{"-journey-log", filepath.Join(dir, "j.jsonl"), "-hosts", "10001"}, 2, "-hosts 10001 exceeds"},
		{[]string{"-list", "-seeds", "1000"}, 0, ""},
		{[]string{"-list", "-hosts", "10000"}, 0, ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.argv, &stdout, &stderr); code != tc.code {
			t.Fatalf("%q: exit code = %d, want %d, stderr:\n%s", tc.argv, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr missing %q:\n%s", tc.argv, tc.want, stderr.String())
		}
		if tc.code == 2 && stdout.Len() != 0 {
			t.Errorf("%q: ran despite the oversized value:\n%s", tc.argv, stdout.String())
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("an export mode wrote %d files despite the oversized value", len(entries))
	}
}
