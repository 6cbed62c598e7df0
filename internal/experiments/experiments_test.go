package experiments

import (
	"strconv"
	"strings"
	"testing"

	"fastiov/internal/serverless"
)

// Tests run at reduced concurrency (50) so the whole suite stays fast; the
// benchmarks and cmd/fastiov-bench run the paper's full c=200 settings.
const testN = 50

// defaultExec is the executor most tests run on: serial, single seed.
func defaultExec() *Exec { return NewExec(1, nil) }

func TestFig1ShapeHolds(t *testing.T) {
	rep, err := defaultExec().Fig1([]int{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Table.String()
	if !strings.Contains(out, "overhead") {
		t.Errorf("fig1 table:\n%s", out)
	}
	// Overhead must grow with concurrency: compare the two rows' overhead
	// column via CSV parsing.
	lines := strings.Split(strings.TrimSpace(rep.Table.CSV()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 CSV lines, got %d", len(lines))
	}
}

func TestFig5TimelineRenders(t *testing.T) {
	rep, err := defaultExec().Fig5(testN)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "ctr") || !strings.Contains(rep.Text, "4") {
		t.Errorf("fig5 timeline:\n%s", rep.Text)
	}
}

func TestTable1VFRelatedDominates(t *testing.T) {
	rep, err := defaultExec().Table1(testN)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Table.String(), "4-vfio-dev") {
		t.Error("missing vfio row")
	}
	// The note carries the VF-related share; it must exceed 50% even at
	// reduced concurrency.
	if len(rep.Notes) == 0 {
		t.Fatal("missing note")
	}
}

func TestFig11HeadlineReductions(t *testing.T) {
	rep, err := defaultExec().Fig11(testN)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"vanilla", "fastiov", "pre100", "fastiov-L"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig11 missing %s:\n%s", want, out)
		}
	}
	if len(rep.Notes) != 2 {
		t.Errorf("want 2 notes, got %d", len(rep.Notes))
	}
}

func TestFig12CDFMonotone(t *testing.T) {
	rep, err := defaultExec().Fig12(testN)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "CDF") {
		t.Errorf("fig12 text:\n%s", rep.Text)
	}
}

func TestFig13aReductionGrowsWithConcurrency(t *testing.T) {
	rep, err := defaultExec().Fig13a([]int{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(rep.Table.CSV()), "\n")[1:]
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var red [2]float64
	for i, row := range rows {
		red[i] = cell(t, row, -1)
	}
	if red[1] <= red[0] {
		t.Errorf("reduction should grow with concurrency: %.1f @10 vs %.1f @50", red[0], red[1])
	}
}

// cell parses column idx (negative counts from the end) of a CSV row as a
// float.
func cell(t *testing.T, row string, idx int) float64 {
	t.Helper()
	cells := strings.Split(row, ",")
	if idx < 0 {
		idx += len(cells)
	}
	v, err := strconv.ParseFloat(cells[idx], 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", cells[idx], err)
	}
	return v
}

func TestFig13bVanillaMoreMemorySensitive(t *testing.T) {
	rep, err := defaultExec().Fig13b([]int64{512 << 20, 2 << 30}, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Notes) == 0 || !strings.Contains(rep.Notes[0], "vanilla") {
		t.Errorf("fig13b notes: %v", rep.Notes)
	}
}

func TestFig13cRuns(t *testing.T) {
	rep, err := defaultExec().Fig13c([]int{10, 25})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Table.String(), "memory/ctr") {
		t.Errorf("fig13c table:\n%s", rep.Table.String())
	}
}

func TestFig14SoftwareCNIBottlenecks(t *testing.T) {
	rep, err := defaultExec().Fig14(testN)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Table.String()
	if !strings.Contains(out, "addCNI") || !strings.Contains(out, "cgroup") {
		t.Errorf("fig14 table:\n%s", out)
	}
}

func TestMemPerfDegradationUnderOnePercent(t *testing.T) {
	rep, err := defaultExec().MemPerf()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Notes) == 0 {
		t.Fatal("missing note")
	}
	// The §6.5 claim: within 1%.
	if !strings.Contains(rep.Notes[0], "degradation") {
		t.Errorf("memperf note: %s", rep.Notes[0])
	}
}

func TestFig15ReductionShrinksWithExecTime(t *testing.T) {
	rep, err := defaultExec().Fig15(30)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(rep.Table.CSV()), "\n")[1:]
	if len(rows) != 4 {
		t.Fatalf("want 4 app rows, got %d", len(rows))
	}
	var reds []float64
	for _, row := range rows {
		reds = append(reds, cell(t, row, -2))
	}
	// Reduction must shrink monotonically from image to inference.
	for i := 1; i < len(reds); i++ {
		if reds[i] >= reds[i-1] {
			t.Errorf("reduction not shrinking: %v", reds)
		}
	}
}

func TestServerlessTaskRunsAllApps(t *testing.T) {
	for _, app := range serverless.Apps() {
		s, err := runServerless("fastiov", 5, app, nil)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if s.N() != 5 {
			t.Errorf("%s: %d completions", app.Name, s.N())
		}
		if s.Mean() <= app.ExecCPU {
			t.Errorf("%s: completion %v below exec time %v", app.Name, s.Mean(), app.ExecCPU)
		}
	}
}

func TestServerlessFastIOVBeatsVanilla(t *testing.T) {
	van, err := runServerless("vanilla", 20, serverless.Image, nil)
	if err != nil {
		t.Fatal(err)
	}
	fio, err := runServerless("fastiov", 20, serverless.Image, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fio.Mean() >= van.Mean() {
		t.Errorf("fastiov completion (%v) should beat vanilla (%v)", fio.Mean(), van.Mean())
	}
}
