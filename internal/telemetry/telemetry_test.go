package telemetry

import (
	"strings"
	"testing"
	"time"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

func TestTotals(t *testing.T) {
	r := NewRecorder()
	r.MarkStart(0, 0)
	r.MarkEnd(0, sec(2))
	r.MarkStart(1, sec(1))
	r.MarkEnd(1, sec(4))
	totals := r.Totals()
	if totals.N() != 2 {
		t.Fatalf("n = %d", totals.N())
	}
	if totals.Mean() != sec(2.5) {
		t.Errorf("mean = %v, want 2.5s", totals.Mean())
	}
}

func TestIncompleteContainerExcluded(t *testing.T) {
	r := NewRecorder()
	r.MarkStart(0, 0)
	r.MarkEnd(0, sec(1))
	r.MarkStart(1, 0) // never ends
	if r.Totals().N() != 1 {
		t.Error("incomplete container should be excluded from totals")
	}
	if r.Total(1) != 0 {
		t.Error("incomplete total should be 0")
	}
}

func TestStageTimeSumsSpans(t *testing.T) {
	r := NewRecorder()
	r.MarkStart(0, 0)
	r.Record(0, StageVFIODev, sec(0), sec(1))
	r.Record(0, StageVFIODev, sec(2), sec(2.5))
	r.Record(0, StageDMARAM, sec(1), sec(2))
	if got := r.StageTime(0, StageVFIODev); got != sec(1.5) {
		t.Errorf("vfio-dev time = %v, want 1.5s", got)
	}
	if got := r.StageTime(0, StageDMARAM); got != sec(1) {
		t.Errorf("dma-ram time = %v, want 1s", got)
	}
}

func TestNegativeSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	r := NewRecorder()
	r.MarkStart(0, 0)
	r.Record(0, StageCgroup, sec(2), sec(1))
}

func TestVFRelatedClassification(t *testing.T) {
	vf := []Stage{StageDMARAM, StageDMAImage, StageVFIODev, StageVFDriver}
	nonVF := []Stage{StageCgroup, StageVirtioFS, StageAddCNI, StageOther}
	for _, s := range vf {
		if !s.VFRelated() {
			t.Errorf("%s should be VF-related", s)
		}
	}
	for _, s := range nonVF {
		if s.VFRelated() {
			t.Errorf("%s should not be VF-related", s)
		}
	}
}

func TestVFRelatedTime(t *testing.T) {
	r := NewRecorder()
	r.MarkStart(0, 0)
	r.Record(0, StageVFIODev, 0, sec(1))
	r.Record(0, StageDMARAM, sec(1), sec(2))
	r.Record(0, StageCgroup, sec(2), sec(3))
	if got := r.VFRelatedTime(0); got != sec(2) {
		t.Errorf("VF-related = %v, want 2s", got)
	}
}

func TestByStage(t *testing.T) {
	r := NewRecorder()
	r.MarkStart(0, 0)
	r.MarkEnd(0, sec(3))
	r.MarkStart(1, 0)
	r.MarkEnd(1, sec(3))
	r.Record(0, StageVFIODev, 0, sec(2))
	// container 1 has no vfio span: must contribute 0, not be skipped
	by := r.ByStage()
	s := by[StageVFIODev]
	if s.N() != 2 {
		t.Fatalf("n = %d, want 2", s.N())
	}
	if s.Mean() != sec(1) {
		t.Errorf("mean = %v, want 1s", s.Mean())
	}
}

func TestBreakdownProportions(t *testing.T) {
	r := NewRecorder()
	// 10 identical containers: total 10s each, vfio 4s, dma-ram 2s.
	for i := 0; i < 10; i++ {
		r.MarkStart(i, 0)
		r.MarkEnd(i, sec(10))
		r.Record(i, StageVFIODev, 0, sec(4))
		r.Record(i, StageDMARAM, sec(4), sec(6))
	}
	rows := r.Breakdown([]Stage{StageVFIODev, StageDMARAM})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].PropAvg < 39.9 || rows[0].PropAvg > 40.1 {
		t.Errorf("vfio prop = %v, want 40%%", rows[0].PropAvg)
	}
	if rows[1].PropAvg < 19.9 || rows[1].PropAvg > 20.1 {
		t.Errorf("dma prop = %v, want 20%%", rows[1].PropAvg)
	}
	// identical containers: p99 proportions equal avg proportions
	if rows[0].PropP99 < 39.9 || rows[0].PropP99 > 40.1 {
		t.Errorf("vfio p99 prop = %v, want 40%%", rows[0].PropP99)
	}
}

func TestBreakdownTailHeavier(t *testing.T) {
	r := NewRecorder()
	// 99 fast containers with small vfio share; 1 slow container dominated
	// by vfio. The p99 proportion must exceed the average proportion.
	for i := 0; i < 99; i++ {
		r.MarkStart(i, 0)
		r.MarkEnd(i, sec(2))
		r.Record(i, StageVFIODev, 0, sec(0.5))
	}
	r.MarkStart(99, 0)
	r.MarkEnd(99, sec(20))
	r.Record(99, StageVFIODev, 0, sec(18))
	rows := r.Breakdown([]Stage{StageVFIODev})
	if rows[0].PropP99 <= rows[0].PropAvg {
		t.Errorf("p99 prop %v should exceed avg prop %v", rows[0].PropP99, rows[0].PropAvg)
	}
}

func TestBreakdownTableContainsTotalRow(t *testing.T) {
	r := NewRecorder()
	r.MarkStart(0, 0)
	r.MarkEnd(0, sec(10))
	r.Record(0, StageVFIODev, 0, sec(5))
	out := r.BreakdownTable([]Stage{StageVFIODev}).String()
	if !strings.Contains(out, "Total (1,3,4,5)") {
		t.Errorf("missing total row:\n%s", out)
	}
	if !strings.Contains(out, "4-vfio-dev") {
		t.Errorf("missing stage row:\n%s", out)
	}
}

func TestTimelineRendering(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 5; i++ {
		r.MarkStart(i, sec(float64(i)))
		r.MarkEnd(i, sec(float64(i)+2))
		r.Record(i, StageVFIODev, sec(float64(i)), sec(float64(i)+1))
	}
	out := r.Timeline(80, 10)
	if !strings.Contains(out, "ctr0") || !strings.Contains(out, "4") {
		t.Errorf("timeline output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // header + 5 rows
		t.Errorf("want 6 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	r := NewRecorder()
	if out := r.Timeline(80, 10); !strings.Contains(out, "no containers") {
		t.Errorf("empty timeline: %q", out)
	}
}

func TestTimelineSampling(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 100; i++ {
		r.MarkStart(i, 0)
		r.MarkEnd(i, sec(1))
	}
	out := r.Timeline(40, 10)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) > 12 {
		t.Errorf("sampling failed: %d lines", len(lines))
	}
}

// TestTimelineHalfOpenBoundaries is the regression test for the span
// rounding bug: with inclusive end columns (col(sp.End)), two adjacent
// stages both owned the boundary column and whichever was recorded later
// clobbered the other's closing glyph. Half-open drawing gives every column
// to exactly one span, so the rendering is independent of recording order.
func TestTimelineHalfOpenBoundaries(t *testing.T) {
	render := func(firstCgroup bool) string {
		r := NewRecorder()
		r.MarkStart(0, 0)
		r.MarkEnd(0, sec(100))
		// Boundary at 45s falls inside column 9 of 20: the columns split
		// [0,9) / [9,20) only under half-open drawing.
		if firstCgroup {
			r.Record(0, StageCgroup, 0, sec(45))
			r.Record(0, StageDMARAM, sec(45), sec(100))
		} else {
			r.Record(0, StageDMARAM, sec(45), sec(100))
			r.Record(0, StageCgroup, 0, sec(45))
		}
		return r.Timeline(20, 10)
	}
	a, b := render(true), render(false)
	if a != b {
		t.Errorf("rendering depends on span recording order:\n--- cgroup first ---\n%s--- dma-ram first ---\n%s", a, b)
	}
	row := a[strings.Index(a, "|")+1 : strings.LastIndex(a, "|")]
	want := strings.Repeat("0", 9) + strings.Repeat("1", 11)
	if row != want {
		t.Errorf("boundary column clobbered:\ngot  |%s|\nwant |%s|", row, want)
	}
}

// TestTimelineSubColumnSpanVisible pins the half-open fix's deliberate
// exception: a span narrower than one column still draws a single glyph.
func TestTimelineSubColumnSpanVisible(t *testing.T) {
	r := NewRecorder()
	r.MarkStart(0, 0)
	r.MarkEnd(0, sec(100))
	r.Record(0, StageVFIODev, sec(50), sec(50.1))
	out := r.Timeline(20, 10)
	if !strings.Contains(out, "4") {
		t.Errorf("sub-column span vanished:\n%s", out)
	}
}
