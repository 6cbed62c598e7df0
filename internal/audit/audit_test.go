package audit

import (
	"strings"
	"testing"
)

func TestCaptureNilSystemIsZero(t *testing.T) {
	if got := Capture(System{}); got != (Snapshot{}) {
		t.Errorf("Capture(System{}) = %+v, want zero snapshot", got)
	}
}

func TestDiffReportsEveryChangedCounter(t *testing.T) {
	before := Snapshot{FreeVFs: 256, FreePages: 1000, VFIORegistered: 256}
	after := before
	after.FreeVFs = 255     // one VF leaked
	after.FreePages = 900   // pages leaked
	after.PinnedPages = 100 // still pinned
	after.DevsetOpens = 1   // fd left open
	leaks := Diff(before, after)
	if len(leaks) != 4 {
		t.Fatalf("Diff = %d leaks %v, want 4", len(leaks), leaks)
	}
	wantOrder := []string{"free-vfs", "free-pages", "pinned-pages", "devset-opens"}
	for i, l := range leaks {
		if l.Resource != wantOrder[i] {
			t.Errorf("leak[%d] = %s, want %s (declaration order)", i, l.Resource, wantOrder[i])
		}
	}
	if d := leaks[0].Delta(); d != -1 {
		t.Errorf("free-vfs delta = %d, want -1", d)
	}
}

func TestReportClean(t *testing.T) {
	snap := Snapshot{FreeVFs: 8, FreePages: 64}
	r := NewReport(snap, snap)
	if !r.Clean() || r.Count() != 0 || r.String() != "clean" {
		t.Errorf("identical snapshots: Clean=%v Count=%d String=%q", r.Clean(), r.Count(), r.String())
	}
	var nilR *Report
	if nilR.Clean() {
		t.Error("nil report must not be Clean (unaudited)")
	}
	if nilR.String() != "unaudited" {
		t.Errorf("nil report String = %q", nilR.String())
	}
}

func TestReportDirtyString(t *testing.T) {
	before := Snapshot{FreeVFs: 8}
	after := Snapshot{FreeVFs: 7, DevsetOpens: 2}
	r := NewReport(before, after)
	if r.Clean() || r.Count() != 2 {
		t.Fatalf("Clean=%v Count=%d, want dirty with 2 leaks", r.Clean(), r.Count())
	}
	s := r.String()
	for _, want := range []string{"free-vfs: 8 -> 7 (-1)", "devset-opens: 0 -> 2 (+2)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
