package audit

import (
	"fmt"
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

// TestResidualReadsFailEveryCapture: a residual-data read is not a level
// that returns to baseline. Diff reports it whenever either snapshot saw
// one, even when both saw the same count, and neither Sum nor Sub can
// cancel it, so the fleet's ledger-adjusted audit keeps a read made by a
// crashed generation.
func TestResidualReadsFailEveryCapture(t *testing.T) {
	clean := Snapshot{FreeVFs: 8, FreePages: 64}
	read := clean
	read.ResidualReads = 2
	for _, c := range []struct {
		name          string
		before, after Snapshot
	}{
		{"after", clean, read},
		{"before", read, clean},
		{"both", read, read},
	} {
		leaks := Diff(c.before, c.after)
		if len(leaks) != 1 || leaks[0].Resource != "residual-reads" {
			t.Errorf("%s: Diff = %v, want one residual-reads leak", c.name, leaks)
		}
	}
	if got := Sub(read, read).ResidualReads; got != 4 {
		t.Errorf("Sub kept %d residual reads, want 4", got)
	}
	// A crashed generation read residual data before the crash; the
	// surviving side is clean.
	var l Ledger
	l.Add(LedgerEntry{Base: clean, AtCrash: read})
	base := Sum(clean, l.BaseTotal())
	fin := Sum(clean, l.AtCrashTotal(), l.LostTotal())
	if NewReport(base, fin).Clean() {
		t.Error("the ledger-adjusted audit cancelled a crashed generation's residual read")
	}
}

// TestAppendFingerprintKeepsCleanBytes: a snapshot with no residual read
// renders exactly as fmt's %+v rendered Snapshot before that counter was
// added, so fingerprints of clean runs keep their bytes.
func TestAppendFingerprintKeepsCleanBytes(t *testing.T) {
	s := Snapshot{FreeVFs: 8, FreePages: 2960, PinnedPages: -2448, IOMMUDomains: -8,
		IOMMUMappedPages: -2448, DevsetOpens: -4, KVMLiveVMs: -8, KVMDemandPages: 3,
		VhostRegistrations: -5, LazyTracked: 7}
	want := strings.Replace(fmt.Sprintf("%+v", s), " ResidualReads:0", "", 1)
	if got := string(s.AppendFingerprint(nil)); got != want {
		t.Errorf("AppendFingerprint = %q, want %q", got, want)
	}
	s.ResidualReads = 3
	if got, want := string(s.AppendFingerprint(nil)), fmt.Sprintf("%+v", s); got != want {
		t.Errorf("AppendFingerprint = %q, want %q", got, want)
	}
}
