package telemetry

import (
	"slices"
	"testing"
	"time"
)

// fuzzStages are the stages FuzzSpanStore records: every named stage plus
// one the timeline has no glyph for.
var fuzzStages = []Stage{StageCgroup, StageDMARAM, StageVirtioFS, StageDMAImage, StageVFIODev,
	StageVFDriver, StageAddCNI, StageRetry, StageRollback, StageOther, "x-unnamed"}

// fuzzContainers is the number of container ids one recorder generation
// draws from.
const fuzzContainers = 8

// FuzzSpanStore drives random startup sequences through the span store and
// through refRecorder, the flat-span recorder it replaced, and requires
// every query to agree. Each 3-byte op is (kind, arg, clock advance):
// MarkStart of a fresh container, Record of any stage (retry and rollback
// included) for a started one, MarkEnd of an open one, or a churn-style
// swap to a fresh recorder pair with the next wave's container ids.
// Containers that never end stand for failed startups. The rollback tally
// the metrics sampler reads is compared after every op.
func FuzzSpanStore(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 2, 0, 3, 2, 9, 4, 6, 0, 5, 6, 1, 1})
	f.Add([]byte{0, 0, 0, 2, 64, 3, 5, 0, 2, 6, 0, 9, 7, 0, 0, 0, 0, 1, 5, 0, 4})
	f.Add([]byte{0, 3, 0, 0, 4, 2, 2, 3, 200, 2, 4, 1, 6, 4, 7, 5, 3, 0, 0, 5, 1, 6, 5, 9})
	f.Fuzz(runSpanStoreOps)
}

// runSpanStoreOps runs one FuzzSpanStore op sequence.
func runSpanStoreOps(t *testing.T, ops []byte) {
	var (
		rec     = NewRecorder()
		ref     = newRefRecorder()
		base    int
		now     time.Duration
		started [fuzzContainers]bool
		ended   [fuzzContainers]bool
	)
	for i := 0; i+2 < len(ops); i += 3 {
		kind, arg := ops[i], int(ops[i+1])
		now += time.Duration(ops[i+2]) * time.Millisecond
		c := arg % fuzzContainers
		id := base + c
		record := func(st Stage) {
			start := max(now-time.Duration(arg%16)*time.Millisecond, 0)
			rec.Record(id, st, start, now)
			ref.Record(id, st, start, now)
		}
		switch kind % 8 {
		case 0, 1:
			if !started[c] {
				started[c] = true
				rec.MarkStart(id, now)
				ref.MarkStart(id, now)
			}
		case 2, 3, 4:
			if started[c] {
				record(fuzzStages[arg/fuzzContainers%len(fuzzStages)])
			}
		case 5:
			if started[c] {
				record(StageRetry)
				record(StageRollback)
			}
		case 6:
			if started[c] && !ended[c] {
				ended[c] = true
				rec.MarkEnd(id, now)
				ref.MarkEnd(id, now)
			}
		case 7:
			compareStores(t, rec, ref)
			rec, ref = NewRecorder(), newRefRecorder()
			started, ended = [fuzzContainers]bool{}, [fuzzContainers]bool{}
			base += fuzzContainers
		}
		compareStageTotal(t, rec, ref, StageRollback)
	}
	compareStores(t, rec, ref)
}

// compareStageTotal requires the store's running count and summed
// duration of stage to match a rescan of the reference's spans: the
// rollback counter the metrics sampler reads and churn's per-wave rollback
// time come from it.
func compareStageTotal(t *testing.T, rec *Recorder, ref *refRecorder, st Stage) {
	t.Helper()
	var n int
	var sum time.Duration
	for _, sp := range ref.Spans() {
		if sp.Stage == st {
			n++
			sum += sp.Dur()
		}
	}
	if gotN, gotSum := rec.StageTotal(st); gotN != n || gotSum != sum {
		t.Fatalf("StageTotal(%s) = %d, %v; reference %d, %v", st, gotN, gotSum, n, sum)
	}
}

// compareStores requires rec and ref to answer every query identically.
func compareStores(t *testing.T, rec *Recorder, ref *refRecorder) {
	t.Helper()
	if got, want := rec.Totals().Values(), ref.Totals().Values(); !slices.Equal(got, want) {
		t.Fatalf("Totals %v, reference %v", got, want)
	}
	gotBy, wantBy := rec.ByStage(), ref.ByStage()
	if len(gotBy) != len(wantBy) {
		t.Fatalf("ByStage has %d stages, reference %d", len(gotBy), len(wantBy))
	}
	for st, w := range wantBy {
		if g := gotBy[st]; g == nil || !slices.Equal(g.Values(), w.Values()) {
			t.Fatalf("ByStage[%s] differs from reference %v", st, w.Values())
		}
	}
	if got, want := rec.Breakdown(fuzzStages), ref.Breakdown(fuzzStages); !slices.Equal(got, want) {
		t.Fatalf("Breakdown %+v, reference %+v", got, want)
	}
	ids := ref.Containers()
	if got := rec.Traces(); !slices.Equal(got, ids) {
		t.Fatalf("containers %v, reference %v", got, ids)
	}
	// The VF-related sample a startup wave reports: completed containers
	// in id order, as the wave built it from VFRelatedTime.
	var wantVF []time.Duration
	for _, id := range ids {
		if ref.Total(id) != 0 {
			wantVF = append(wantVF, ref.VFRelatedTime(id))
		}
	}
	if got := rec.VFRelated().Values(); !slices.Equal(got, wantVF) {
		t.Fatalf("VFRelated %v, reference %v", got, wantVF)
	}
	for _, id := range ids {
		if got, want := rec.VFRelatedTime(id), ref.VFRelatedTime(id); got != want {
			t.Fatalf("ctr %d: VFRelatedTime %v, reference %v", id, got, want)
		}
		for _, st := range fuzzStages {
			if got, want := rec.StageTime(id, st), ref.StageTime(id, st); got != want {
				t.Fatalf("ctr %d: StageTime(%s) %v, reference %v", id, st, got, want)
			}
		}
		// The window CriticalPaths decomposes: a completed container's
		// root span is its [start, end] mark pair.
		total := rec.Total(id)
		if want := ref.Total(id); total != want {
			t.Fatalf("ctr %d: Total %v, reference %v", id, total, want)
		}
		if total != 0 {
			root, _ := rec.RootOf(id)
			win := rec.Span(root)
			start, _ := ref.Start(id)
			end, _ := ref.End(id)
			if win.Start != start || win.End != end {
				t.Fatalf("ctr %d: window [%v, %v], reference [%v, %v]", id, win.Start, win.End, start, end)
			}
		}
		// The stage spans a serving attempt copies, span for span.
		dst := NewRecorder()
		attempt := dst.Begin(0, -1, "attempt", 0)
		dst.CopyStages(rec, id, 0, attempt)
		var want []refSpan
		for _, sp := range ref.Spans() {
			if sp.Container == id {
				want = append(want, sp)
			}
		}
		kids := dst.Children(attempt)
		if len(kids) != len(want) {
			t.Fatalf("ctr %d: copied %d stage spans, reference %d", id, len(kids), len(want))
		}
		for k, c := range kids {
			sp := dst.Span(c)
			if w := want[k]; sp.Name != string(w.Stage) || sp.Start != w.Start || sp.End != w.End {
				t.Fatalf("ctr %d: copied span %d is %+v, reference %+v", id, k, sp, w)
			}
		}
	}
	for _, width := range []int{20, 57, 100} {
		for _, rows := range []int{3, 25} {
			if got, want := rec.Timeline(width, rows), ref.Timeline(width, rows); got != want {
				t.Fatalf("Timeline(%d, %d):\n%s\nreference:\n%s", width, rows, got, want)
			}
		}
	}
	for _, st := range fuzzStages {
		compareStageTotal(t, rec, ref, st)
	}
}
