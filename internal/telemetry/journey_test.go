package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	root := r.Begin(7, -1, "request", ms(10), A("tenant", "api"))
	child := r.Begin(7, root, "queue-wait", ms(10))
	r.End(child, ms(30))
	r.Event(7, root, "admission", ms(10), A("verdict", "admit"))
	r.Annotate(root, Dur("sojourn", ms(40)))
	r.End(root, ms(50), A("outcome", "completed"))

	if r.Len() != 3 || r.Roots() != 1 {
		t.Fatalf("len=%d roots=%d, want 3/1", r.Len(), r.Roots())
	}
	if got := r.Traces(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Traces() = %v, want [7]", got)
	}
	id, ok := r.RootOf(7)
	if !ok || id != root {
		t.Fatalf("RootOf(7) = %d,%v", id, ok)
	}
	sp := r.Span(root)
	if sp.Attr("outcome") != "completed" || sp.Attr("sojourn") != "40ms" || sp.Attr("tenant") != "api" {
		t.Fatalf("root attrs = %v", sp.Attrs)
	}
	if sp.Attr("missing") != "" {
		t.Fatal("absent attr must return empty")
	}
	kids := r.Children(root)
	if len(kids) != 2 {
		t.Fatalf("root has %d children, want 2", len(kids))
	}
	if d := r.Span(child).Dur(); d != ms(20) {
		t.Fatalf("child dur = %s", d)
	}
	if ev := r.Span(kids[1]); ev.Dur() != 0 || ev.Name != "admission" {
		t.Fatalf("event span = %+v", ev)
	}
}

func TestRecorderSecondRootPanics(t *testing.T) {
	r := NewRecorder()
	r.Begin(1, -1, "request", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("second root for the same trace must panic")
		}
	}()
	r.Begin(1, -1, "request", ms(1))
}

func TestRecorderEndMisusePanics(t *testing.T) {
	r := NewRecorder()
	id := r.Begin(1, -1, "request", ms(5))
	r.End(id, ms(6))
	for name, fn := range map[string]func(){
		"double-end":       func() { r.End(id, ms(7)) },
		"end-before-start": func() { n := r.Begin(2, -1, "x", ms(9)); r.End(n, ms(8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSealClosesOpenSpans(t *testing.T) {
	r := NewRecorder()
	root := r.Begin(1, -1, "request", 0)
	pod := r.Begin(1, root, "pod", ms(10))
	done := r.Begin(1, root, "queue-wait", 0)
	r.End(done, ms(5))
	r.Seal(ms(100))
	for _, id := range []int{root, pod} {
		sp := r.Span(id)
		if sp.End != ms(100) || sp.Attr("unfinished") != "true" {
			t.Errorf("span %d not sealed: end=%s attrs=%v", id, sp.End, sp.Attrs)
		}
	}
	if sp := r.Span(done); sp.Attr("unfinished") != "" || sp.End != ms(5) {
		t.Errorf("seal touched a closed span: %+v", sp)
	}
	r.Seal(ms(200)) // idempotent
	if r.Span(root).End != ms(100) {
		t.Error("second Seal moved span ends")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Begin after Seal must panic")
		}
	}()
	r.Begin(2, -1, "late", ms(150))
}

func TestCanonicalOrderingAndFingerprint(t *testing.T) {
	build := func(order []int) *Recorder {
		r := NewRecorder()
		// Two traces begun in the given order; canonical form must not care.
		for _, tr := range order {
			id := r.Begin(tr, -1, "request", ms(tr))
			r.End(id, ms(tr+10), Int("trace", tr))
		}
		return r
	}
	a, b := build([]int{2, 1}), build([]int{1, 2})
	ca := a.AppendCanonical(nil)
	// The canonical log is sorted by (trace, start, id) regardless of
	// Begin order: beginning trace 2 first still lists trace 1 first.
	lines := strings.Split(strings.TrimSpace(string(ca)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"trace":1`) || !strings.Contains(lines[1], `"trace":2`) {
		t.Fatalf("canonical order wrong:\n%s", ca)
	}
	// Fingerprint is over the canonical bytes: identical recorders agree,
	// and Begin order is visible (span IDs are Begin-order by design).
	if build([]int{1, 2}).Fingerprint() != b.Fingerprint() {
		t.Fatal("identical recorders disagree on fingerprint")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different Begin orders must fingerprint differently")
	}
	var buf bytes.Buffer
	if err := b.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), b.AppendCanonical(nil)) {
		t.Fatal("WriteLog differs from AppendCanonical")
	}
}

func TestChromeEvents(t *testing.T) {
	r := NewRecorder()
	root := r.Begin(3, -1, "request", ms(1))
	r.End(root, ms(9), A("outcome", "completed"))
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	// One process_name metadata, one thread_name per trace, one X per span.
	var meta, x int
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name == "process_name" && ev.Args["name"] != "request journeys" {
				t.Errorf("process name %q", ev.Args["name"])
			}
			if ev.Name == "thread_name" && (ev.TID != 3 || ev.Args["name"] != "req-3") {
				t.Errorf("thread tid=%d name %q, want 3 req-3", ev.TID, ev.Args["name"])
			}
		case "X":
			x++
			if ev.PID != journeyPID || ev.TID != 3 {
				t.Errorf("span event on pid=%d tid=%d, want pid=%d tid=3", ev.PID, ev.TID, journeyPID)
			}
			if ev.TS != 1000 || ev.Dur != 8000 || ev.Args["outcome"] != "completed" {
				t.Errorf("span event ts=%g dur=%g args=%v", ev.TS, ev.Dur, ev.Args)
			}
		}
	}
	if meta != 2 || x != 1 {
		t.Fatalf("meta=%d x=%d, want 2/1", meta, x)
	}
}

// TestExportAllocsIndependentOfSpans pins that both journey exports stream
// through a bounded buffer with no per-span allocation: exporting 10k
// spans allocates no more than exporting 1k.
func TestExportAllocsIndependentOfSpans(t *testing.T) {
	allocs := func(spans int) float64 {
		r := NewRecorder()
		for tr := range spans / 4 {
			at := ms(tr)
			root := r.Begin(tr, -1, "request", at, A("tenant", "api"))
			r.Event(tr, root, "admit", at, A("verdict", "admitted"), Int("queue", tr%5))
			pod := r.Begin(tr, root, "pod", at, Int("host", tr%4), A("verdict", "placed"))
			r.End(pod, at+ms(3), Dur("sojourn", time.Duration(tr)*time.Microsecond))
			r.Event(tr, root, "teardown <&>", at+ms(4))
			r.End(root, at+ms(5), A("outcome", "completed"))
		}
		if r.Len() != spans {
			t.Fatalf("recorded %d spans, want %d", r.Len(), spans)
		}
		// Twenty runs average a stray runtime allocation (a GC cycle's)
		// away; one allocation per span would add thousands.
		return testing.AllocsPerRun(20, func() {
			if err := r.WriteChrome(io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := r.WriteLog(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(10000)
	if large > small {
		t.Errorf("exports allocate %v times for 1k spans but %v for 10k", small, large)
	}
	t.Logf("allocs per export pair: %v at 1k spans, %v at 10k", small, large)
}
