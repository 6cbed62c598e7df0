package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
)

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

// contendedRun drives two procs through one mutex: "a" holds m for 10ms
// while "b" waits, then "b" holds for 5ms.
func contendedRun(t *testing.T) *Trace {
	t.Helper()
	k := sim.NewKernel()
	tr := Attach(k)
	m := sim.NewMutex("m")
	body := func(hold time.Duration) func(*sim.Proc) {
		return func(p *sim.Proc) {
			m.Lock(p)
			p.Sleep(hold)
			m.Unlock(p)
		}
	}
	k.Go("a", body(ms(10)))
	k.Go("b", body(ms(5)))
	k.Run()
	return tr
}

func TestProfileContendedMutex(t *testing.T) {
	tr := contendedRun(t)
	a, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	profile := a.Profile()
	if len(profile) == 0 {
		t.Fatal("empty profile")
	}
	s := profile[0]
	if s.Name() != "mutex m" {
		t.Fatalf("top lock = %q, want 'mutex m'", s.Name())
	}
	if s.Acquires != 2 || s.Waits != 1 {
		t.Errorf("acquires=%d waits=%d, want 2/1", s.Acquires, s.Waits)
	}
	if s.TotalWait != ms(10) || s.MaxWait != ms(10) {
		t.Errorf("wait total=%v max=%v, want 10ms/10ms", s.TotalWait, s.MaxWait)
	}
	if s.Holds != 2 || s.TotalHold != ms(15) {
		t.Errorf("holds=%d total=%v, want 2/15ms", s.Holds, s.TotalHold)
	}
	if s.MaxQueue != 1 {
		t.Errorf("max queue = %d, want 1", s.MaxQueue)
	}
	top := s.TopBlockers(tr, 3)
	if len(top) != 1 || top[0].Name != "a" || top[0].Wait != ms(10) {
		t.Errorf("top blockers = %+v, want [{a 10ms}]: the releaser is the causal source", top)
	}
}

func TestResourceCausality(t *testing.T) {
	k := sim.NewKernel()
	tr := Attach(k)
	r := sim.NewResource("cap", 1)
	k.Go("first", func(p *sim.Proc) { r.Use(p, 1, ms(8)) })
	k.Go("second", func(p *sim.Proc) { r.Use(p, 1, ms(1)) })
	k.Run()
	a, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	var s *LockStat
	for _, c := range a.Profile() {
		if c.Name() == "resource cap" {
			s = c
		}
	}
	if s == nil {
		t.Fatal("resource cap not profiled")
	}
	if s.Waits != 1 || s.TotalWait != ms(8) {
		t.Errorf("waits=%d total=%v, want 1/8ms", s.Waits, s.TotalWait)
	}
	if top := s.TopBlockers(tr, 1); len(top) != 1 || top[0].Name != "first" {
		t.Errorf("top blockers = %+v, want the first holder", top)
	}
}

func TestHistogramDecades(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{500 * time.Nanosecond, ms(5), ms(50), 20 * time.Second} {
		h.Add(d)
	}
	want := "1|0|0|0|1|1|0|0|1"
	if h.String() != want {
		t.Errorf("histogram = %s, want %s", h, want)
	}
}

func TestDefaultBinder(t *testing.T) {
	cases := []struct {
		name string
		ctr  int
		ok   bool
	}{
		{"ctr-0", 0, true},
		{"ctr-173", 173, true},
		{"task-9", 9, true},
		{"vf-init-3", 0, false},
		{"fastiovd-scrub", 0, false},
		{"ctr-x", 0, false},
	}
	for _, c := range cases {
		ctr, ok := containerOf(c.name)
		if ctr != c.ctr || ok != c.ok {
			t.Errorf("containerOf(%q) = (%d, %v), want (%d, %v)", c.name, ctr, ok, c.ctr, c.ok)
		}
	}
}

// criticalRun models one container: 5ms of work, then a 15ms wait behind a
// holder that keeps the lock until t=20ms.
func criticalRun(t *testing.T) (*Trace, *telemetry.Recorder) {
	t.Helper()
	k := sim.NewKernel()
	tr := Attach(k)
	rec := telemetry.NewRecorder()
	m := sim.NewMutex("m")
	k.Go("holder", func(p *sim.Proc) {
		m.Lock(p)
		p.Sleep(ms(20))
		m.Unlock(p)
	})
	k.Go("ctr-0", func(p *sim.Proc) {
		rec.MarkStart(0, p.Now())
		p.Sleep(ms(5))
		m.Lock(p)
		m.Unlock(p)
		rec.MarkEnd(0, p.Now())
	})
	k.Run()
	return tr, rec
}

func TestCriticalPathDecomposition(t *testing.T) {
	tr, rec := criticalRun(t)
	a, err := Analyze(tr, rec)
	if err != nil {
		t.Fatal(err)
	}
	paths := a.CriticalPaths()
	if len(paths) != 1 {
		t.Fatalf("got %d decompositions, want 1", len(paths))
	}
	d := paths[0]
	if d.Container != 0 || d.Total != ms(20) {
		t.Fatalf("container=%d total=%v, want 0/20ms", d.Container, d.Total)
	}
	if d.Service != ms(5) {
		t.Errorf("service = %v, want 5ms", d.Service)
	}
	if d.Blocked["mutex m"] != ms(15) {
		t.Errorf("blocked on mutex m = %v, want 15ms", d.Blocked["mutex m"])
	}
	if d.Runnable != 0 {
		t.Errorf("runnable = %v, want 0 (instantaneous wakeups in the DES)", d.Runnable)
	}
	if got := d.Service + d.BlockedTotal() + d.Runnable; got != d.Total {
		t.Errorf("components sum to %v, want exactly %v", got, d.Total)
	}
	sum := Summarize(paths)
	if sum.Containers != 1 || sum.MeanTotal != ms(20) || len(sum.Targets) != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestVerifyCriticalPaths(t *testing.T) {
	tr, rec := criticalRun(t)
	if err := VerifyCriticalPaths(tr, rec); err != nil {
		t.Fatal(err)
	}
	// A completed container with no bound proc must be diagnosed.
	rec.MarkStart(7, 0)
	rec.MarkEnd(7, ms(1))
	if err := VerifyCriticalPaths(tr, rec); err == nil {
		t.Error("unbound completed container passed verification")
	}
}

// TestAnalyzeRejectsIllNested pins the analyzer's validation: each
// malformed stream is rejected with an error, never a panic.
func TestAnalyzeRejectsIllNested(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
	}{
		{"block while blocked", []Event{
			{Kind: Block, Class: sim.WaitMutex, Obj: "m", Proc: 1},
			{Kind: Block, Class: sim.WaitMutex, Obj: "n", Proc: 1},
		}},
		{"unblock without block", []Event{
			{Kind: Unblock, Class: sim.WaitMutex, Obj: "m", Proc: 1},
		}},
		{"unblock target mismatch", []Event{
			{Kind: Block, Class: sim.WaitMutex, Obj: "m", Proc: 1},
			{Kind: Unblock, Class: sim.WaitQueue, Obj: "q", Proc: 1},
		}},
		{"release without hold", []Event{
			{Kind: Release, Class: sim.WaitMutex, Obj: "m", Proc: 1},
		}},
		{"block with no class", []Event{
			{Kind: Block, Proc: 1},
		}},
		{"time backwards", []Event{
			{At: ms(5), Kind: Block, Class: sim.WaitMutex, Obj: "m", Proc: 1},
			{At: ms(1), Kind: Unblock, Class: sim.WaitMutex, Obj: "m", Proc: 1},
		}},
	}
	for _, c := range cases {
		if _, err := Analyze(FromEvents(c.events, nil)); err == nil {
			t.Errorf("%s: analyzer accepted an ill-nested stream", c.name)
		}
	}
}

func TestCanonicalAndFingerprintDeterministic(t *testing.T) {
	t1, t2 := contendedRun(t), contendedRun(t)
	b1, b2 := t1.AppendCanonical(nil), t2.AppendCanonical(nil)
	if !bytes.Equal(b1, b2) {
		t.Error("two identical seeded runs produced different canonical streams")
	}
	if t1.Fingerprint() != t2.Fingerprint() {
		t.Error("fingerprints diverge across identical runs")
	}
	if t1.Len() == 0 {
		t.Error("no events recorded")
	}
}

func TestWriteChromeValidAndDeterministic(t *testing.T) {
	render := func() []byte {
		tr, rec := criticalRun(t)
		var buf bytes.Buffer
		if err := WriteChrome(&buf, tr, rec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	b1, b2 := render(), render()
	if !bytes.Equal(b1, b2) {
		t.Error("Chrome export is not byte-deterministic across identical runs")
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b1, &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	var waits, stages int
	for _, ev := range file.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("event missing name/ph: %+v", ev)
		}
		if ev.Ph == "X" && (ev.TS < 0 || ev.Dur < 0) {
			t.Fatalf("negative ts/dur: %+v", ev)
		}
		if ev.Name == "wait mutex m" {
			waits++
		}
		if ev.Name == string(telemetry.StageCgroup) {
			stages++
		}
	}
	if waits == 0 {
		t.Error("no wait events exported")
	}
}

// TestStoredBytesPerEvent pins the encoding's density on a recorded kernel
// stream: records coded against the previous record instead of their own
// proc's last event, or a fixed 32-byte record per event, fail it.
func TestStoredBytesPerEvent(t *testing.T) {
	tr := probeHeavyRun(50, 20)
	if tr.Len() == 0 {
		t.Fatal("no events recorded")
	}
	per := float64(tr.Bytes()) / float64(tr.Len())
	t.Logf("%d events stored in %d bytes (%.2f B/event)", tr.Len(), tr.Bytes(), per)
	if per > 3 {
		t.Errorf("%d events stored in %d bytes (%.2f B/event), want at most 3",
			tr.Len(), tr.Bytes(), per)
	}
}

// TestAnalyzeBytesIndependentOfEvents pins that analysis memory is
// O(procs + locks + containers): doubling every proc's rounds doubles the
// stream but must move the bytes Analyze and VerifyCriticalPaths allocate
// by less than 10%. A per-interval index (24 bytes per unblock, 960 KB at
// 100 rounds) fails it.
func TestAnalyzeBytesIndependentOfEvents(t *testing.T) {
	const procs = 200
	analyzed := func(rounds int) uint64 {
		tr := probeHeavyRun(procs, rounds)
		rec := probeWindows(tr, procs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := Analyze(tr, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCriticalPaths(tr, rec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if a.Containers() != procs {
			t.Fatalf("%d containers checked, want %d", a.Containers(), procs)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := analyzed(50), analyzed(100)
	t.Logf("Analyze+VerifyCriticalPaths: %d B at 50 rounds, %d B at 100", short, long)
	if ratio := float64(long) / float64(short); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("Analyze+VerifyCriticalPaths allocated %d B at 50 rounds and %d B at 100 (ratio %.2f), want within 10%%",
			short, long, ratio)
	}
}

// refCanonical is the canonical encoding as originally specified, through
// fmt: the strconv encoder must reproduce it byte for byte.
func refCanonical(events []Event) []byte {
	var b []byte
	for _, e := range events {
		b = fmt.Appendf(b, "%d %s %s %q p%d w%d n%d\n",
			e.At, e.Kind, e.Class, e.Obj, e.Proc, e.Waker, e.N)
	}
	return b
}

func TestCanonicalMatchesFmtReference(t *testing.T) {
	objs := []string{"", "m", `q"uote`, `back\slash`, "naïve-設備", "ctl\x00\t\n\x7f", "bad-utf8\xff\xfe", "vfio-devset-1"}
	var events []Event
	for i, obj := range objs {
		events = append(events,
			Event{At: ms(i), Kind: Acquire, Class: sim.WaitMutex, Obj: obj, Proc: i + 1, Waker: i, N: int64(i)},
			Event{At: ms(i), Kind: Release, Class: sim.WaitResource, Obj: obj, Proc: math.MaxInt32, N: -3},
			Event{At: -ms(i), Kind: Spawn, Obj: obj})
	}
	// Extremes the delta and varint encodings must carry exactly.
	events = append(events,
		Event{At: math.MaxInt64, Kind: Wake, Class: sim.WaitEvent, Proc: math.MaxInt32, Waker: math.MaxInt32, N: math.MinInt64},
		Event{At: math.MinInt64, Kind: Exit, Proc: 1, N: math.MaxInt64},
		Event{At: math.MaxInt64, Kind: Block, Class: sim.WaitWG, N: -1})
	tr := FromEvents(events, nil)
	want := refCanonical(events)
	if got := tr.AppendCanonical(nil); !bytes.Equal(got, want) {
		t.Fatalf("canonical encoding differs from the fmt reference:\n got %q\nwant %q", got, want)
	}
	h := fnv.New64a()
	h.Write(want)
	if tr.Fingerprint() != h.Sum64() {
		t.Error("fingerprint is not the FNV-1a hash of the reference encoding")
	}

	// A recorded kernel stream too, which stores kernel ids as slots.
	live := contendedRun(t)
	var replay []Event
	for r := range live.records() {
		replay = append(replay, Event{At: time.Duration(r.at), Kind: Kind(r.kind), Class: sim.WaitClass(r.class),
			Obj: live.objs[r.obj], Proc: live.procID(r.proc), Waker: live.procID(r.waker), N: r.n})
	}
	if !bytes.Equal(live.AppendCanonical(nil), refCanonical(replay)) {
		t.Error("recorded stream's canonical encoding differs from the fmt reference")
	}
}

// TestBadProcIDsRejected pins that ids the dense tables cannot index are
// reported as errors naming the event, and that 0 and the largest int32
// are valid.
func TestBadProcIDsRejected(t *testing.T) {
	maxID := math.MaxInt32
	ok := Event{Kind: Spawn, Proc: 1}
	cases := []struct {
		name string
		ev   Event
		bad  bool
	}{
		{"proc 0", Event{Kind: Acquire, Class: sim.WaitMutex, Obj: "m", Proc: 0}, false},
		{"largest proc", Event{Kind: Acquire, Class: sim.WaitMutex, Obj: "m", Proc: maxID, Waker: maxID}, false},
		{"negative proc", Event{Kind: Spawn, Proc: -1}, true},
		{"negative waker", Event{Kind: Wake, Class: sim.WaitEvent, Proc: 1, Waker: -7}, true},
		{"proc above MaxInt32", Event{Kind: Spawn, Proc: maxID + 1}, true},
		{"waker above MaxInt32", Event{Kind: Spawn, Proc: 1, Waker: maxID + 1}, true},
		{"unknown kind", Event{Kind: Wake + 1, Proc: 1}, true},
		{"unknown class", Event{Kind: Block, Class: sim.WaitWG + 1, Proc: 1}, true},
	}
	for _, c := range cases {
		tr := FromEvents([]Event{ok, c.ev}, nil)
		_, err := Analyze(tr, telemetry.NewRecorder())
		if !c.bad {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				continue
			}
			if got := tr.ProcName(c.ev.Proc); got != fmt.Sprintf("proc-%d", c.ev.Proc) {
				t.Errorf("%s: ProcName = %q", c.name, got)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), "event 1:") {
			t.Errorf("%s: error %q does not name event 1", c.name, err)
		}
	}
	if _, err := Analyze(FromEvents(nil, map[int]string{-2: "x"})); err == nil {
		t.Error("negative name id accepted")
	}
}

func TestFromEventsSparseIDs(t *testing.T) {
	big := math.MaxInt32 - 1
	events := []Event{
		{At: 0, Kind: Acquire, Class: sim.WaitMutex, Obj: "m", Proc: big},
		{At: 0, Kind: Block, Class: sim.WaitMutex, Obj: "m", Proc: 3},
		{At: ms(4), Kind: Release, Class: sim.WaitMutex, Obj: "m", Proc: big},
		{At: ms(4), Kind: Acquire, Class: sim.WaitMutex, Obj: "m", Proc: 3, Waker: big},
		{At: ms(4), Kind: Unblock, Class: sim.WaitMutex, Obj: "m", Proc: 3},
	}
	tr := FromEvents(events, map[int]string{big: "holder", 3: "ctr-3", 99: "idle"})
	a, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	top := a.Profile()[0].TopBlockers(tr, 1)
	if len(top) != 1 || top[0].Proc != big || top[0].Name != "holder" || top[0].Wait != ms(4) {
		t.Errorf("top blockers = %+v, want holder (%d) for 4ms", top, big)
	}
	if tr.ProcName(99) != "idle" || tr.ProcName(100) != "proc-100" {
		t.Errorf("names: %q %q", tr.ProcName(99), tr.ProcName(100))
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var tids []int
	for _, ev := range file.TraceEvents {
		if ev.Name == "thread_name" {
			tids = append(tids, ev.TID)
		}
	}
	if want := []int{3, 99, big}; !slices.Equal(tids, want) {
		t.Errorf("thread tids = %v, want %v (ascending id)", tids, want)
	}
}

// TestDuplicateBindingRejected pins that two procs binding one container
// fail both the critical-path decomposition and the Chrome export, instead
// of one of them winning by map order; without a recorder no proc binds.
func TestDuplicateBindingRejected(t *testing.T) {
	events := []Event{
		{Kind: Spawn, Proc: 1},
		{Kind: Spawn, Proc: 2},
	}
	tr := FromEvents(events, map[int]string{1: "ctr-1", 2: "ctr-1"})
	if _, err := Analyze(tr); err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	rec.MarkStart(1, 0)
	rec.MarkEnd(1, ms(1))
	if err := WriteChrome(io.Discard, tr, rec); err == nil {
		t.Error("WriteChrome accepted two procs bound to container 1")
	}
	if _, err := Analyze(tr, rec); err == nil {
		t.Error("Analyze accepted two procs bound to container 1")
	}
}

// TestWaitEventNames pins the kernel trace's wait event names: "wait "
// followed by the lock name of the interval's class and object, with no
// trailing space for an unnamed object.
func TestWaitEventNames(t *testing.T) {
	for class := range sim.WaitClass(numClasses) {
		for _, obj := range []string{"", "vfio-devset-1", `q"<&>`} {
			var buf bytes.Buffer
			c := telemetry.NewChromeWriter(&buf)
			wait(c, interval{start: ms(1), end: ms(3), class: class}, obj, 7)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			var file struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Cat  string  `json:"cat"`
					TS   float64 `json:"ts"`
					Dur  float64 `json:"dur"`
					PID  int     `json:"pid"`
					TID  int     `json:"tid"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
				t.Fatalf("%s %q: %v\n%s", class, obj, err, buf.Bytes())
			}
			ev := file.TraceEvents[0]
			if want := "wait " + lockName(class, obj); ev.Name != want {
				t.Errorf("event name %q, want %q", ev.Name, want)
			}
			if ev.Cat != "wait" || ev.TS != 1000 || ev.Dur != 2000 || ev.PID != chromePID || ev.TID != 7 {
				t.Errorf("%s %q: event %+v", class, obj, ev)
			}
		}
	}
}

// TestReleaseMatchesHoldOfSameKey pins hold matching: a release closes the
// releasing proc's most recent open hold of the same (class, object), even
// when holds of other objects were taken after it.
func TestReleaseMatchesHoldOfSameKey(t *testing.T) {
	a, err := Analyze(FromEvents([]Event{
		{At: 0, Kind: Acquire, Class: sim.WaitMutex, Obj: "a", Proc: 1},
		{At: ms(1), Kind: Acquire, Class: sim.WaitMutex, Obj: "b", Proc: 1},
		{At: ms(2), Kind: Acquire, Class: sim.WaitResource, Obj: "r", Proc: 1, N: 1},
		{At: ms(3), Kind: Acquire, Class: sim.WaitResource, Obj: "r", Proc: 1, N: 1},
		{At: ms(4), Kind: Release, Class: sim.WaitMutex, Obj: "a", Proc: 1},
		{At: ms(6), Kind: Release, Class: sim.WaitResource, Obj: "r", Proc: 1, N: 1},
		{At: ms(7), Kind: Release, Class: sim.WaitMutex, Obj: "b", Proc: 1},
		{At: ms(8), Kind: Release, Class: sim.WaitResource, Obj: "r", Proc: 1, N: 1},
	}, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]time.Duration{ // total, max hold
		"mutex a":    {ms(4), ms(4)},
		"mutex b":    {ms(6), ms(6)},
		"resource r": {ms(3) + ms(6), ms(6)},
	}
	for _, s := range a.Profile() {
		if w := want[s.Name()]; s.TotalHold != w[0] || s.MaxHold != w[1] {
			t.Errorf("%s: total hold %v, max %v; want %v, %v", s.Name(), s.TotalHold, s.MaxHold, w[0], w[1])
		}
	}
}

// TestWaitAttributedOnlyToMatchingTarget pins blocker attribution: an
// acquire or wake ends a wait only when it names the parked proc's own
// (class, object).
func TestWaitAttributedOnlyToMatchingTarget(t *testing.T) {
	tr := FromEvents([]Event{
		{At: 0, Kind: Block, Class: sim.WaitMutex, Obj: "m", Proc: 1},
		{At: ms(2), Kind: Acquire, Class: sim.WaitMutex, Obj: "m", Proc: 1, Waker: 2},
		{At: ms(2), Kind: Wake, Class: sim.WaitEvent, Obj: "m", Proc: 1, Waker: 5},
		{At: ms(2), Kind: Wake, Class: sim.WaitMutex, Obj: "n", Proc: 1, Waker: 6},
		{At: ms(2), Kind: Unblock, Class: sim.WaitMutex, Obj: "m", Proc: 1},
	}, nil)
	a, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	top := a.Profile()[0].TopBlockers(tr, 3)
	if len(top) != 1 || top[0].Proc != 2 || top[0].Wait != ms(2) {
		t.Errorf("top blockers = %+v, want only proc 2 for 2ms", top)
	}
}

// TestDecimalProcNamesStayUnformatted: the trace keeps a DecimalName
// proc's prefix and index, binds "ctr-" procs from them, and formats the
// name only when it is read.
func TestDecimalProcNamesStayUnformatted(t *testing.T) {
	k := sim.NewKernel()
	tr := Attach(k)
	ctr := k.GoAtName(0, sim.DecimalName("ctr-", 7), func(p *sim.Proc) { p.Sleep(1) })
	stop := k.GoAtName(0, sim.DecimalName("stop-", 7), func(p *sim.Proc) { p.Sleep(1) })
	plain := k.Go("ctr-9", func(p *sim.Proc) { p.Sleep(1) })
	k.Run()
	for _, p := range []*sim.Proc{ctr, stop} {
		if e := tr.procs[p.ID()]; !e.named || !e.decimal || e.name != strings.TrimSuffix(p.Name(), "7") {
			t.Errorf("proc %d: entry %+v, want the unformatted decimal name", p.ID(), e)
		}
	}
	procOf, err := tr.bindProcs()
	if err != nil || len(procOf) != 2 || tr.procID(procOf[7]) != ctr.ID() || tr.procID(procOf[9]) != plain.ID() {
		t.Fatalf("bindProcs = %v, %v; want container 7 on proc %d and 9 on proc %d",
			procOf, err, ctr.ID(), plain.ID())
	}
	for _, p := range []*sim.Proc{ctr, stop, plain} {
		if got := tr.ProcName(p.ID()); got != p.Name() {
			t.Errorf("ProcName(%d) = %q, want %q", p.ID(), got, p.Name())
		}
	}
}
