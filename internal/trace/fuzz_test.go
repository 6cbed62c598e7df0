package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"fastiov/internal/sim"
	"fastiov/internal/telemetry"
)

// fuzzKinds and fuzzClasses enumerate the whole probe vocabulary so a fuzz
// byte can select any of them.
var fuzzKinds = []Kind{Spawn, Exit, Block, Unblock, Acquire, Release, Wake}

var fuzzClasses = []sim.WaitClass{
	sim.WaitNone, sim.WaitSleep, sim.WaitMutex, sim.WaitRWRead,
	sim.WaitRWWrite, sim.WaitResource, sim.WaitQueue, sim.WaitEvent,
	sim.WaitWG,
}

// fuzzObjs includes names the canonical encoder must quote exactly as fmt's
// %q does: quotes, backslashes, non-ASCII, control bytes, invalid UTF-8.
var fuzzObjs = []string{"", "a", "b", "vfio-devset-1", `q"uote`, `back\slash`, "naïve-設備", "ctl\x00\t\x7f\xff"}

// fuzzN maps a 4-bit selector onto an event's N: small counts, and then
// the values a varint encoding must carry across many bytes or sign flips.
var fuzzN = [16]int64{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
	1 << 40, -1, -(1 << 35) - 7, math.MaxInt64, math.MinInt64,
}

// decodeEvents turns arbitrary fuzz bytes into an event stream, five bytes
// per event. Time advances by the low bits of the fifth byte but can also
// stall or (when the high bit is set) jump backwards, so the analyzer's
// monotonicity check gets exercised too. A step of 63µs is an edge
// instead: time jumps to near math.MaxInt64 (forward) or math.MinInt64
// (backward), offset by the fourth byte, so consecutive edges wrap the
// stored time delta across the whole int64 range.
//
// Proc ids are 1..8 unless the third byte's top bits select an edge case:
// 0xe0.. proc 0, 0xe8.. negative, 0xf0.. the largest int32 ids (valid),
// 0xf8.. ids above math.MaxInt32 (rejected). Bit 0x40 of the fifth byte
// replaces the waker with -1, math.MaxInt32 or math.MaxInt32+1. N is
// fuzzN[fourth byte >> 4]: negative, multi-byte and extreme values too.
func decodeEvents(data []byte) []Event {
	var events []Event
	var at time.Duration
	for len(data) >= 5 {
		b, rest := data[:5], data[5:]
		data = rest
		back := b[4]&0x80 != 0
		switch step := b[4] & 0x3f; {
		case step == 0x3f && back:
			at = math.MinInt64 + time.Duration(b[3])
		case step == 0x3f:
			at = math.MaxInt64 - time.Duration(b[3])
		case back:
			at -= time.Duration(step) * time.Microsecond
		default:
			at += time.Duration(step) * time.Microsecond
		}
		e := Event{
			At:    at,
			Kind:  fuzzKinds[int(b[0])%len(fuzzKinds)],
			Class: fuzzClasses[int(b[1])%len(fuzzClasses)],
			Obj:   fuzzObjs[int(b[1]>>4)%len(fuzzObjs)],
			Proc:  int(b[2]%8) + 1,
			Waker: int(b[3] % 9), // 0 = none
			N:     fuzzN[b[3]>>4],
		}
		switch low := int64(b[2] % 8); b[2] >> 3 {
		case 28:
			e.Proc = 0
		case 29:
			e.Proc = int(-1 - low)
		case 30:
			e.Proc = int(math.MaxInt32 - low)
		case 31:
			e.Proc = int(math.MaxInt32 + 1 + low)
		}
		if b[4]&0x40 != 0 {
			e.Waker = int([]int64{-1, math.MaxInt32, math.MaxInt32 + 1}[b[3]%3])
		}
		events = append(events, e)
	}
	return events
}

// decodeWindows turns fuzz bytes into proc names and startup recorders.
// The first two bytes name procs 1..8, two bits each (proc p at bits
// 2(p-1)): 0 unnamed, 1 "ctr-<p>", 2 "task-<(p-1)%4+1>" (so procs p and
// p+4 can both bind one container), 3 "vf-init-<p>" (named, binds
// nothing). Each further three bytes record one startup window:
//
//	byte 0  container (low six bits mod 9; 0 binds no proc), bit 6 leaves
//	        the window open, bit 7 records it in a second recorder
//	byte 1  start: 1µs steps, 0xe0.. before the stream (negative), 0xf0..
//	        near math.MaxInt64, past any stream
//	byte 2  length: 1µs steps (0 is an empty window), 0xf0.. huge,
//	        clamped to math.MaxInt64 at the end
//
// A container recorded twice in one recorder keeps its last window. An
// inverted window cannot be recorded (Recorder.End panics), so empty is
// the nearest the recorder admits. With fewer than two bytes there are no
// names and no recorders.
func decodeWindows(b []byte) (map[int]string, []*telemetry.Recorder) {
	if len(b) < 2 {
		return nil, nil
	}
	names := map[int]string{}
	sel := uint16(b[0]) | uint16(b[1])<<8
	for p := 1; p <= 8; p++ {
		switch sel >> (2 * (p - 1)) & 3 {
		case 1:
			names[p] = "ctr-" + strconv.Itoa(p)
		case 2:
			names[p] = "task-" + strconv.Itoa((p-1)%4+1)
		case 3:
			names[p] = "vf-init-" + strconv.Itoa(p)
		}
	}
	recs := []*telemetry.Recorder{telemetry.NewRecorder()}
	for b = b[2:]; len(b) >= 3; b = b[3:] {
		ctr := int(b[0]&0x3f) % 9
		var start time.Duration
		switch {
		case b[1] >= 0xf0:
			start = math.MaxInt64 - time.Duration(b[1]&0x0f+1)*time.Millisecond
		case b[1] >= 0xe0:
			start = -time.Duration(b[1]&0x0f+1) * time.Millisecond
		default:
			start = time.Duration(b[1]) * time.Microsecond
		}
		length := time.Duration(b[2]) * time.Microsecond
		if b[2] >= 0xf0 {
			length = 1 << 62
		}
		end := start + length
		if end < start {
			end = math.MaxInt64
		}
		if b[0]&0x80 != 0 && len(recs) == 1 {
			recs = append(recs, telemetry.NewRecorder())
		}
		rec := recs[0]
		if b[0]&0x80 != 0 {
			rec = recs[1]
		}
		rec.MarkStart(ctr, start)
		if b[0]&0x40 == 0 {
			rec.MarkEnd(ctr, end)
		}
	}
	return names, recs
}

// checkAgainstReference requires Analyze and VerifyCriticalPaths to agree
// with the interval-store reference on recs: the same error, or the same
// decompositions in the same order.
func checkAgainstReference(t *testing.T, tr *Trace, recs []*telemetry.Recorder) {
	t.Helper()
	want, wantErr := refDecompose(tr, recs)
	a, err := Analyze(tr, recs...)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Analyze error %v, reference %v", err, wantErr)
	}
	if err := VerifyCriticalPaths(tr, recs...); fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("VerifyCriticalPaths error %v, reference %v", err, wantErr)
	}
	if wantErr != nil {
		return
	}
	got := a.CriticalPaths()
	if a.Containers() != len(want) || len(got) != len(want) {
		t.Fatalf("%d containers (%d decompositions), reference %d", a.Containers(), len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("decomposition %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// FuzzTraceReplay replays arbitrary interleavings of spawn/exit/block/
// unblock/acquire/release/wake events through the analyzer, with procs
// named and startup windows recorded from a second input (decodeWindows).
// The analyzer must never panic: well-nested streams analyze cleanly and
// flow through every downstream consumer, ill-nested ones are rejected
// with an error, and every critical-path decomposition and error matches
// the interval-store reference (critical_ref_test.go).
func FuzzTraceReplay(f *testing.F) {
	// A well-formed contended mutex exchange: p1 acquires, p2 blocks, p1
	// releases and hands off, p2 unblocks+acquires, p2 releases.
	mutex := []byte{
		4, 2, 1, 0, 1, // acquire mutex p1
		2, 2, 2, 0, 1, // block mutex p2
		5, 2, 1, 0, 2, // release mutex p1
		4, 2, 2, 1, 0, // acquire mutex p2 (woken by p1)
		3, 2, 2, 1, 0, // unblock mutex p2
		5, 2, 2, 0, 1, // release mutex p2
	}
	f.Add(mutex, []byte(nil))
	// The same exchange with p1 "ctr-2" and p2 "ctr-3" (procs 2 and 3):
	// container 3's window clips its wait, container 2's lies past the
	// stream, and a second recorder holds a huge window of container 3.
	f.Add(mutex, []byte{0x14, 0, 3, 3, 0x20, 2, 0xf0, 2, 0x83, 0, 0xf5})
	// Ill-nested: release without a hold.
	f.Add([]byte{5, 2, 1, 0, 0}, []byte(nil))
	// Ill-nested: double block.
	f.Add([]byte{2, 2, 1, 0, 1, 2, 6, 1, 0, 1}, []byte(nil))
	// Time jumping backwards.
	f.Add([]byte{2, 2, 1, 0, 10, 3, 2, 1, 0, 0x85}, []byte(nil))
	// Sleep intervals (service time) mixed with spawn/exit.
	f.Add([]byte{0, 0, 1, 0, 0, 2, 1, 1, 0, 5, 3, 1, 1, 0, 0, 1, 0, 1, 0, 2}, []byte(nil))
	// Proc 2, "ctr-2", sleeps over [1µs, 11µs]. Container 2 has a window
	// inside the sleep, one before the stream in a second recorder, then
	// an open one, then an empty one.
	sleep := []byte{0, 0, 1, 0, 0, 2, 1, 1, 0, 1, 3, 1, 1, 0, 10, 1, 0, 1, 0, 1}
	f.Add(sleep, []byte{0x04, 0, 2, 5, 3, 0x82, 0xe3, 0x90})
	f.Add(sleep, []byte{0x04, 0, 0x42, 0, 3})
	f.Add(sleep, []byte{0x04, 0, 2, 4, 0})
	// p1 "ctr-1" and p5 "task-1" both bind container 1; container 0 is
	// bound by no proc.
	f.Add(sleep, []byte{0x01, 0x02, 1, 0, 3})
	f.Add(sleep, []byte{0x04, 0, 0, 0, 3})
	// Proc 0 and the largest valid ids contending for a quoted object.
	f.Add([]byte{
		4, 0x41, 0xe0, 0, 1, // acquire mutex `q"uote` p0
		2, 0x41, 0xf0, 0, 1, // block p(MaxInt32)
		5, 0x41, 0xe0, 0, 2, // release p0
		4, 0x41, 0xf0, 1, 0x40, // acquire p(MaxInt32), waker MaxInt32
		3, 0x41, 0xf0, 1, 0, // unblock
	}, []byte(nil))
	// A negative proc, a proc above MaxInt32, and an out-of-range waker.
	f.Add([]byte{0, 0, 0xe8, 0, 0}, []byte(nil))
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0xf8, 0, 0}, []byte(nil))
	f.Add([]byte{6, 0x77, 1, 2, 0x40}, []byte(nil))
	// Time near math.MaxInt64, then a jump to near math.MinInt64 and a
	// small step back up: the stored deltas wrap both ways.
	f.Add([]byte{0, 0, 1, 3, 0x3f, 1, 0, 2, 5, 0xbf, 6, 0x22, 1, 0, 0x01}, []byte(nil))
	// Negative, multi-byte and extreme N on acquire/release, and on kinds
	// that never carry one, with the largest waker.
	f.Add([]byte{
		4, 0x05, 1, 0xc0, 0x02, // acquire resource p1, N -1
		5, 0x05, 1, 0xd0, 0x03, // release resource p1, N -(1<<35)-7
		0, 0x00, 2, 0xe1, 0x70, // spawn p2, N MaxInt64, waker MaxInt32
		6, 0x07, 3, 0xf0, 0x30, // wake p3, N MinInt64
		1, 0x00, 2, 0xb0, 0x3e, // exit p2, N 1<<40, a 62µs step
	}, []byte(nil))
	// Each prediction of the per-proc codec, hit and missed. An unblock
	// with no open block, first where the zero context predicts it, then
	// on another class a microsecond later.
	f.Add([]byte{3, 0, 0, 0, 0, 3, 1, 0, 0, 1}, []byte(nil))
	// An unblock whose class (sleep, then mutex "a") or object (mutex "a",
	// then mutex "b") differs from its block.
	f.Add([]byte{2, 1, 0, 0, 0, 3, 0x14, 0, 0, 5, 2, 0x14, 0, 0, 0, 3, 0x26, 0, 0, 2}, []byte(nil))
	// Three 3µs sleeps, then a 5µs one, with p2's 4µs sleeps between.
	f.Add([]byte{
		2, 1, 0, 0, 0, 2, 1, 1, 0, 0, 3, 1, 0, 0, 3, 3, 1, 1, 0, 1,
		2, 1, 0, 0, 0, 2, 1, 1, 0, 0, 3, 1, 0, 0, 3, 3, 1, 1, 0, 1,
		2, 1, 0, 0, 0, 3, 1, 0, 0, 3, 2, 1, 0, 0, 0, 3, 1, 0, 0, 5,
	}, []byte(nil))
	// Acquire and release mutex "a", then mutex "b": a different object
	// than the proc's last hold.
	f.Add([]byte{4, 0x14, 0, 0, 1, 5, 0x14, 0, 0, 1, 4, 0x26, 0, 0, 1, 5, 0x26, 0, 0, 1}, []byte(nil))
	// Resource "a" held with n 1 (the initial prediction), then 2, then 3.
	f.Add([]byte{
		4, 0x17, 0, 0x12, 1, 5, 0x17, 0, 0x12, 1,
		4, 0x17, 0, 0x24, 1, 5, 0x17, 0, 0x24, 1,
		4, 0x17, 0, 0x36, 1, 5, 0x17, 0, 0x36, 1,
	}, []byte(nil))
	// A waker on records whose other fields are all predicted: an unblock
	// woken by p2, and p1's second acquire of mutex "a" with n 1 granted
	// by p3.
	f.Add([]byte{2, 1, 0, 0, 0, 3, 1, 0, 2, 0, 4, 0x14, 0, 0x12, 0, 5, 0x14, 0, 0x12, 0, 4, 0x14, 0, 0x15, 0}, []byte(nil))

	f.Fuzz(func(t *testing.T, data, windows []byte) {
		events := decodeEvents(data)
		names, recs := decodeWindows(windows)
		tr := FromEvents(events, names)
		if tr.err == nil && !bytes.Equal(tr.AppendCanonical(nil), refCanonical(events)) {
			t.Fatal("canonical encoding differs from the fmt reference")
		}
		checkAgainstReference(t, tr, recs)
		a, err := Analyze(tr)
		if err != nil {
			return // rejection is the correct outcome for ill-nested input
		}
		// A stream that analyzed cleanly must survive every downstream
		// consumer without panicking.
		for _, s := range a.Profile() {
			s.TopBlockers(tr, 3)
			_ = s.MeanWait()
			_ = s.MeanHold()
			_ = s.WaitHist.String()
		}
		if err := WriteChrome(io.Discard, tr, nil); err != nil {
			t.Fatalf("chrome export: %v", err)
		}
		_, bindErr := refBindProcs(tr)
		for _, rec := range recs {
			if err := WriteChrome(io.Discard, tr, rec); fmt.Sprint(err) != fmt.Sprint(bindErr) {
				t.Fatalf("chrome export with a recorder: %v, binding %v", err, bindErr)
			}
		}
		// The canonical encoding and fingerprint are pure functions of the
		// stream: re-deriving them from the same events must agree.
		if !bytes.Equal(tr.AppendCanonical(nil), FromEvents(events, names).AppendCanonical(nil)) {
			t.Fatal("canonical encoding is not a pure function of the events")
		}
	})
}
