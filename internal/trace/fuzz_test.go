package trace

import (
	"bytes"
	"io"
	"math"
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

// decodeEvents turns arbitrary fuzz bytes into an event stream, five bytes
// per event. Time advances by the low bits of the fifth byte but can also
// stall or (when the high bit is set) jump backwards, so the analyzer's
// monotonicity check gets exercised too.
//
// Proc ids are 1..8 unless the third byte's top bits select an edge case:
// 0xe0.. proc 0, 0xe8.. negative, 0xf0.. the largest int32 ids (valid),
// 0xf8.. ids above math.MaxInt32 (rejected). Bit 0x40 of the fifth byte
// replaces the waker with -1, math.MaxInt32 or math.MaxInt32+1.
func decodeEvents(data []byte) []Event {
	var events []Event
	var at time.Duration
	for len(data) >= 5 {
		b, rest := data[:5], data[5:]
		data = rest
		dt := time.Duration(b[4]&0x3f) * time.Microsecond
		if b[4]&0x80 != 0 {
			at -= dt
		} else {
			at += dt
		}
		e := Event{
			At:    at,
			Kind:  fuzzKinds[int(b[0])%len(fuzzKinds)],
			Class: fuzzClasses[int(b[1])%len(fuzzClasses)],
			Obj:   fuzzObjs[int(b[1]>>4)%len(fuzzObjs)],
			Proc:  int(b[2]%8) + 1,
			Waker: int(b[3] % 9), // 0 = none
			N:     int64(b[3] >> 4),
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

// FuzzTraceReplay replays arbitrary interleavings of spawn/exit/block/
// unblock/acquire/release/wake events through the analyzer. The analyzer
// must never panic: well-nested streams analyze cleanly and flow through
// every downstream consumer, ill-nested ones are rejected with an error.
func FuzzTraceReplay(f *testing.F) {
	// A well-formed contended mutex exchange: p1 acquires, p2 blocks, p1
	// releases and hands off, p2 unblocks+acquires, p2 releases.
	f.Add([]byte{
		4, 2, 1, 0, 1, // acquire mutex p1
		2, 2, 2, 0, 1, // block mutex p2
		5, 2, 1, 0, 2, // release mutex p1
		4, 2, 2, 1, 0, // acquire mutex p2 (woken by p1)
		3, 2, 2, 1, 0, // unblock mutex p2
		5, 2, 2, 0, 1, // release mutex p2
	})
	// Ill-nested: release without a hold.
	f.Add([]byte{5, 2, 1, 0, 0})
	// Ill-nested: double block.
	f.Add([]byte{2, 2, 1, 0, 1, 2, 6, 1, 0, 1})
	// Time jumping backwards.
	f.Add([]byte{2, 2, 1, 0, 10, 3, 2, 1, 0, 0x85})
	// Sleep intervals (service time) mixed with spawn/exit.
	f.Add([]byte{0, 0, 1, 0, 0, 2, 1, 1, 0, 5, 3, 1, 1, 0, 0, 1, 0, 1, 0, 2})
	// Proc 0 and the largest valid ids contending for a quoted object.
	f.Add([]byte{
		4, 0x41, 0xe0, 0, 1, // acquire mutex `q"uote` p0
		2, 0x41, 0xf0, 0, 1, // block p(MaxInt32)
		5, 0x41, 0xe0, 0, 2, // release p0
		4, 0x41, 0xf0, 1, 0x40, // acquire p(MaxInt32), waker MaxInt32
		3, 0x41, 0xf0, 1, 0, // unblock
	})
	// A negative proc, a proc above MaxInt32, and an out-of-range waker.
	f.Add([]byte{0, 0, 0xe8, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0xf8, 0, 0})
	f.Add([]byte{6, 0x77, 1, 2, 0x40})

	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeEvents(data)
		tr := FromEvents(events, nil)
		if tr.err == nil && !bytes.Equal(tr.AppendCanonical(nil), refCanonical(events)) {
			t.Fatal("canonical encoding differs from the fmt reference")
		}
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
		if _, err := a.CriticalPaths(telemetry.NewRecorder()); err != nil {
			t.Fatalf("critical paths over empty recorder: %v", err)
		}
		if err := WriteChrome(io.Discard, a, telemetry.NewRecorder()); err != nil {
			t.Fatalf("chrome export: %v", err)
		}
		// The canonical encoding and fingerprint are pure functions of the
		// stream: re-deriving them from the same events must agree.
		if !bytes.Equal(tr.AppendCanonical(nil), FromEvents(events, nil).AppendCanonical(nil)) {
			t.Fatal("canonical encoding is not a pure function of the events")
		}
	})
}
