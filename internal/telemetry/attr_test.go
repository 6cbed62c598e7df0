package telemetry

import (
	"math"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// refVal is an attribute's value as the constructors once rendered it,
// eagerly, into the string an attribute held: strconv.Itoa for Int,
// time.Duration.String for Dur and strconv.FormatFloat('g', -1) for F. It
// is the reference for every export-time appender.
func refVal(a Attr) string {
	switch a.kind {
	case kindInt:
		return strconv.Itoa(int(a.num))
	case kindDur:
		return time.Duration(a.num).String()
	case kindFloat:
		return strconv.FormatFloat(math.Float64frombits(a.num), 'g', -1, 64)
	}
	return a.str
}

// fuzzInts, fuzzDurs and fuzzFloats64 are attribute values of each
// non-string kind: zero, signs, unit boundaries and the extremes.
var (
	fuzzInts = []int{0, 1, -1, 42, 1 << 40, math.MaxInt, math.MinInt}
	fuzzDurs = []time.Duration{0, 1, -1, 999, 1000, 1500, 999999, time.Millisecond, 1500 * time.Microsecond,
		time.Second, 1050 * time.Millisecond, time.Minute + time.Nanosecond, time.Hour, 90*time.Minute + 500*time.Millisecond,
		-time.Second, math.MaxInt64, math.MinInt64}
	fuzzFloats64 = []float64{0, math.Copysign(0, -1), 0.1, 1.5, -2.25, 1e21, 1e-7, 123456789.125,
		math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		math.MaxFloat64}
)

// fuzzAttr returns an attribute of any kind from two op bytes: kb picks the
// kind (top two bits) and the key, vb the value from the kind's pool plus
// the fuzzed n and f.
func fuzzAttr(kb, vb byte, keys, texts []string, n int64, f float64) Attr {
	key := keys[int(kb&63)%len(keys)]
	switch kb >> 6 {
	case 1:
		ints := append(fuzzInts[:len(fuzzInts):len(fuzzInts)], int(n))
		return Int(key, ints[int(vb)%len(ints)])
	case 2:
		durs := append(fuzzDurs[:len(fuzzDurs):len(fuzzDurs)], time.Duration(n))
		return Dur(key, durs[int(vb)%len(durs)])
	case 3:
		floats := append(fuzzFloats64[:len(fuzzFloats64):len(fuzzFloats64)], f)
		return F(key, floats[int(vb)%len(floats)])
	}
	return A(key, texts[int(vb)%len(texts)])
}

// FuzzScalarAppenders checks the export-time appenders against the
// formatting the constructors once did when recording: appendDuration
// against time.Duration.String (zero, negatives, the µs unit below a
// millisecond, fractions with inner zeros, zero minutes after hours,
// MinInt64) and floats against strconv.FormatFloat (NaN, ±Inf, −0,
// subnormals), appended after existing bytes.
func FuzzScalarAppenders(f *testing.F) {
	for _, d := range fuzzDurs {
		f.Add(int64(d), 0.0)
	}
	for _, x := range fuzzFloats64 {
		f.Add(int64(0), x)
	}
	f.Add(int64(-999), 5e-324)
	f.Fuzz(func(t *testing.T, n int64, x float64) {
		prefix := []byte("k:")
		d := time.Duration(n)
		if got := appendScalar(prefix, kindDur, uint64(n)); string(got) != "k:"+d.String() {
			t.Errorf("duration %d: appended %q, String gives %q", n, got, d.String())
		}
		if got := Dur("k", d).value(); got != d.String() {
			t.Errorf("duration %d: Value %q, String gives %q", n, got, d.String())
		}
		want := strconv.FormatFloat(x, 'g', -1, 64)
		if got := appendScalar(prefix, kindFloat, math.Float64bits(x)); string(got) != "k:"+want {
			t.Errorf("float %v: appended %q, FormatFloat gives %q", x, got, want)
		}
		if got := F("k", x).value(); got != want {
			t.Errorf("float %v: Value %q, FormatFloat gives %q", x, got, want)
		}
		if got, want := Int("k", int(n)).value(), strconv.Itoa(int(n)); got != want {
			t.Errorf("int %d: Value %q, Itoa gives %q", n, got, want)
		}
	})
}

// TestRecordingAttrsAllocFree pins that recording attributes of every kind
// allocates nothing once the arena and the string table are warm: the
// constructors format nothing and the variadic slices stay on the stack.
func TestRecordingAttrsAllocFree(t *testing.T) {
	r := NewRecorder()
	tr := 0
	record := func() {
		at := ms(tr)
		root := r.Begin(tr, -1, "request", at, A("tenant", "api"), A("prio", "high"))
		r.Event(tr, root, "admission", at, A("policy", "slo-aware"), Dur("est-sojourn", 1500*time.Microsecond),
			Dur("budget", ms(500)), Int("queue-depth", tr%9), Int("headroom", 3), A("verdict", "admit"))
		att := r.Begin(tr, root, "attempt", at, Int("attempt", 0), Int("ctr", tr))
		r.Event(tr, att, "placement", at, Int("host", 1), A("health", "up"), F("score", 0.25+float64(tr%7)))
		r.End(att, at+ms(2), A("outcome", "ok"), Dur("took", ms(2)))
		r.Annotate(root, A("outcome", "completed"), Dur("sojourn", ms(3)))
		r.End(root, at+ms(4))
		tr++
	}
	// Warm up past a chunk of spans and of attribute slots, then measure
	// whole chunks so each run's share of a new chunk stays below one.
	for range 2 * chunkLen {
		record()
	}
	if got := testing.AllocsPerRun(2*chunkLen, record); got >= 1 {
		t.Errorf("recording one journey allocates %v times, want 0 amortised", got)
	}
}

// TestStoredFormIsCompact pins the stored sizes: a stored attribute is 16
// bytes, and a stored span holds an 8-byte arena range where a 24-byte
// slice header was (48 bytes, not 64).
func TestStoredFormIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(attr{}); n != 16 {
		t.Errorf("stored attribute is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(span{}); n != 48 {
		t.Errorf("stored span is %d bytes, want 48", n)
	}
}
