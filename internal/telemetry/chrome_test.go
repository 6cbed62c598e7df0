package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"
	"time"
)

// refChromeEvent is the event struct the Chrome exports were once built
// from and marshalled with encoding/json: the reference model for
// ChromeWriter.
type refChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// refWriteChromeEvents is the reference writer: json.Marshal per event,
// one object per line.
func refWriteChromeEvents(w io.Writer, events []refChromeEvent) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "],\"displayTimeUnit\":\"ms\"}\n")
	return err
}

// refArgs is the reference args map of attrs: nil when there are none,
// a repeated key keeping its last value.
func refArgs(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = refVal(a)
	}
	return m
}

// fuzzTexts are names, categories and attribute values covering every
// escaping rule of encoding/json: HTML-sensitive bytes, quotes,
// backslashes, control bytes, DEL, non-ASCII, invalid and truncated
// UTF-8, and the JavaScript line separators.
var fuzzTexts = []string{
	"", "a", "service", "req-", `q"uote`, `back\slash`, "<b>&amp;</b>",
	"ctl\x00\x01\b\f\n\r\t\x1f\x7f", "naïve-設備", "bad\xff\xfeutf8", "cut\xe2\x80",
	"line\u2028para\u2029", "150µs", "\U0001F600",
}

// fuzzPrefixes are the ASCII name prefixes of complete events, as the
// kernel trace's service and wait events use them.
var fuzzPrefixes = []string{"", "service", "wait mutex ", "wait sleep"}

// fuzzKeys are attribute keys; repeats among them give duplicate keys.
var fuzzKeys = []string{"a", "b", "outcome", "a", "<k>", `k"`, "", "naïve", "b"}

// fuzzFloats are timestamps and durations on both sides of encoding/json's
// exponent cutoffs (1e-6 and 1e21), sub-nanosecond and negative.
var fuzzFloats = []float64{
	0, 1e-7, 1e-6, 9.99e-7, 5e-4, 0.001, 123.456, 1e20, 1e21, 1e22, 9.2e15,
	-1, -1e-7, -1e21, math.SmallestNonzeroFloat64, math.MaxFloat64, 1.5e-300,
}

// fuzzDurations are simulated instants (ns) for span events.
var fuzzDurations = []time.Duration{0, 1, 999, 1000, 1500, time.Millisecond, -1, -time.Second, math.MaxInt64, math.MinInt64}

// FuzzChromeWriter drives random event sequences through ChromeWriter and
// through the reference model (refChromeEvent marshalled by
// encoding/json, attribute values as refVal renders them) and requires
// byte-identical files. Each 4-byte op picks an event kind and its
// operands from the pools above plus the fuzzed strings, floats, instants
// and ids; attrs of every kind (fuzzAttr) take further bytes. The span op
// records a span with its attributes into a recorder and writes it from
// the recorder's arena, as both Chrome exports do; a complete event has no
// args.
func FuzzChromeWriter(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6, 7, 8, 4, 5, 6, 7, 5, 6, 7, 8, 9, 10},
		"name", "val", 1.5, 2.5, int64(1000), int64(5000), 2, 7)
	f.Add([]byte{3, 7, 9, 0x44, 1, 2, 3, 4, 5, 6, 4, 9, 1, 0x53, 0, 1, 2, 3},
		"x\u2028<&>", "\xff", 1e21, 1e-7, int64(-5), int64(math.MaxInt64), -1, math.MaxInt)
	f.Add([]byte{5, 1, 2, 3, 5, 0, 9, 1, 4, 12, 3, 0x24, 0, 1, 2, 3, 2, 0, 0, 1},
		"", "\x00", 0.0, -0.0, int64(0), int64(1), math.MinInt, 0)
	// Repeated keys: "a" twice on one span, "b" twice on the next.
	f.Add([]byte{4, 1, 2, 0x30, 0, 1, 3, 2, 1, 3, 4, 2, 3, 0x20, 1, 4, 8, 5},
		"dup", "last", 2.0, 3.0, int64(10), int64(20), 1, 2)
	// Attributes of every kind, on spans whose arena ranges move.
	f.Add([]byte{4, 1, 2, 0x30, 0x41, 1, 0x82, 3, 0xc3, 9, 0x81, 2, 3, 0x40, 0x80, 0, 0xc0, 10, 0x40, 5, 0x05, 2,
		0x81, 4, 5, 0x30, 0x42, 3, 0xc1, 2, 0x83, 7},
		"k", "v", math.NaN(), math.Inf(-1), int64(-1500), int64(math.MinInt64), 1, 2)
	f.Fuzz(func(t *testing.T, ops []byte, name, val string, ts, dur float64, start, end int64, pid, tid int) {
		texts := append(fuzzTexts[:len(fuzzTexts):len(fuzzTexts)], name, val)
		floats := append(fuzzFloats[:len(fuzzFloats):len(fuzzFloats)], ts, dur)
		instants := append(fuzzDurations[:len(fuzzDurations):len(fuzzDurations)], time.Duration(start), time.Duration(end))
		keys := append(fuzzKeys[:len(fuzzKeys):len(fuzzKeys)], name)
		ids := []int{pid, tid, 0, 1, 2, -3, math.MaxInt32 + 1}
		pick := func(b byte, n int) int { return int(b) % n }
		num := func(b byte) float64 {
			if f := floats[pick(b, len(floats))]; !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
			return 0
		}

		var buf bytes.Buffer
		c := NewChromeWriter(&buf)
		rec := NewRecorder()
		var ref []refChromeEvent
		for len(ops) >= 4 {
			op, a, b, d := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			var attrs []Attr
			for range int(d>>4) % 5 {
				if len(ops) < 2 {
					break
				}
				attrs = append(attrs, fuzzAttr(ops[0], ops[1], keys, texts, start, ts))
				ops = ops[2:]
			}
			p, q := ids[pick(b, len(ids))], ids[pick(b>>4, len(ids))]
			text := texts[pick(a, len(texts))]
			cat := texts[pick(d, len(texts))]
			switch op % 5 {
			case 0:
				c.ProcessName(p, text)
				ref = append(ref, refChromeEvent{Name: "process_name", Ph: "M", PID: p, Args: map[string]string{"name": text}})
			case 1:
				c.ThreadName(p, q, text)
				ref = append(ref, refChromeEvent{Name: "thread_name", Ph: "M", PID: p, TID: q, Args: map[string]string{"name": text}})
			case 2:
				c.NumberedThreadName(p, q, text)
				ref = append(ref, refChromeEvent{Name: "thread_name", Ph: "M", PID: p, TID: q,
					Args: map[string]string{"name": text + strconv.Itoa(q)}})
			case 3:
				prefix := fuzzPrefixes[pick(a>>4, len(fuzzPrefixes))]
				at, d := num(b), num(d)
				c.Complete(prefix, text, cat, at, d, p, q)
				ref = append(ref, refChromeEvent{Name: prefix + text, Cat: cat, Ph: "X", TS: at, Dur: &d, PID: p, TID: q})
			case 4:
				sp := span{Name: text, Start: instants[pick(b, len(instants))], End: instants[pick(d, len(instants))]}
				// Stored in two halves with the previous span's attributes
				// growing in between, so the second half moves this span's
				// arena range past a slot it must not read.
				id := rec.add(sp)
				half := len(attrs) / 2
				rec.addAttrs(rec.at(id), attrs[:half])
				if id > 0 {
					rec.addAttrs(rec.at(id-1), []Attr{A("stale", "x")})
				}
				rec.addAttrs(rec.at(id), attrs[half:])
				c.Span(rec, id, cat, p, q)
				d := US(sp.Dur())
				ref = append(ref, refChromeEvent{Name: text, Cat: cat, Ph: "X", TS: US(sp.Start), Dur: &d, PID: p, TID: q, Args: refArgs(attrs)})
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := refWriteChromeEvents(&want, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want.Bytes()) {
			t.Fatalf("writer and encoding/json disagree:\n got %q\nwant %q", buf.Bytes(), want.Bytes())
		}
	})
}

// TestChromeWriterReportsWriteError pins that a failing writer surfaces
// from Close and stops the stream.
func TestChromeWriterReportsWriteError(t *testing.T) {
	w := &failWriter{}
	c := NewChromeWriter(w)
	for i := range 10000 {
		c.ThreadName(1, i, "ctr")
	}
	if err := c.Close(); err != io.ErrShortWrite {
		t.Fatalf("Close = %v, want %v", err, io.ErrShortWrite)
	}
	if w.calls != 1 {
		t.Errorf("%d writes after the first failed, want none", w.calls-1)
	}
}

type failWriter struct{ calls int }

func (w *failWriter) Write([]byte) (int, error) {
	w.calls++
	return 0, io.ErrShortWrite
}
