package telemetry

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"time"
)

// refAppendCanonical is the span-log encoder before it streamed: fmt's %d
// and %q per field over a sort.Slice canonical order, with span i's
// attributes taken from attrs[i] rather than from the recorder, each value
// the string the constructors once rendered when recording (refVal). It
// is the reference model for AppendCanonical, WriteLog and Fingerprint.
func refAppendCanonical(r *Recorder, attrs [][]Attr, b []byte) []byte {
	idx := make([]int, r.n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		x, y := r.at(idx[a]), r.at(idx[b])
		if x.Trace != y.Trace {
			return x.Trace < y.Trace
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return idx[a] < idx[b]
	})
	for _, i := range idx {
		sp := r.Span(i)
		b = fmt.Appendf(b, `{"trace":%d,"span":%d,"parent":%d,"name":%q,"start":%d,"end":%d`,
			sp.Trace, i, sp.Parent, sp.Name, int64(sp.Start), int64(sp.End))
		if len(attrs[i]) > 0 {
			b = append(b, `,"attrs":{`...)
			for j, a := range attrs[i] {
				if j > 0 {
					b = append(b, ',')
				}
				b = fmt.Appendf(b, "%q:%q", a.Key, refVal(a))
			}
			b = append(b, '}')
		}
		b = append(b, '}', '\n')
	}
	return b
}

// logTexts are span names, attribute keys and values that %q quotes
// non-trivially: quotes, backslashes, control bytes, DEL, non-ASCII,
// non-printable runes and invalid UTF-8.
var logTexts = []string{
	"", "request", "admit", `q"uote`, `back\slash`, "<&>", "ctl\x00\a\b\f\n\r\t\v\x1f\x7f",
	"naïve-設備", "bad\xff\xfe", "cut\xe2\x80", "line\u2028sep", "\u00a0nbsp", "150µs", "\U0001F600",
}

// FuzzSpanLogEncoding records random journeys (roots, children, instant
// events, annotations, ends, a final Seal) and requires AppendCanonical,
// WriteLog and Fingerprint to agree with the fmt-based reference: the
// appended and the streamed log byte for byte, the fingerprint as FNV-1a
// over the whole log. The reference reads each span's attributes from a
// model kept beside the recorder, so the arena's range moves are checked
// too. Each 4-byte op is (kind, trace, text, clock step); attrs of every
// kind (fuzzAttr) take further bytes.
func FuzzSpanLogEncoding(f *testing.F) {
	f.Add([]byte{0, 1, 1, 5, 0, 2, 2, 3, 2, 1, 3, 0x21, 7, 8, 1, 0, 0, 9, 3, 1, 4, 2, 1, 2, 0, 0x40},
		"name", "val", int64(1000), 7)
	f.Add([]byte{0, 0, 4, 0x85, 1, 2, 3, 4, 2, 0, 5, 0x31, 1, 2, 3, 4, 3, 0, 0, 0x22, 5, 6, 7, 8},
		"\xff\"", " ", int64(math.MinInt64/2), -1)
	// Non-ASCII, invalid UTF-8 and control bytes in names, keys and values.
	f.Add([]byte{0, 0, 7, 0x20, 7, 12, 2, 1, 8, 0x40, 9, 10, 13, 11, 1, 0, 0, 0x20, 6, 3, 1},
		"\x00\u2029", "\t", int64(0), 3)
	// Attributes of every kind, grown by an End and an Annotate.
	f.Add([]byte{0, 1, 1, 0x60, 0x41, 0, 0x82, 13, 0xc3, 8, 0, 1, 2, 0x40, 0x05, 3, 0x90, 1,
		1, 0, 0, 0x60, 0x80, 2, 0xc0, 9, 0x40, 6, 3, 1, 0, 0x20, 0x81, 1},
		"k", "v", int64(-999), 2)
	f.Fuzz(func(t *testing.T, ops []byte, name, val string, at int64, trace int) {
		texts := append(logTexts[:len(logTexts):len(logTexts)], name, val)
		traces := []int{0, 1, 2, trace, math.MaxInt32, -1}
		pick := func(b byte, n int) int { return int(b) % n }
		r := NewRecorder()
		now := time.Duration(at)
		maxStart := now
		var open []int
		var model [][]Attr // by span id: every attribute recorded for it, in order
		for len(ops) >= 4 {
			op, tb, xb, step := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			var attrs []Attr
			for range int(step>>5) % 4 {
				if len(ops) < 2 {
					break
				}
				attrs = append(attrs, fuzzAttr(ops[0], ops[1], texts, texts, at, float64(at)/7))
				ops = ops[2:]
			}
			now += time.Duration(int8(step<<3)) * time.Microsecond
			maxStart = max(maxStart, now)
			tr, text := traces[pick(tb, len(traces))], texts[pick(xb, len(texts))]
			parent := func() int {
				if root, ok := r.RootOf(tr); ok {
					return root
				}
				return -1
			}
			switch op % 4 {
			case 0:
				open = append(open, r.Begin(tr, parent(), text, now, attrs...))
				model = append(model, attrs)
			case 1:
				if len(open) > 0 {
					k := pick(xb, len(open))
					id := open[k]
					open = append(open[:k], open[k+1:]...)
					r.End(id, max(now, r.Span(id).Start), attrs...)
					model[id] = append(model[id], attrs...)
				}
			case 2:
				r.Event(tr, parent(), text, now, attrs...)
				model = append(model, attrs)
			case 3:
				if r.Len() > 0 {
					id := pick(xb, r.Len())
					r.Annotate(id, attrs...)
					model[id] = append(model[id], attrs...)
				}
			}
		}
		if len(ops) > 0 && ops[0]&1 != 0 {
			r.Seal(maxStart)
			for _, id := range open {
				model[id] = append(model[id], A("unfinished", "true"))
			}
		}

		want := refAppendCanonical(r, model, []byte("prefix\n"))
		if got := r.AppendCanonical([]byte("prefix\n")); !bytes.Equal(got, want) {
			t.Fatalf("AppendCanonical differs from the fmt reference:\n got %q\nwant %q", got, want)
		}
		var buf bytes.Buffer
		if err := r.WriteLog(&buf); err != nil {
			t.Fatal(err)
		}
		if log := want[len("prefix\n"):]; !bytes.Equal(buf.Bytes(), log) {
			t.Fatalf("WriteLog differs from the fmt reference:\n got %q\nwant %q", buf.Bytes(), log)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := r.Fingerprint(); got != h.Sum64() {
			t.Fatalf("Fingerprint %016x, FNV-1a over the whole log %016x", got, h.Sum64())
		}
	})
}

// TestWriteLogStreamsPastBuffer checks a log several export buffers long:
// WriteLog hands it to the writer in bounded slices that concatenate to
// the appended log, and Fingerprint hashes the same bytes.
func TestWriteLogStreamsPastBuffer(t *testing.T) {
	r := NewRecorder()
	for tr := range 2000 {
		root := r.Begin(tr, -1, "request", time.Duration(tr)*time.Millisecond, A("tenant", "api"))
		r.Event(tr, root, "admit", time.Duration(tr)*time.Millisecond, Int("queue", tr%7))
		r.End(root, time.Duration(tr+5)*time.Millisecond, A("outcome", "completed"))
	}
	want := r.AppendCanonical(nil)
	if len(want) < 3*exportBuf {
		t.Fatalf("log is %d bytes, want several %d-byte buffers", len(want), exportBuf)
	}
	w := &sliceWriter{}
	if err := r.WriteLog(w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatal("streamed log differs from AppendCanonical")
	}
	if w.max > exportBuf {
		t.Errorf("largest write %d bytes, above the %d-byte export buffer", w.max, exportBuf)
	}
	if w.calls < len(want)/exportBuf {
		t.Errorf("%d writes for %d bytes: the log was not streamed", w.calls, len(want))
	}
	h := fnv.New64a()
	h.Write(want)
	if r.Fingerprint() != h.Sum64() {
		t.Error("Fingerprint is not FNV-1a over the whole log")
	}
}

// sliceWriter records what it is handed and the size of each write.
type sliceWriter struct {
	buf        bytes.Buffer
	calls, max int
}

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.calls++
	w.max = max(w.max, len(p))
	return w.buf.Write(p)
}
