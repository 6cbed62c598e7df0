package telemetry

import (
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// ChromeWriter streams Chrome trace-event JSON, one event object per line
// (keeps diffs and golden files reviewable), loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing. Both Chrome exports write
// through it: the kernel trace (trace.WriteChrome) and the request
// journeys (Recorder.WriteChrome), which share its clock. Events are
// appended straight from the span store or the trace analysis into one
// bounded buffer (Stream), with no per-event allocation.
//
// encoding/json is the writer's reference: each event is byte for byte
// what json.Marshal gives the struct
//
//	{name, cat (omitempty), ph, ts, dur (omitempty), pid, tid, args (omitempty map)}
//
// with timestamps and durations in microseconds (float, so sub-µs
// simulation costs survive). Strings escape as encoding/json escapes
// them, floats format as it formats them, and args come out sorted by
// key with a repeated key keeping its last value, as a map would.
type ChromeWriter struct {
	s    Stream
	n    int    // events written
	args []Attr // scratch: one event's args, sorted by key
}

// NewChromeWriter starts a trace-event file on w. Close ends it.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	c := &ChromeWriter{s: NewStream(w)}
	c.s.B = append(c.s.B, "{\"traceEvents\":[\n"...)
	return c
}

// Close ends the event list, flushes the buffer, and returns the first
// write error.
func (c *ChromeWriter) Close() error {
	if c.n > 0 {
		c.s.B = append(c.s.B, '\n')
	}
	c.s.B = append(c.s.B, "],\"displayTimeUnit\":\"ms\"}\n"...)
	return c.s.Close()
}

// ProcessName appends the metadata event naming process pid.
func (c *ChromeWriter) ProcessName(pid int, name string) {
	c.meta("process_name", pid, 0, name, false)
}

// ThreadName appends the metadata event naming thread tid of pid.
func (c *ChromeWriter) ThreadName(pid, tid int, name string) {
	c.meta("thread_name", pid, tid, name, false)
}

// NumberedThreadName appends the metadata event naming thread tid of pid
// prefix followed by the tid in decimal ("req-7").
func (c *ChromeWriter) NumberedThreadName(pid, tid int, prefix string) {
	c.meta("thread_name", pid, tid, prefix, true)
}

// Span appends one complete ("X") event for span i of r on thread tid of
// pid, its attributes, read from r's arena, as event args.
func (c *ChromeWriter) Span(r *Recorder, i int, cat string, pid, tid int) {
	sp := r.at(i)
	c.args = r.appendAttrs(c.args[:0], sp)
	b := c.head('X', sp.Name, "", cat, US(sp.Start), US(sp.Dur()), pid, tid)
	if len(c.args) > 0 {
		b = c.appendArgs(b)
	}
	c.end(b)
}

// meta appends a metadata ("M") event whose one arg, name, is label,
// followed by the tid when numbered.
func (c *ChromeWriter) meta(event string, pid, tid int, label string, numbered bool) {
	b := c.head('M', event, "", "", 0, 0, pid, tid)
	b = append(b, `,"args":{"name":"`...)
	b = appendJSONText(b, label)
	if numbered {
		b = strconv.AppendInt(b, int64(tid), 10)
	}
	c.end(append(b, `"}`...))
}

// Complete appends a complete ("X") event without args, named prefix
// followed by name, at ts for dur (trace-event microseconds); prefix must
// be ASCII, so the two escape as their concatenation would.
func (c *ChromeWriter) Complete(prefix, name, cat string, ts, dur float64, pid, tid int) {
	c.end(c.head('X', prefix, name, cat, ts, dur, pid, tid))
}

// head appends an event's separator and every field before its args; only
// a complete event has a duration.
func (c *ChromeWriter) head(ph byte, prefix, name, cat string, ts, dur float64, pid, tid int) []byte {
	b := c.s.B
	if c.n > 0 {
		b = append(b, ",\n"...)
	}
	c.n++
	b = append(b, `{"name":"`...)
	b = appendJSONText(b, prefix)
	b = appendJSONText(b, name)
	b = append(b, '"')
	if cat != "" {
		b = append(b, `,"cat":"`...)
		b = appendJSONText(b, cat)
		b = append(b, '"')
	}
	b = append(b, `,"ph":"`...)
	b = append(b, ph, '"')
	b = append(b, `,"ts":`...)
	b = appendJSONFloat(b, ts)
	if ph == 'X' {
		b = append(b, `,"dur":`...)
		b = appendJSONFloat(b, dur)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// end closes the event and hands it to the stream.
func (c *ChromeWriter) end(b []byte) {
	c.s.B = append(b, '}')
	c.s.Record()
}

// appendArgs appends c.args as the args object, sorted by key; a repeated
// key keeps its last value.
func (c *ChromeWriter) appendArgs(b []byte) []byte {
	slices.SortStableFunc(c.args, func(x, y Attr) int { return strings.Compare(x.Key, y.Key) })
	b = append(b, `,"args":{`...)
	sep := false
	for i, a := range c.args {
		if i+1 < len(c.args) && c.args[i+1].Key == a.Key {
			continue // a later value overrides this one
		}
		if sep {
			b = append(b, ',')
		}
		sep = true
		b = append(b, '"')
		b = appendJSONText(b, a.Key)
		b = append(b, `":"`...)
		if a.kind == kindString {
			b = appendJSONText(b, a.str)
		} else {
			b = appendScalar(b, a.kind, a.num)
		}
		b = append(b, '"')
	}
	return append(b, '}')
}

// jsonSafe marks the ASCII bytes encoding/json writes unescaped: all
// ASCII from the space up (DEL included) but the quote, the backslash and
// the HTML-sensitive '<', '>' and '&'.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = !strings.ContainsRune(`"\<>&`, b)
	}
	return safe
}()

// appendJSONText appends s as the body of a JSON string, without quotes,
// escaped exactly as encoding/json escapes it: plain ASCII is copied
// whole; control bytes, quotes, backslashes and '<', '>', '&' are
// escaped; invalid UTF-8 becomes \ufffd; U+2028 and U+2029 are escaped.
func appendJSONText(b []byte, s string) []byte {
	i := 0
	for i < len(s) && s[i] < utf8.RuneSelf && jsonSafe[s[i]] {
		i++
	}
	if i == len(s) {
		return append(b, s...)
	}
	const hex = "0123456789abcdef"
	start := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest decimal ('f') inside [1e-6, 1e21), exponent form ('e') outside
// it with a one-digit negative exponent's leading zero trimmed (1e-7, not
// 1e-07). f is never NaN or infinite here: every value is a simulated
// duration in microseconds.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// US converts a simulated duration to trace-event microseconds.
func US(d time.Duration) float64 { return float64(d) / 1e3 }

// journeyPID is the request journeys' process group; the kernel trace
// owns pid 1.
const journeyPID = 2

// WriteChrome writes the request journeys as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) on its own or alongside a kernel
// trace export: a "request journeys" process group with one "req-<trace>"
// thread per request, then one complete ("X") event per span in canonical
// (trace, start, id) order, attributes as event args.
func (r *Recorder) WriteChrome(w io.Writer) error {
	c := NewChromeWriter(w)
	c.ProcessName(journeyPID, "request journeys")
	order := r.CanonicalOrder()
	lastTrace := -1
	for _, i := range order {
		if tr := int(r.at(i).Trace); tr != lastTrace {
			c.NumberedThreadName(journeyPID, tr, "req-")
			lastTrace = tr
		}
	}
	for _, i := range order {
		c.Span(r, i, "journey", journeyPID, int(r.at(i).Trace))
	}
	return c.Close()
}
