// Package telemetry is the reproduction of the paper's fine-grained logging
// tool (§3.1) and the simulator's one span store. A container startup is a
// root span whose trace id is the container id, and each timed stage is a
// child span of it; the store renders them as the breakdown table (Tab. 1),
// the timeline figure (Fig. 5), and CDFs (Fig. 12). Request journeys
// (package serve) record into the same store with their own root and
// child spans, parent links and attributes: a span context is minted when
// a request arrives and threaded through admission, queue wait, dispatch,
// placement, reroute/backoff after host crashes, the startup stages, pod
// lifetime and teardown. A journey store consumes no simulated time and no
// PRNG draws, so a run with one attached renders byte-identically to one
// without. It exports as a canonical JSONL span log (WriteLog, with an
// FNV-1a Fingerprint for the determinism check) and as a Chrome trace
// (WriteChrome) on the kernel trace's clock.
//
// Recording is free of real synchronization because the simulation kernel
// guarantees only one simulated thread executes at a time; the paper's tool
// similarly takes care to be asynchronous so that logging does not perturb
// the measured startup times.
package telemetry

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"fastiov/internal/stats"
)

// Stage identifies one of the time-consuming startup steps. Names follow the
// paper's Fig. 5 legend.
type Stage string

// The stage classes of the paper's breakdown, plus internal ones used by
// finer-grained analyses.
const (
	StageCgroup   Stage = "0-cgroup"
	StageDMARAM   Stage = "1-dma-ram"
	StageVirtioFS Stage = "2-virtiofs"
	StageDMAImage Stage = "3-dma-image"
	StageVFIODev  Stage = "4-vfio-dev"
	StageVFDriver Stage = "5-vf-driver"
	StageAddCNI   Stage = "6-add-cni"  // software-CNI device creation (Fig. 14)
	StageRetry    Stage = "7-retry"    // backoff waits spent retrying injected faults
	StageRollback Stage = "8-rollback" // compensating rollback after a failed startup
	StageOther    Stage = "other"
)

// VFRelated reports whether a stage is one of the four VF-related steps
// whose share the paper tracks (Tab. 1: steps 1, 3, 4, 5).
func (s Stage) VFRelated() bool {
	switch s {
	case StageDMARAM, StageDMAImage, StageVFIODev, StageVFDriver:
		return true
	}
	return false
}

// SpanFn records a stage interval of one container's startup. Nil
// disables recording.
type SpanFn func(stage Stage, start, end time.Duration)

// Attr is one key/value span attribute: a string, an integer, a duration
// or a float. The constructors format nothing: formatting is exact and
// happens only at export (Span.Attr formats on demand), so recording an
// attribute allocates nothing beyond the recorder's arena chunks.
type Attr struct {
	Key  string
	str  string   // a string value
	num  uint64   // an integer, duration or float64 bits
	kind attrKind // which of str and num holds the value
}

// attrKind is an attribute value's type; the zero kind is a string.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindDur
	kindFloat
)

// A returns a string attribute.
func A(key, val string) Attr { return Attr{Key: key, str: val} }

// Int returns an integer attribute (decimal at export).
func Int(key string, v int) Attr { return Attr{Key: key, num: uint64(v), kind: kindInt} }

// Dur returns a duration attribute (Go duration syntax at export, e.g. "8ms").
func Dur(key string, v time.Duration) Attr { return Attr{Key: key, num: uint64(v), kind: kindDur} }

// F returns a float attribute (shortest round-trip 'g' form at export).
func F(key string, v float64) Attr { return Attr{Key: key, num: math.Float64bits(v), kind: kindFloat} }

// value returns the attribute's value as the exports render it.
func (a Attr) value() string {
	if a.kind == kindString {
		return a.str
	}
	return string(appendScalar(nil, a.kind, a.num))
}

// appendScalar appends a non-string value as the exports render it:
// strconv.AppendInt's decimal, time.Duration.String's syntax, or
// strconv.AppendFloat's shortest 'g' form. None of these bytes needs
// quoting or escaping in the span log or in JSON, so both exports write
// them between plain quotes.
func appendScalar(b []byte, kind attrKind, v uint64) []byte {
	switch kind {
	case kindInt:
		return strconv.AppendInt(b, int64(v), 10)
	case kindDur:
		return appendDuration(b, time.Duration(v))
	default:
		return strconv.AppendFloat(b, math.Float64frombits(v), 'g', -1, 64)
	}
}

// appendDuration appends d as time.Duration.String renders it ("1h2m3.5s",
// "1.5µs", "0s"), without building the string.
func appendDuration(b []byte, d time.Duration) []byte {
	if d == 0 {
		return append(b, "0s"...)
	}
	u := uint64(d)
	if d < 0 {
		b, u = append(b, '-'), -u // MinInt64's magnitude still fits a uint64
	}
	// Below a second the largest unit that fits the value; from a second
	// up, hours and minutes (the minutes even when zero) before seconds.
	unit, scale := "s", uint64(time.Second)
	switch {
	case u < uint64(time.Microsecond):
		unit, scale = "ns", 1
	case u < uint64(time.Millisecond):
		unit, scale = "µs", uint64(time.Microsecond)
	case u < uint64(time.Second):
		unit, scale = "ms", uint64(time.Millisecond)
	default:
		if h := u / uint64(time.Hour); h > 0 {
			b = append(strconv.AppendUint(b, h, 10), 'h')
		}
		if m := u / uint64(time.Minute); m > 0 {
			b = append(strconv.AppendUint(b, m%60, 10), 'm')
		}
		u %= uint64(time.Minute)
	}
	b = strconv.AppendUint(b, u/scale, 10)
	if f := u % scale; f > 0 {
		b = append(b, '.') // the fraction's digits, trailing zeros dropped
		for scale /= 10; f > 0; scale /= 10 {
			b = append(b, byte('0'+f/scale))
			f %= scale
		}
	}
	return append(b, unit...)
}

// Span is one timed region of a trace, as Recorder.Span returns it. Its
// id is its index in the store (Begin order, so it is itself
// deterministic). Parent is the enclosing span's id or -1 for the trace's
// root. End is -1 while the span is open. Attrs is a copy of the span's
// attributes in recording order.
type Span struct {
	Trace  int32
	Parent int32
	Name   string
	Start  time.Duration
	End    time.Duration
	Attrs  []Attr
}

// open marks a span that has not ended.
const open = -1

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Attr returns the value of the named attribute as the exports render
// it, or "" when absent.
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.value()
		}
	}
	return ""
}

// span is a span as the recorder stores it: its attributes are a range of
// the recorder's attribute arena.
type span struct {
	Trace  int32
	Parent int32
	Name   string
	Start  time.Duration
	End    time.Duration
	attrs  attrRange
}

func (s *span) Dur() time.Duration { return s.End - s.Start }

// attrRange is a span's attributes: arena slots [off, off+n).
type attrRange struct{ off, n uint32 }

// attr is an attribute as the arena stores it, 16 bytes: its key and a
// string value are indexes into the recorder's string table.
type attr struct {
	key  uint32
	kind attrKind
	val  uint64 // Attr.num, or the string value's index
}

// Recorder is the span store. The zero value is ready to use.
//
// No mutex: the deterministic kernel runs exactly one proc at a time, and
// the recorder is only called from procs (never from host threads).
type Recorder struct {
	chunks [][]span // spans in Begin order, chunkLen per chunk
	n      int
	roots  map[int]int32 // trace -> root span id
	stages []stageTally  // per recorded stage, in first-recorded order
	sealed bool

	// The attribute arena: every span's attributes, attrChunk slots per
	// chunk, grown a chunk at a time; a span's range may cross chunks.
	arena [][]attr
	nattr uint32
	// The string table: attribute keys and string values, each once.
	strs  []string
	strID map[string]uint32
}

// stageTally counts one stage's recorded spans and sums their durations.
type stageTally struct {
	stage Stage
	n     int
	sum   time.Duration
}

// chunkLen is the number of spans per storage chunk: the store grows a
// chunk at a time and never copies recorded spans.
const chunkLen = 128

// attrChunk is the number of attribute slots per arena chunk (16 KiB).
const attrChunk = 1024

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

func (r *Recorder) at(id int) *span { return &r.chunks[id/chunkLen][id%chunkLen] }

func (r *Recorder) add(sp span) int {
	if r.sealed {
		panic(fmt.Sprintf("telemetry: span %q added after Seal", sp.Name))
	}
	if r.n%chunkLen == 0 {
		r.chunks = append(r.chunks, make([]span, chunkLen))
	}
	*r.at(r.n) = sp
	r.n++
	return r.n - 1
}

// slot returns arena slot i.
func (r *Recorder) slot(i uint32) *attr { return &r.arena[i/attrChunk][i%attrChunk] }

// push appends a to the arena.
func (r *Recorder) push(a attr) {
	if r.nattr%attrChunk == 0 {
		r.arena = append(r.arena, make([]attr, attrChunk))
	}
	*r.slot(r.nattr) = a
	r.nattr++
}

// intern returns s's index in the string table, adding it on first use.
func (r *Recorder) intern(s string) uint32 {
	id, ok := r.strID[s]
	if !ok {
		if r.strID == nil {
			r.strID = make(map[string]uint32)
		}
		id = uint32(len(r.strs))
		r.strs = append(r.strs, s)
		r.strID[s] = id
	}
	return id
}

// addAttrs copies attrs to the arena's tail as the last of sp's
// attributes. A span's range is contiguous, so attributes added after
// later spans recorded theirs first move sp's range to the tail.
func (r *Recorder) addAttrs(sp *span, attrs []Attr) {
	if len(attrs) == 0 {
		return
	}
	if old := sp.attrs; old.n == 0 || old.off+old.n != r.nattr {
		sp.attrs.off = r.nattr
		for i := old.off; i < old.off+old.n; i++ {
			r.push(*r.slot(i))
		}
	}
	for _, a := range attrs {
		v := a.num
		if a.kind == kindString {
			v = uint64(r.intern(a.str))
		}
		r.push(attr{key: r.intern(a.Key), kind: a.kind, val: v})
	}
	sp.attrs.n += uint32(len(attrs))
}

// appendAttrs appends sp's attributes to dst in recording order.
func (r *Recorder) appendAttrs(dst []Attr, sp *span) []Attr {
	dst = slices.Grow(dst, int(sp.attrs.n))
	for i := sp.attrs.off; i < sp.attrs.off+sp.attrs.n; i++ {
		a := r.slot(i)
		if a.kind == kindString {
			dst = append(dst, A(r.strs[a.key], r.strs[a.val]))
		} else {
			dst = append(dst, Attr{Key: r.strs[a.key], num: a.val, kind: a.kind})
		}
	}
	return dst
}

// Begin opens a span and returns its id. Parent is the enclosing span's id
// or -1 for a root; a root registers itself as the trace's root span
// (exactly one root per trace — a second root for the same trace panics).
func (r *Recorder) Begin(trace, parent int, name string, at time.Duration, attrs ...Attr) int {
	if parent < 0 {
		if _, dup := r.roots[trace]; dup {
			panic(fmt.Sprintf("telemetry: second root span for trace %d", trace))
		}
		if r.roots == nil {
			r.roots = make(map[int]int32)
		}
		r.roots[trace] = int32(r.n)
		parent = -1
	}
	id := r.add(span{Trace: int32(trace), Parent: int32(parent), Name: name, Start: at, End: open})
	r.addAttrs(r.at(id), attrs)
	return id
}

// End closes a span at the given instant, optionally appending attributes.
// Ending an already-ended span or ending before the span started panics.
func (r *Recorder) End(id int, at time.Duration, attrs ...Attr) {
	sp := r.at(id)
	if sp.End != open {
		panic(fmt.Sprintf("telemetry: span %d (%s) ended twice", id, sp.Name))
	}
	if at < sp.Start {
		panic(fmt.Sprintf("telemetry: span %d (%s) ends %v before start %v", id, sp.Name, at, sp.Start))
	}
	sp.End = at
	r.addAttrs(sp, attrs)
}

// Event records a zero-duration span (an instant annotation, e.g. an
// admission verdict or a placement decision) and returns its id.
func (r *Recorder) Event(trace, parent int, name string, at time.Duration, attrs ...Attr) int {
	id := r.Begin(trace, parent, name, at, attrs...)
	r.End(id, at)
	return id
}

// Annotate appends attributes to an open or closed span.
func (r *Recorder) Annotate(id int, attrs ...Attr) {
	r.addAttrs(r.at(id), attrs)
}

// Seal closes every still-open span at the given instant (requests whose
// pod-retirement proc was killed by a host crash, for example) with an
// unfinished=true attribute, and freezes the recorder.
func (r *Recorder) Seal(end time.Duration) {
	if r.sealed {
		return
	}
	for i := 0; i < r.n; i++ {
		if r.at(i).End == open {
			r.End(i, end, A("unfinished", "true"))
		}
	}
	r.sealed = true
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int { return r.n }

// Roots returns the number of root spans (distinct traces).
func (r *Recorder) Roots() int { return len(r.roots) }

// Traces returns every trace id with a root span, ascending. For startup
// recording these are the started containers.
func (r *Recorder) Traces() []int {
	out := make([]int, 0, len(r.roots))
	for tr := range r.roots {
		out = append(out, tr)
	}
	sort.Ints(out)
	return out
}

// RootOf returns the root span id for a trace.
func (r *Recorder) RootOf(trace int) (int, bool) {
	id, ok := r.roots[trace]
	return int(id), ok
}

// Span returns a copy of the span with the given id.
func (r *Recorder) Span(id int) Span {
	sp := r.at(id)
	return Span{Trace: sp.Trace, Parent: sp.Parent, Name: sp.Name, Start: sp.Start, End: sp.End,
		Attrs: r.appendAttrs(nil, sp)}
}

// Children returns the ids of a span's direct children, in Begin order.
// A child is always begun after its parent, so the scan starts there.
func (r *Recorder) Children(id int) []int {
	var out []int
	for i := id + 1; i < r.n; i++ {
		if int(r.at(i).Parent) == id {
			out = append(out, i)
		}
	}
	return out
}

// CopyStages copies the stage spans of container's startup in src into r
// as closed children of parent in trace, in recording order.
func (r *Recorder) CopyStages(src *Recorder, container, trace, parent int) {
	root, ok := src.RootOf(container)
	if !ok {
		return
	}
	for i := root + 1; i < src.n; i++ {
		if sp := src.at(i); int(sp.Parent) == root {
			r.End(r.Begin(trace, parent, sp.Name, sp.Start), sp.End)
		}
	}
}

// CanonicalOrder returns span ids sorted by (Trace, Start, id): all of one
// trace's spans group together, in time order, with the Begin-order id as
// a deterministic tiebreak for equal timestamps.
func (r *Recorder) CanonicalOrder() []int {
	idx := make([]int, r.n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		x, y := r.at(a), r.at(b)
		if c := cmp.Compare(x.Trace, y.Trace); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Start, y.Start); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx
}

// AppendCanonical appends the canonical JSONL span log: one JSON object
// per span, sorted by (trace, start, id), with attributes in recording
// order. The encoding is hand-rendered so the bytes are stable regardless
// of encoder version (integers as strconv.AppendInt, strings as
// strconv.AppendQuote: the bytes fmt's %d and %q give), and it is a pure
// function of the recorder's contents, so two runs of the same seeded
// simulation produce identical bytes — the property the determinism
// verification checks.
func (r *Recorder) AppendCanonical(b []byte) []byte {
	for _, i := range r.CanonicalOrder() {
		b = r.appendSpan(b, i)
	}
	return b
}

// appendSpan appends span i's line of the canonical log.
func (r *Recorder) appendSpan(b []byte, i int) []byte {
	sp := r.at(i)
	b = append(b, `{"trace":`...)
	b = strconv.AppendInt(b, int64(sp.Trace), 10)
	b = append(b, `,"span":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, int64(sp.Parent), 10)
	b = append(b, `,"name":`...)
	b = strconv.AppendQuote(b, sp.Name)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, int64(sp.Start), 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, int64(sp.End), 10)
	if sp.attrs.n > 0 {
		b = append(b, `,"attrs":{`...)
		for i := sp.attrs.off; i < sp.attrs.off+sp.attrs.n; i++ {
			if i > sp.attrs.off {
				b = append(b, ',')
			}
			a := r.slot(i)
			b = strconv.AppendQuote(b, r.strs[a.key])
			b = append(b, ':')
			if a.kind == kindString {
				b = strconv.AppendQuote(b, r.strs[a.val])
			} else {
				b = append(appendScalar(append(b, '"'), a.kind, a.val), '"')
			}
		}
		b = append(b, '}')
	}
	return append(b, '}', '\n')
}

// WriteLog writes the canonical JSONL span log, streamed through one
// bounded export buffer.
func (r *Recorder) WriteLog(w io.Writer) error {
	s := NewStream(w)
	for _, i := range r.CanonicalOrder() {
		s.B = r.appendSpan(s.B, i)
		s.Record()
	}
	return s.Close()
}

// Fingerprint returns an FNV-1a hash over the canonical JSONL encoding,
// suitable for folding into the determinism check. The log is hashed a
// buffer at a time, never built whole.
func (r *Recorder) Fingerprint() uint64 {
	h := fnv.New64a()
	_ = r.WriteLog(h) // a hash.Hash write never fails
	return h.Sum64()
}

// exportBuf is the size of the bounded buffer an export streams through:
// the span log and the Chrome trace-event writer.
// An export's memory therefore stays flat however many spans it writes.
const exportBuf = 64 << 10

// exportSlack is the headroom left for the record after a flush check; a
// longer record grows the buffer instead.
const exportSlack = 4 << 10

// Stream is a bounded export buffer over a writer. An exporter appends
// one whole record to B and then calls Record, which flushes B once it
// is nearly full; Close flushes the rest. The first write error stops
// the stream and is what Close returns.
type Stream struct {
	B   []byte
	w   io.Writer
	err error
}

// NewStream returns an empty stream over w.
func NewStream(w io.Writer) Stream {
	return Stream{B: make([]byte, 0, exportBuf), w: w}
}

// Record ends a record, flushing the buffer when it is nearly full.
func (s *Stream) Record() {
	if len(s.B) >= exportBuf-exportSlack {
		s.flush()
	}
}

func (s *Stream) flush() {
	if s.err == nil && len(s.B) > 0 {
		_, s.err = s.w.Write(s.B)
	}
	s.B = s.B[:0]
}

// Close flushes what is buffered and returns the first write error.
func (s *Stream) Close() error {
	s.flush()
	return s.err
}

// MarkStart begins container's startup root span at the issuance time of
// its startup command. Starting a container id again (a wave re-run on
// one host) begins a new root that replaces the old one; the stage spans
// of both runs stay attributed to the id.
func (r *Recorder) MarkStart(container int, at time.Duration) {
	delete(r.roots, container)
	r.Begin(container, -1, "startup", at)
}

// MarkEnd ends container's startup root span at its completion time.
func (r *Recorder) MarkEnd(container int, at time.Duration) {
	root, ok := r.RootOf(container)
	if !ok {
		panic(fmt.Sprintf("telemetry: container %d ends without a start", container))
	}
	r.End(root, at)
}

// Record adds a completed stage span as a child of container's startup
// root, which MarkStart must have begun.
func (r *Recorder) Record(container int, stage Stage, start, end time.Duration) {
	if end < start {
		panic(fmt.Sprintf("telemetry: span ends before it starts: %v < %v", end, start))
	}
	root, ok := r.roots[container]
	if !ok {
		panic(fmt.Sprintf("telemetry: container %d records %s before its start", container, stage))
	}
	r.add(span{Trace: int32(container), Parent: root, Name: string(stage), Start: start, End: end})
	for i := range r.stages {
		if t := &r.stages[i]; t.stage == stage {
			t.n++
			t.sum += end - start
			return
		}
	}
	r.stages = append(r.stages, stageTally{stage, 1, end - start})
}

// StageTotal returns the number of stage's recorded spans and their summed
// duration, kept as they are recorded.
func (r *Recorder) StageTotal(stage Stage) (n int, sum time.Duration) {
	for _, t := range r.stages {
		if t.stage == stage {
			return t.n, t.sum
		}
	}
	return 0, 0
}

// Total returns container's end-to-end startup time, or 0 if incomplete.
func (r *Recorder) Total(container int) time.Duration {
	root, ok := r.roots[container]
	if !ok || r.at(int(root)).End == open {
		return 0
	}
	return r.at(int(root)).Dur()
}

// Totals returns the sample of end-to-end startup times across containers.
func (r *Recorder) Totals() *stats.Sample {
	s := stats.NewSample()
	for _, id := range r.Traces() {
		if t := r.Total(id); t > 0 {
			s.Add(t)
		}
	}
	return s
}

// StageTime returns the summed span time of stage within container.
func (r *Recorder) StageTime(container int, stage Stage) time.Duration {
	var total time.Duration
	for k := 0; k < r.n; k++ {
		if sp := r.at(k); sp.Parent >= 0 && int(sp.Trace) == container && sp.Name == string(stage) {
			total += sp.Dur()
		}
	}
	return total
}

// ByStage returns, for each stage, the sample of per-container stage times.
func (r *Recorder) ByStage() map[Stage]*stats.Sample {
	perCtr := make(map[Stage]map[int32]time.Duration, len(r.stages))
	for k := 0; k < r.n; k++ {
		sp := r.at(k)
		if sp.Parent < 0 {
			continue
		}
		m := perCtr[Stage(sp.Name)]
		if m == nil {
			m = make(map[int32]time.Duration)
			perCtr[Stage(sp.Name)] = m
		}
		m[sp.Trace] += sp.Dur()
	}
	ids := r.Traces()
	out := make(map[Stage]*stats.Sample, len(perCtr))
	for st, m := range perCtr {
		s := stats.NewSampleCap(len(ids))
		for _, id := range ids {
			s.Add(m[int32(id)]) // containers without the stage contribute 0
		}
		out[st] = s
	}
	return out
}

// VFRelatedTime returns the summed VF-related stage time for container.
func (r *Recorder) VFRelatedTime(container int) time.Duration {
	var total time.Duration
	for k := 0; k < r.n; k++ {
		if sp := r.at(k); sp.Parent >= 0 && int(sp.Trace) == container && Stage(sp.Name).VFRelated() {
			total += sp.Dur()
		}
	}
	return total
}

// VFRelated returns the sample of per-container VF-related stage time over
// the containers Totals covers, in the same order, from one pass.
func (r *Recorder) VFRelated() *stats.Sample {
	per := make([]time.Duration, r.n) // by the container's root span id
	for k := 0; k < r.n; k++ {
		if sp := r.at(k); sp.Parent >= 0 && Stage(sp.Name).VFRelated() {
			per[r.roots[int(sp.Trace)]] += sp.Dur()
		}
	}
	s := stats.NewSample()
	for _, id := range r.Traces() {
		if r.Total(id) > 0 {
			s.Add(per[r.roots[id]])
		}
	}
	return s
}

// StageRow is one row of the Tab. 1 reproduction.
type StageRow struct {
	Stage    Stage
	MeanTime time.Duration
	PropAvg  float64 // proportion in average startup time (%)
	PropP99  float64 // proportion in 99th-percentile startup time (%)
}

// Breakdown reproduces Tab. 1: the proportion each stage contributes to the
// average startup time and to the 99th-percentile startup time. The p99
// column is computed over the containers whose total time is at or above the
// p99 threshold, matching the paper's long-tail framing.
func (r *Recorder) Breakdown(stages []Stage) []StageRow {
	totals := r.Totals()
	meanTotal := totals.Mean()
	p99 := totals.Percentile(99)
	n := time.Duration(totals.N())
	var tail time.Duration
	for _, t := range totals.Values() {
		if t >= p99 {
			tail++
		}
	}

	// One pass sums each stage over completed containers and over the tail.
	sums := make(map[Stage]*[2]time.Duration, len(stages))
	for _, st := range stages {
		sums[st] = new([2]time.Duration)
	}
	for k := 0; k < r.n; k++ {
		sp := r.at(k)
		sum := sums[Stage(sp.Name)]
		if sum == nil || sp.Parent < 0 {
			continue
		}
		if t := r.Total(int(sp.Trace)); t > 0 {
			sum[0] += sp.Dur()
			if t >= p99 {
				sum[1] += sp.Dur()
			}
		}
	}

	rows := make([]StageRow, 0, len(stages))
	for _, st := range stages {
		sumAll, sumTail := sums[st][0], sums[st][1]
		row := StageRow{Stage: st}
		if n > 0 {
			row.MeanTime = sumAll / n
		}
		if meanTotal > 0 && n > 0 {
			row.PropAvg = 100 * float64(sumAll/n) / float64(meanTotal)
		}
		if p99 > 0 && tail > 0 {
			row.PropP99 = 100 * float64(sumTail/tail) / float64(p99)
		}
		rows = append(rows, row)
	}
	return rows
}

// BreakdownTable renders Breakdown as an aligned table (Tab. 1 format).
func (r *Recorder) BreakdownTable(stages []Stage) *stats.Table {
	t := stats.NewTable("Step", "Mean Time", "Prop. Avg (%)", "Prop. P99 (%)")
	var vfAvg, vfP99 float64
	for _, row := range r.Breakdown(stages) {
		t.AddRow(string(row.Stage), row.MeanTime, row.PropAvg, row.PropP99)
		if row.Stage.VFRelated() {
			vfAvg += row.PropAvg
			vfP99 += row.PropP99
		}
	}
	t.AddRow("Total (1,3,4,5)", time.Duration(0), vfAvg, vfP99)
	return t
}

// timelineGlyphs maps stages to the letters used in the ASCII Gantt chart.
var timelineGlyphs = map[Stage]byte{
	StageCgroup:   '0',
	StageDMARAM:   '1',
	StageVirtioFS: '2',
	StageDMAImage: '3',
	StageVFIODev:  '4',
	StageVFDriver: '5',
	StageAddCNI:   '6',
	StageRetry:    '7',
	StageRollback: '8',
	StageOther:    '.',
}

// Timeline renders a Fig. 5-style ASCII Gantt chart: one row per container
// (sampled down to maxRows), columns spanning [0, makespan], each stage
// drawn with its digit. Useful for eyeballing where serialization happens.
func (r *Recorder) Timeline(width, maxRows int) string {
	ids := r.Traces()
	if len(ids) == 0 {
		return "(no containers recorded)\n"
	}
	var makespan time.Duration
	for _, id := range ids {
		if e := r.at(int(r.roots[id])).End; e > makespan {
			makespan = e
		}
	}
	if makespan == 0 {
		return "(no completed containers)\n"
	}
	if width < 20 {
		width = 20
	}
	step := len(ids) / maxRows
	if step < 1 {
		step = 1
	}
	col := func(t time.Duration) int {
		c := int(int64(t) * int64(width) / int64(makespan))
		if c >= width {
			c = width - 1
		}
		return c
	}
	// colEnd is the exclusive column bound of a span end: unclamped, so a
	// span ending at the makespan owns the final column.
	colEnd := func(t time.Duration) int {
		return int(int64(t) * int64(width) / int64(makespan))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d containers, makespan %v, '·'=waiting\n", len(ids), makespan.Round(time.Millisecond))
	for i := 0; i < len(ids); i += step {
		id := ids[i]
		row := make([]byte, width)
		for j := range row {
			row[j] = ' '
		}
		root := r.at(int(r.roots[id]))
		e := root.End
		if e == open {
			e = makespan
		}
		for j := col(root.Start); j <= col(e) && j < width; j++ {
			row[j] = '-'
		}
		for k := 0; k < r.n; k++ {
			sp := r.at(k)
			if int(sp.Trace) != id || sp.Parent < 0 {
				continue
			}
			g, ok := timelineGlyphs[Stage(sp.Name)]
			if !ok {
				g = '?'
			}
			// Half-open drawing: a span owns [col(Start), col(End)), so
			// adjacent stages never clobber each other's closing column
			// regardless of recording order. Sub-column spans keep one
			// glyph so short stages stay visible.
			lo, hi := col(sp.Start), colEnd(sp.End)
			if hi <= lo {
				hi = lo + 1
			}
			for j := lo; j < hi && j < width; j++ {
				row[j] = g
			}
		}
		fmt.Fprintf(&b, "ctr%-4d |%s|\n", id, string(row))
	}
	return b.String()
}
