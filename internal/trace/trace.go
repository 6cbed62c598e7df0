// Package trace is an event-sourced tracing subsystem for the simulation
// kernel: a probe hook records every scheduler and primitive transition
// (spawn/exit, park/unpark, lock acquire/release, wake-up causality) as a
// flat event stream, and analyses over that stream answer the questions
// per-stage telemetry cannot — which lock a slow container was blocked on
// (contention profile), what its critical path decomposed into
// (service / blocked-on-X / runnable), and what the whole run looked like
// (Chrome trace-event export, loadable in Perfetto).
//
// The stream is stored as bytes, at the cost of its information. Each event
// is one header byte (its kind and which fields follow) plus varints for
// only those fields its own proc's last events do not predict: a sleep
// of the proc's usual length, or a re-acquire of the proc's last lock, is
// the header alone, and a typical event takes about 2 bytes. The bytes
// live in pointer-free chunks, so recording never copies the stream and
// the garbage collector never scans it. One decoder (records) is the only
// reader. Object names are interned into a per-trace table (id 0 is ""),
// which also holds each name pre-quoted for the canonical encoding. Procs
// are stored as dense slots: a traced kernel's proc ids are its slots, and
// FromEvents maps arbitrary ids onto slots in ascending id order. Recording
// keeps per proc only the name, held unformatted (a sim.DecimalName's
// prefix and index) until something prints it, and the encoder's
// prediction context (procCtx); binding container procs reads the prefix
// and index without formatting them. Analyze replays the stream once
// through dense tables indexed by slot and object id, and keeps no
// per-event result (see replay).
//
// Tracing is strictly opt-in: with no probe installed the kernel's
// emission sites cost one nil check each, and traced runs produce
// byte-identical experiment output to untraced runs — traces are carried
// out of band and only join the determinism fingerprint.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"iter"
	"math"
	"slices"
	"strconv"
	"time"

	"fastiov/internal/sim"
)

// Kind mirrors sim.ProbeKind in the recorded stream.
type Kind = sim.ProbeKind

// Re-exported kinds, so analyses and tests need not import sim.
const (
	Spawn   = sim.ProbeSpawn
	Exit    = sim.ProbeExit
	Block   = sim.ProbeBlock
	Unblock = sim.ProbeUnblock
	Acquire = sim.ProbeAcquire
	Release = sim.ProbeRelease
	Wake    = sim.ProbeWake
)

// numClasses bounds sim.WaitClass: the lock table has one slot per
// (object, class) pair.
const numClasses = int(sim.WaitWG) + 1

// Event is one recorded transition. Procs are identified by their stable
// kernel id (spawn order, starting at 1); Waker is 0 when the transition
// has no causal source.
type Event struct {
	At    time.Duration
	Kind  Kind
	Class sim.WaitClass
	Obj   string
	Proc  int
	Waker int
	N     int64
}

// record is the decoded form of one stored event. proc and waker are proc
// slots (slot 0 is id 0, "no proc"); obj indexes the trace's intern table.
type record struct {
	at    int64
	n     int64
	proc  int32
	waker int32
	obj   uint32
	kind  uint8
	class uint8
}

// The stored stream is a sequence of variable-length records, each coded
// against a prediction from the last events of its own proc (procCtx). A
// record starts with a header byte: the kind in the low three bits, then
// one flag per field that differs from its prediction. The fields follow
// in this order, as varints except the one-byte class:
//
//	proc   the proc slot          flagProc: differs from the previous record's
//	at     zigzag delta from the  flagTime: differs from the prediction
//	       previous record's at
//	class  the wait class, then   flagObj: either differs from the prediction
//	obj    the object id
//	waker  the waker slot         flagWaker: non-zero
//	n      zigzag                 flagN: differs from the prediction
//
// The predictions: an unblock is at its proc's open block's at plus the
// proc's last block→unblock length, and every other kind at the previous
// record's at. A block is on (sleep, ""), an unblock on its proc's open
// block, an acquire or release on its proc's last hold, and the rest on
// (none, ""). An acquire or release has its proc's last hold's n (1
// before the first), the rest n 0. The first record follows proc slot 0
// at time 0. Deltas wrap in int64, so any sequence of timestamps, time
// running backwards included, decodes exactly; a record whose prediction
// fails carries its fields, so every stream FromEvents accepts round-trips.
const (
	kindMask  = 0x07
	flagProc  = 0x08
	flagTime  = 0x10
	flagObj   = 0x20
	flagWaker = 0x40
	flagN     = 0x80

	// maxRecord bounds one encoded record: the header, two 64-bit varints
	// (at, n), the class byte and three 32-bit varints.
	maxRecord = 1 + 2*binary.MaxVarintLen64 + 1 + 3*binary.MaxVarintLen32
)

// procCtx is what the encoder and the decoder predict a proc slot's next
// record from: its unmatched block, the length of its last block→unblock
// and its last acquire or release. Both sides update it after every record
// of the proc, so they always agree. The zero value is a fresh proc's.
type procCtx struct {
	openAt    int64 // the open block's at
	dur       int64 // the last block→unblock length
	held      int64 // the last hold's n minus 1, so a fresh proc predicts 1
	openObj   uint32
	holdObj   uint32
	openClass uint8
	holdClass uint8
}

// predict sets r's time, class, object and n to what c predicts for a
// record of r's kind. r.at holds the previous record's at on entry.
func (c *procCtx) predict(r *record) {
	switch Kind(r.kind) {
	case Block:
		r.class, r.obj, r.n = uint8(sim.WaitSleep), 0, 0
	case Unblock:
		r.at, r.class, r.obj, r.n = c.openAt+c.dur, c.openClass, c.openObj, 0
	case Acquire, Release:
		r.class, r.obj, r.n = c.holdClass, c.holdObj, c.held+1
	default:
		r.class, r.obj, r.n = 0, 0, 0
	}
}

// update advances c past its proc's record r.
func (c *procCtx) update(r *record) {
	switch Kind(r.kind) {
	case Block:
		c.openAt, c.openClass, c.openObj = r.at, r.class, r.obj
	case Unblock:
		c.dur = r.at - c.openAt
	case Acquire, Release:
		c.holdClass, c.holdObj, c.held = r.class, r.obj, r.n-1
	}
}

// Stream chunks grow from minChunk bytes, doubling up to maxChunk. A record
// never straddles two chunks, so a chunk's length is exactly its records.
const (
	minChunk = 1 << 10
	maxChunk = 64 << 10
)

// procEntry is one proc slot's name, captured the first time the proc is
// the subject of an event, and the encoder's context for the slot. A
// sim.DecimalName is kept as its prefix and index and formatted only when
// read (ProcName, the Chrome export), so the names of the many procs
// nothing prints cost no string.
type procEntry struct {
	ctx     procCtx
	name    string // the name, or a decimal name's prefix
	idx     int32  // a decimal name's index
	named   bool
	decimal bool
}

// String returns the entry's name.
func (e *procEntry) String() string {
	if !e.decimal {
		return e.name
	}
	return e.name + strconv.Itoa(int(e.idx))
}

// Trace is a recorded event stream plus the proc and object tables.
type Trace struct {
	chunks [][]byte // the encoded records; every chunk but the last is closed
	count  int      // records stored
	last   record   // the previous record

	objs    []string // object id → name; objs[0] == ""
	quoted  []string // object id → strconv.Quote(name)
	objID   map[string]uint32
	lastObj string // one-entry intern cache
	lastID  uint32

	procs  []procEntry // by slot; slot 0 is id 0, "no proc"
	ids    []int32     // slot → proc id; nil when slots are ids
	nslots int         // 1 + highest slot referenced by a record

	err error // first event the records could not hold; Analyze reports it
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{
		objs:   []string{""},
		quoted: []string{`""`},
		objID:  map[string]uint32{"": 0},
		procs:  make([]procEntry, 1),
		nslots: 1,
	}
}

// Attach creates a trace and installs its probe on k. Must be called
// before any simulated work runs so proc names are captured at spawn.
func Attach(k *sim.Kernel) *Trace {
	t := New()
	k.SetProbe(t.observe)
	return t
}

// observe is the kernel probe: it stores the transition as a record,
// interning the object name and using kernel proc ids as slots. It runs
// under the execution baton, so appends are single-threaded and the
// stream order is the deterministic execution order.
func (t *Trace) observe(at sim.Duration, ev sim.ProbeEvent) {
	if t.err != nil {
		return // the stream stops at the first event it could not hold
	}
	r := record{at: int64(at), n: ev.N, kind: uint8(ev.Kind), class: uint8(ev.Class)}
	if ev.Obj != "" {
		r.obj = t.intern(ev.Obj)
	}
	if p := ev.Proc; p != nil {
		id := p.ID()
		if id >= len(t.procs) || !t.procs[id].named {
			if t.name(id, p.LazyName()); t.err != nil {
				return
			}
		}
		r.proc = int32(id)
	}
	if w := ev.Waker; w != nil {
		r.waker = int32(w.ID())
		if int(r.waker) >= t.nslots {
			t.nslots = int(r.waker) + 1
		}
	}
	t.push(&r)
}

// name records the name of a traced kernel's proc the first time it is an
// event's subject. Kernel ids are positive and dense, so they serve as
// slots directly.
func (t *Trace) name(id int, name sim.Name) {
	if id < 0 || id > math.MaxInt32 {
		if t.err == nil {
			t.err = fmt.Errorf("trace: event %d: proc id %d out of range", t.Len(), id)
		}
		return
	}
	for len(t.procs) <= id {
		t.procs = append(t.procs, procEntry{})
	}
	e := &t.procs[id]
	e.named = true
	if prefix, idx, ok := name.Decimal(); ok {
		e.name, e.idx, e.decimal = prefix, int32(idx), true
	} else {
		e.name = name.String()
	}
	if id >= t.nslots {
		t.nslots = id + 1
	}
}

// intern returns obj's id in the object table, adding it on first sight.
func (t *Trace) intern(obj string) uint32 {
	if obj == t.lastObj {
		return t.lastID
	}
	id, ok := t.objID[obj]
	if !ok {
		id = uint32(len(t.objs))
		t.objs = append(t.objs, obj)
		t.quoted = append(t.quoted, strconv.Quote(obj))
		t.objID[obj] = id
	}
	t.lastObj, t.lastID = obj, id
	return id
}

// push encodes one record at the end of the stream, starting a new chunk
// when the last one might not hold it.
func (t *Trace) push(r *record) {
	n := len(t.chunks)
	if n == 0 || cap(t.chunks[n-1])-len(t.chunks[n-1]) < maxRecord {
		size := minChunk
		if n > 0 {
			size = min(2*cap(t.chunks[n-1]), maxChunk)
		}
		t.chunks = append(t.chunks, make([]byte, 0, size))
		n++
	}
	c := &t.procs[r.proc].ctx
	e := record{at: t.last.at, kind: r.kind}
	c.predict(&e)
	b := t.chunks[n-1]
	h := len(b)
	b = append(b, r.kind)
	if r.proc != t.last.proc {
		b[h] |= flagProc
		b = binary.AppendUvarint(b, uint64(uint32(r.proc)))
	}
	if r.at != e.at {
		b[h] |= flagTime
		b = binary.AppendVarint(b, r.at-t.last.at)
	}
	if r.class != e.class || r.obj != e.obj {
		b[h] |= flagObj
		b = append(b, r.class)
		b = binary.AppendUvarint(b, uint64(r.obj))
	}
	if r.waker != 0 {
		b[h] |= flagWaker
		b = binary.AppendUvarint(b, uint64(uint32(r.waker)))
	}
	if r.n != e.n {
		b[h] |= flagN
		b = binary.AppendVarint(b, r.n)
	}
	t.chunks[n-1] = b
	c.update(r)
	t.last = *r
	t.count++
}

// records returns the stream's only reader: it decodes the records in
// recorded order, keeping its own context per proc slot. The yielded
// record is reused by the next step, so a caller must copy what it keeps.
func (t *Trace) records() iter.Seq[*record] {
	return func(yield func(*record) bool) {
		ctx := make([]procCtx, t.nslots)
		var r record
		var v uint64
		for _, c := range t.chunks {
			for i := 0; i < len(c); {
				h := c[i]
				i++
				r.kind = h & kindMask
				if h&flagProc != 0 {
					v, i = uvarint(c, i)
					r.proc = int32(v)
				}
				x := &ctx[r.proc]
				prev := r.at
				x.predict(&r)
				if h&flagTime != 0 {
					v, i = uvarint(c, i)
					r.at = prev + unzigzag(v)
				}
				if h&flagObj != 0 {
					r.class = c[i]
					v, i = uvarint(c, i+1)
					r.obj = uint32(v)
				}
				r.waker = 0
				if h&flagWaker != 0 {
					v, i = uvarint(c, i)
					r.waker = int32(v)
				}
				if h&flagN != 0 {
					v, i = uvarint(c, i)
					r.n = unzigzag(v)
				}
				x.update(&r)
				if !yield(&r) {
					return
				}
			}
		}
	}
}

// uvarint decodes the unsigned varint at b[i:] and returns it with the
// index after it. The stream is the encoder's own, so there is no
// overflow check, and the loop is small enough to inline.
func uvarint(b []byte, i int) (v uint64, next int) {
	for s := uint(0); ; s += 7 {
		x := b[i]
		i++
		v |= uint64(x&0x7f) << s
		if x < 0x80 {
			return v, i
		}
	}
}

// unzigzag inverts binary.AppendVarint's zigzag mapping.
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// Bytes returns the encoded stream's length in bytes.
func (t *Trace) Bytes() int {
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	return n
}

// FromEvents builds a trace from a raw stream (tests and fuzzing). names
// may be nil. Proc ids may be any value in [0, math.MaxInt32]; a stream
// with an id outside that range, or an unknown kind or wait class, is
// stored up to the offending event, and Analyze reports it as an error.
func FromEvents(events []Event, names map[int]string) *Trace {
	t := New()
	seen := map[int]bool{0: true}
	for id := range names {
		if id < 0 || id > math.MaxInt32 {
			t.err = fmt.Errorf("trace: proc name id %d out of range", id)
			return t
		}
		seen[id] = true
	}
	valid := len(events)
	for i, e := range events {
		if t.err = checkEvent(i, e); t.err != nil {
			valid = i
			break
		}
		seen[e.Proc], seen[e.Waker] = true, true
	}

	t.ids = make([]int32, 0, len(seen))
	for id := range seen {
		t.ids = append(t.ids, int32(id))
	}
	slices.Sort(t.ids)
	t.procs = make([]procEntry, len(t.ids))
	t.nslots = len(t.ids)
	for id, name := range names {
		t.procs[t.slotOf(id)] = procEntry{name: name, named: true}
	}
	for _, e := range events[:valid] {
		t.push(&record{
			at: int64(e.At), n: e.N, kind: uint8(e.Kind), class: uint8(e.Class),
			obj: t.intern(e.Obj), proc: int32(t.slotOf(e.Proc)), waker: int32(t.slotOf(e.Waker)),
		})
	}
	return t
}

// checkEvent rejects an event a record cannot hold.
func checkEvent(i int, e Event) error {
	switch {
	case e.Proc < 0 || e.Proc > math.MaxInt32:
		return fmt.Errorf("trace: event %d: proc id %d out of range", i, e.Proc)
	case e.Waker < 0 || e.Waker > math.MaxInt32:
		return fmt.Errorf("trace: event %d: waker id %d out of range", i, e.Waker)
	case e.Kind > Wake:
		return fmt.Errorf("trace: event %d: unknown kind %d", i, e.Kind)
	case int(e.Class) >= numClasses:
		return fmt.Errorf("trace: event %d: unknown wait class %d", i, e.Class)
	}
	return nil
}

// slotOf returns the slot of proc id, or -1 if the trace has none.
func (t *Trace) slotOf(id int) int {
	if t.ids == nil {
		if id < 0 || id >= t.nslots {
			return -1
		}
		return id
	}
	if id < 0 || id > math.MaxInt32 {
		return -1
	}
	s, ok := slices.BinarySearch(t.ids, int32(id))
	if !ok {
		return -1
	}
	return s
}

// procID returns the proc id stored in slot s.
func (t *Trace) procID(s int32) int {
	if t.ids == nil {
		return int(s)
	}
	return int(t.ids[s])
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return t.count }

// ProcName returns the recorded name of proc id ("proc-<id>" if unseen).
func (t *Trace) ProcName(id int) string {
	if s := t.slotOf(id); s >= 0 && s < len(t.procs) && t.procs[s].named {
		return t.procs[s].String()
	}
	return "proc-" + strconv.Itoa(id)
}

// appendLine appends r's canonical line:
//
//	<at> <kind> <class> <quoted obj> p<proc> w<waker> n<n>
func (t *Trace) appendLine(b []byte, r *record) []byte {
	b = strconv.AppendInt(b, r.at, 10)
	b = append(b, ' ')
	b = append(b, Kind(r.kind).String()...)
	b = append(b, ' ')
	b = append(b, sim.WaitClass(r.class).String()...)
	b = append(b, ' ')
	b = append(b, t.quoted[r.obj]...)
	b = append(b, " p"...)
	b = strconv.AppendInt(b, int64(t.procID(r.proc)), 10)
	b = append(b, " w"...)
	b = strconv.AppendInt(b, int64(t.procID(r.waker)), 10)
	b = append(b, " n"...)
	b = strconv.AppendInt(b, r.n, 10)
	return append(b, '\n')
}

// AppendCanonical appends a canonical byte encoding of the stream to b: one
// line per event in recorded order. Two runs of the same seeded simulation
// must produce identical bytes.
func (t *Trace) AppendCanonical(b []byte) []byte {
	for r := range t.records() {
		b = t.appendLine(b, r)
	}
	return b
}

// Fingerprint hashes the canonical encoding (FNV-1a). Determinism
// verification folds this into the run fingerprint instead of the full
// stream, which for a 200-container run is tens of megabytes.
func (t *Trace) Fingerprint() uint64 {
	const flush = 16 << 10
	h := fnv.New64a()
	buf := make([]byte, 0, flush+256)
	for r := range t.records() {
		buf = t.appendLine(buf, r)
		if len(buf) >= flush {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return h.Sum64()
}
