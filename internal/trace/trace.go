// Package trace is an event-sourced tracing subsystem for the simulation
// kernel: a probe hook records every scheduler and primitive transition
// (spawn/exit, park/unpark, lock acquire/release, wake-up causality) as a
// flat event stream, and analyses over that stream answer the questions
// per-stage telemetry cannot — which lock a slow container was blocked on
// (contention profile), what its critical path decomposed into
// (service / blocked-on-X / runnable), and what the whole run looked like
// (Chrome trace-event export, loadable in Perfetto).
//
// The stream is stored compactly. Each event is a fixed-size, pointer-free
// 32-byte record kept in fixed-size chunks, so recording never copies the
// stream and the garbage collector never scans it. Object names are
// interned into a per-trace table (id 0 is ""), which also holds each
// name pre-quoted for the canonical encoding. Procs are stored as dense
// slots: a traced kernel's proc ids are its slots, and FromEvents maps
// arbitrary ids onto slots in ascending id order. Analyze replays the
// chunks through dense tables indexed by slot and object id.
//
// Tracing is strictly opt-in: with no probe installed the kernel's
// emission sites cost one nil check each, and traced runs produce
// byte-identical experiment output to untraced runs — traces are carried
// out of band and only join the determinism fingerprint.
package trace

import (
	"fmt"
	"hash/fnv"
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

// record is the stored form of an Event: pointer-free and 32 bytes. proc
// and waker are proc slots (slot 0 is id 0, "no proc"); obj indexes the
// trace's intern table.
type record struct {
	at    int64
	n     int64
	proc  int32
	waker int32
	obj   uint32
	kind  uint8
	class uint8
}

// chunkLen is the number of records per storage chunk (128 KiB).
const chunkLen = 4096

type chunk [chunkLen]record

// procEntry is one proc slot's name, captured the first time the proc is
// the subject of an event.
type procEntry struct {
	name  string
	named bool
}

// Trace is a recorded event stream plus the proc and object tables.
type Trace struct {
	chunks []*chunk
	tail   int // records used in the last chunk

	objs    []string // object id → name; objs[0] == ""
	quoted  []string // object id → strconv.Quote(name)
	objID   map[string]uint32
	lastObj string // one-entry intern cache
	lastID  uint32

	procs  []procEntry // by slot
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
	r := record{at: int64(at), n: ev.N, kind: uint8(ev.Kind), class: uint8(ev.Class)}
	if ev.Obj != "" {
		r.obj = t.intern(ev.Obj)
	}
	if p := ev.Proc; p != nil {
		id := p.ID()
		if id >= len(t.procs) || !t.procs[id].named {
			t.name(id, p.Name())
		}
		r.proc = int32(id)
	}
	if w := ev.Waker; w != nil {
		r.waker = int32(w.ID())
		if int(r.waker) >= t.nslots {
			t.nslots = int(r.waker) + 1
		}
	}
	t.push(r)
}

// name records the name of a traced kernel's proc the first time it is an
// event's subject. Kernel ids are positive and dense, so they serve as
// slots directly.
func (t *Trace) name(id int, name string) {
	if id < 0 || id > math.MaxInt32 {
		if t.err == nil {
			t.err = fmt.Errorf("trace: event %d: proc id %d out of range", t.Len(), id)
		}
		return
	}
	for len(t.procs) <= id {
		t.procs = append(t.procs, procEntry{})
	}
	t.procs[id] = procEntry{name: name, named: true}
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

// push appends one record, starting a new chunk when the last is full.
func (t *Trace) push(r record) {
	if len(t.chunks) == 0 || t.tail == chunkLen {
		t.chunks = append(t.chunks, new(chunk))
		t.tail = 0
	}
	t.chunks[len(t.chunks)-1][t.tail] = r
	t.tail++
}

// chunk returns the filled part of chunk ci.
func (t *Trace) chunk(ci int) []record {
	if ci == len(t.chunks)-1 {
		return t.chunks[ci][:t.tail]
	}
	return t.chunks[ci][:]
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
		t.push(record{
			at: int64(e.At), n: e.N, kind: uint8(e.Kind), class: uint8(e.Class),
			obj: t.intern(e.Obj), proc: int32(t.slotOf(e.Proc)), waker: int32(t.slotOf(e.Waker)),
		})
	}
	return t
}

// checkEvent rejects an event the compact record cannot hold.
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
func (t *Trace) Len() int {
	if len(t.chunks) == 0 {
		return 0
	}
	return (len(t.chunks)-1)*chunkLen + t.tail
}

// ProcName returns the recorded name of proc id ("proc-<id>" if unseen).
func (t *Trace) ProcName(id int) string {
	if s := t.slotOf(id); s >= 0 && s < len(t.procs) && t.procs[s].named {
		return t.procs[s].name
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
	for ci := range t.chunks {
		for i := range t.chunk(ci) {
			b = t.appendLine(b, &t.chunks[ci][i])
		}
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
	for ci := range t.chunks {
		for i := range t.chunk(ci) {
			buf = t.appendLine(buf, &t.chunks[ci][i])
			if len(buf) >= flush {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return h.Sum64()
}
