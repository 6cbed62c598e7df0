// Package pagetab provides the simulator's one page map: a run-length
// table from key pages to value pages. It holds a KVM memory slot's slot
// page → HPA page map (the backing runs of a backed slot, the pages demand
// paging allocated for a demand slot) and an IOMMU domain's IOVA page →
// HPA page translations.
//
// The table is a sorted list of disjoint runs, each mapping n consecutive
// keys to n consecutive values. A run merges with a neighbour whose keys
// and values both continue it, so memory follows the HPA-contiguous ranges
// a map holds, not its pages or the pieces it was built from: a 4 KiB
// guest region cut into 16-page pieces, or a demand slot faulted in page by
// page from consecutive host pages, is one run. Get checks the run of the
// previous Get before it binary-searches, so sequential lookups cost O(1).
//
// With lends a table caller-owned storage for its first runs, so a map of
// a few runs held inside its owner (a slot's one run, a domain's three)
// allocates nothing. The zero Table is empty and ready for use; a nil
// *Table behaves like a nil map: reads miss, writes panic.
package pagetab

import (
	"fmt"
	"slices"
	"sort"
)

// minHeap is the fewest runs a table's heap storage holds. A demand slot
// faulted in by guests that interleave on the zone lock holds about a run
// per touched page (17 to 32 runs in 380 of the 600 demand slots of a
// no-net run at c=200): doubling from one run would reallocate five times.
const minHeap = 16

// Run maps the N keys from Key on to the N values from Val on.
type Run struct{ Key, Val, N int64 }

// End returns the first key after r.
func (r Run) End() int64 { return r.Key + r.N }

// from returns the part of r from key on.
func (r Run) from(key int64) Run { return Run{key, r.Val + key - r.Key, r.End() - key} }

// Table maps non-negative int64 keys to non-negative int64 values (page
// numbers).
type Table struct {
	runs []Run // sorted by Key, disjoint, no two mergeable neighbours
	last int   // the run the previous Get hit
}

// With returns an empty table that keeps its runs in buf's storage until
// they outgrow it.
func With(buf []Run) Table { return Table{runs: buf[:0]} }

// at returns the index of the first run ending after key.
func (t *Table) at(key int64) int {
	return sort.Search(len(t.runs), func(x int) bool { return t.runs[x].End() > key })
}

// Get returns the value stored at key.
func (t *Table) Get(key int64) (int64, bool) {
	if t == nil {
		return 0, false
	}
	x := t.last
	if x >= len(t.runs) || key < t.runs[x].Key || key >= t.runs[x].End() {
		if x = t.at(key); x == len(t.runs) || t.runs[x].Key > key {
			return 0, false
		}
		t.last = x
	}
	return t.runs[x].Val + key - t.runs[x].Key, true
}

// Next returns the first run holding a key at or after key.
func (t *Table) Next(key int64) (Run, bool) {
	x := t.at(key)
	if x == len(t.runs) {
		return Run{}, false
	}
	return t.runs[x], true
}

// Set stores value at key, inserting or overwriting.
func (t *Table) Set(key, value int64) { t.Insert(key, value, 1) }

// Insert maps the n keys from key on to the n values from val on,
// replacing whatever those keys held. key and val must be non-negative; an
// n below 1 inserts nothing.
func (t *Table) Insert(key, val, n int64) {
	if n <= 0 {
		return
	}
	if val < 0 {
		panic("pagetab: negative value")
	}
	if key < 0 {
		panic("pagetab: negative key")
	}
	x := len(t.runs)
	if x > 0 && t.runs[x-1].End() > key { // not an append
		t.Delete(key, n)
		x = t.at(key)
	}
	end := key + n
	left := x > 0 && t.runs[x-1].End() == key && t.runs[x-1].Val+t.runs[x-1].N == val
	right := x < len(t.runs) && t.runs[x].Key == end && t.runs[x].Val == val+n
	switch {
	case left && right:
		t.runs[x-1].N += n + t.runs[x].N
		t.runs = slices.Delete(t.runs, x, x+1)
	case left:
		t.runs[x-1].N += n
	case right:
		t.runs[x] = Run{key, val, n + t.runs[x].N}
	default:
		t.insertAt(x, Run{key, val, n})
	}
}

// insertAt inserts r before run x. Full storage moves to the heap with
// room for at least minHeap runs, and doubles after that.
func (t *Table) insertAt(x int, r Run) {
	if len(t.runs) == cap(t.runs) {
		t.runs = append(make([]Run, 0, max(2*cap(t.runs), minHeap)), t.runs...)
	}
	t.runs = t.runs[:len(t.runs)+1]
	copy(t.runs[x+1:], t.runs[x:])
	t.runs[x] = r
}

// Delete removes the n keys from key on, trimming the runs that straddle
// either end of the range and splitting one that covers it. It returns the
// number of keys it removed.
func (t *Table) Delete(key, n int64) (removed int64) {
	if n <= 0 {
		return 0
	}
	end := key + n
	// Runs [x, y) end inside the range; the head of x and the tail of y
	// may survive.
	x, y := t.at(key), t.at(end)
	if x < len(t.runs) && t.runs[x].Key < key {
		r := t.runs[x]
		t.runs[x].N = key - r.Key
		if r.End() > end { // the range splits r
			t.insertAt(x+1, r.from(end))
			return n
		}
		removed += r.End() - key
		x++
	}
	if y < len(t.runs) && t.runs[y].Key < end {
		removed += end - t.runs[y].Key
		t.runs[y] = t.runs[y].from(end)
	}
	for _, r := range t.runs[x:y] {
		removed += r.N
	}
	t.runs = slices.Delete(t.runs, x, y)
	return removed
}

// Len returns the number of keys held, summing the runs.
func (t *Table) Len() int64 {
	var n int64
	for _, r := range t.Runs() {
		n += r.N
	}
	return n
}

// Runs returns the runs in ascending key order. The slice is the table's
// own and must not be modified.
func (t *Table) Runs() []Run {
	if t == nil {
		return nil
	}
	return t.runs
}

// Check reports the first broken invariant: every run holds at least one
// key, runs are sorted and disjoint, and no run continues its left
// neighbour in both key and value.
func (t *Table) Check() error {
	for x, r := range t.Runs() {
		if r.N <= 0 {
			return fmt.Errorf("pagetab: empty run %v", r)
		}
		if p := t.runs[max(x-1, 0)]; x > 0 && (p.End() > r.Key || p.End() == r.Key && p.Val+p.N == r.Val) {
			return fmt.Errorf("pagetab: runs %v and %v overlap, are unsorted or are not merged", p, r)
		}
	}
	return nil
}
