// Package pagetab provides a chunked sparse page table: an int64→int64
// mapping specialized for the page-number keys used by the simulated KVM
// EPTs and demand-paging slots. (IOMMU domains keep run extents instead:
// a DMA map installs whole host runs at once.)
//
// Those tables are written one entry per faulted page on the
// EPT-violation hot path; with a plain Go map the per-page rehash and
// hashing work dominates both the CPU and allocation profile of a
// 200-container startup run. Page numbers are dense in practice (a guest
// touches consecutive pages), so the table stores values in fixed 128-entry
// chunks addressed by key>>chunkBits and caches the last chunk touched: a
// sequential fill costs one map lookup per 128 pages and one array store
// per page, and memory stays proportional to the number of distinct chunks
// touched even under sparse or large keys (the 4K-page ablation faults 512×
// more pages per guest than the default geometry).
//
// The zero Table is NOT ready for use; call New. A nil *Table behaves like
// a nil map: reads miss, Set panics.
package pagetab

import "sort"

const (
	chunkBits = 7
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// Table maps int64 keys to non-negative int64 values (page numbers and
// host physical addresses). Entries store value+1 internally so the zero
// slot means "absent"; callers never see the bias, and Set panics on
// negative values, which the bias cannot represent (-1 would collide with
// the absent sentinel and silently corrupt the entry count).
type Table struct {
	chunks map[int64][]int64
	n      int

	// One-entry chunk cache: page-table writes are overwhelmingly
	// sequential, so the common case skips the chunk map entirely.
	lastKey int64
	last    []int64
}

// New returns an empty table.
func New() *Table {
	return &Table{chunks: make(map[int64][]int64), lastKey: -1}
}

// chunkFor returns the chunk holding key, creating it when create is set.
func (t *Table) chunkFor(key int64, create bool) []int64 {
	ck := key >> chunkBits
	if t.last != nil && ck == t.lastKey {
		return t.last
	}
	c := t.chunks[ck]
	if c == nil {
		if !create {
			return nil
		}
		c = make([]int64, chunkSize)
		t.chunks[ck] = c
	}
	t.lastKey, t.last = ck, c
	return c
}

// Get returns the value stored at key.
func (t *Table) Get(key int64) (int64, bool) {
	if t == nil {
		return 0, false
	}
	c := t.chunkFor(key, false)
	if c == nil {
		return 0, false
	}
	v := c[key&chunkMask]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// Set stores value at key, inserting or overwriting. value must be
// non-negative.
func (t *Table) Set(key, value int64) {
	if value < 0 {
		panic("pagetab: negative value")
	}
	c := t.chunkFor(key, true)
	if c[key&chunkMask] == 0 {
		t.n++
	}
	c[key&chunkMask] = value + 1
}

// Len returns the number of live entries.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Range calls fn for every live entry in ascending key order. fn must not
// mutate the table.
func (t *Table) Range(fn func(key, value int64)) {
	if t == nil {
		return
	}
	keys := make([]int64, 0, len(t.chunks))
	for ck := range t.chunks {
		keys = append(keys, ck)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, ck := range keys {
		c := t.chunks[ck]
		base := ck << chunkBits
		for i, v := range c {
			if v != 0 {
				fn(base+int64(i), v-1)
			}
		}
	}
}
