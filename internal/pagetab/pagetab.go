// Package pagetab provides a chunked sparse page table: an int64→int64
// mapping specialized for the page-number keys of the simulated KVM's
// demand-paging slots (slot page → demand-allocated HPA page). The EPT
// itself keeps one present bit per slot page instead, since a slot already
// fixes each page's HPA; IOMMU domains keep run extents, since a DMA map
// installs whole host runs at once.
//
// A demand slot's table is written one entry per faulted page on the
// EPT-violation hot path, so it must not hash. Page numbers are dense (a
// slot's pages are [0, pages)), so the table stores values in fixed
// 128-entry chunks found through a dense chunk directory indexed by
// key>>chunkBits, as hostmem keeps its content state: a lookup is two
// array loads and a chunk is allocated when one of its keys is first set,
// so chunk memory stays proportional to the chunks touched (the 4K-page
// ablation faults 512× more pages per guest than the default geometry).
// The directory itself is allocated at the first Set, sized for the key
// range the table was made for, and a larger key grows it: it holds one
// pointer per 128 keys up to the largest key set. Keys must therefore be
// dense, within the sized range or small; one large sparse key (say 1<<40)
// would allocate a directory for every key below it.
//
// The zero Table is empty and ready for use. A nil *Table behaves like a
// nil map: reads miss, Set panics.
package pagetab

const (
	chunkBits = 7
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// Table maps non-negative int64 keys to non-negative int64 values (page
// numbers and host physical addresses). Entries store value+1 internally so
// the zero slot means "absent"; callers never see the bias, and Set panics
// on negative values, which the bias cannot represent (-1 would collide
// with the absent sentinel and silently corrupt the entry count).
type Table struct {
	dir  []*chunk // dir[key>>chunkBits]; nil where no key was set
	keys int64    // the key range [0, keys) the directory is sized for
	n    int
}

type chunk [chunkSize]int64

// Sized returns an empty table for keys in [0, keys).
func Sized(keys int64) Table { return Table{keys: keys} }

// Get returns the value stored at key.
func (t *Table) Get(key int64) (int64, bool) {
	if t == nil || key < 0 || key>>chunkBits >= int64(len(t.dir)) {
		return 0, false
	}
	c := t.dir[key>>chunkBits]
	if c == nil || c[key&chunkMask] == 0 {
		return 0, false
	}
	return c[key&chunkMask] - 1, true
}

// Set stores value at key, inserting or overwriting. key and value must be
// non-negative.
func (t *Table) Set(key, value int64) {
	if value < 0 {
		panic("pagetab: negative value")
	}
	if key < 0 {
		panic("pagetab: negative key")
	}
	ck := key >> chunkBits
	if ck >= int64(len(t.dir)) {
		n := max(ck+1, (t.keys+chunkMask)>>chunkBits)
		t.dir = append(t.dir, make([]*chunk, n-int64(len(t.dir)))...)
	}
	c := t.dir[ck]
	if c == nil {
		c = new(chunk)
		t.dir[ck] = c
	}
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
	for ck, c := range t.dir {
		if c == nil {
			continue
		}
		base := int64(ck) << chunkBits
		for i, v := range c {
			if v != 0 {
				fn(base+int64(i), v-1)
			}
		}
	}
}
