package pagetab

// Differential coverage against the reference the table replaced: a plain
// Go map[int64]int64 restricted to the table's non-negative value domain.
// Every operation sequence — including value 0 (the internal +1 bias must
// stay invisible), overwrites, and keys spanning many chunks — must behave
// identically. The negative-value rejection is
// pinned separately: -1 would collide with the bias's absent sentinel, a
// corruption this differential test originally caught.

import (
	"fmt"
	"sort"
	"testing"
)

// drive applies an op stream to a Table and a map and cross-checks every
// result. Keys concentrate on a few chunks so the last-chunk cache and
// chunk boundaries both get exercised.
func drive(t *testing.T, ops []byte) {
	t.Helper()
	tab := new(Table)
	ref := map[int64]int64{}
	key := func(b byte) int64 { return int64(b)*37 - 500 } // spans negative-adjacent chunks? keys stay >= -500
	for i := 0; i+1 < len(ops); i += 2 {
		k := key(ops[i+1])
		if k < 0 {
			k = -k
		}
		switch ops[i] % 2 {
		case 0: // Set, including value 0
			v := int64(ops[i+1])
			tab.Set(k, v)
			ref[k] = v
		case 1: // Get
			v, ok := tab.Get(k)
			rv, rok := ref[k]
			if ok != rok || v != rv {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i, k, v, ok, rv, rok)
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len() = %d, want %d", i, tab.Len(), len(ref))
		}
	}
	// Full contents via Range: ascending keys, exact values.
	var keys []int64
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	i := 0
	tab.Range(func(k, v int64) {
		if i >= len(keys) {
			t.Fatalf("Range: extra entry (%d,%d)", k, v)
		}
		if k != keys[i] || v != ref[k] {
			t.Fatalf("Range entry %d: got (%d,%d), want (%d,%d)", i, k, v, keys[i], ref[keys[i]])
		}
		i++
	})
	if i != len(keys) {
		t.Fatalf("Range visited %d entries, want %d", i, len(keys))
	}
}

func TestTableMatchesMapModel(t *testing.T) {
	// Deterministic xorshift op streams, no PRNG dependency on internal/sim.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() byte {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return byte(state * 0x2545F4914F6CDD1D)
	}
	for trial := 0; trial < 10; trial++ {
		ops := make([]byte, 4096)
		for i := range ops {
			ops[i] = next()
		}
		drive(t, ops)
	}
}

func TestNilTableBehavesLikeNilMap(t *testing.T) {
	var tab *Table
	if v, ok := tab.Get(5); ok || v != 0 {
		t.Fatalf("nil Get = (%d,%v), want (0,false)", v, ok)
	}
	if tab.Len() != 0 {
		t.Fatalf("nil Len = %d", tab.Len())
	}
	tab.Range(func(k, v int64) { t.Fatal("nil Range visited an entry") })
	defer func() {
		if recover() == nil {
			t.Fatal("nil Set did not panic (nil map writes must panic)")
		}
	}()
	tab.Set(1, 1)
}

func TestSequentialFillSpansChunks(t *testing.T) {
	tab := new(Table)
	const n = 10 * chunkSize // many chunk transitions through the cache
	for i := int64(0); i < n; i++ {
		tab.Set(i, i*3)
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	var visited int64
	tab.Range(func(k, v int64) {
		if k != visited || v != k*3 {
			t.Fatalf("Range: got (%d,%d), want (%d,%d)", k, v, visited, visited*3)
		}
		visited++
	})
	if visited != n {
		t.Fatalf("Range visited %d, want %d", visited, n)
	}
	// Value 0 round-trips through the +1 bias.
	tab.Set(3, 0)
	if v, ok := tab.Get(3); !ok || v != 0 {
		t.Fatalf("Get(3) = (%d,%v), want (0,true)", v, ok)
	}
}

func TestNegativeValueRejected(t *testing.T) {
	// -1 is the dangerous case: biased it equals the absent sentinel, so
	// accepting it would store an entry that reads as missing while still
	// counting in Len.
	tab := new(Table)
	defer func() {
		if recover() == nil {
			t.Fatal("Set(k, -1) did not panic")
		}
	}()
	tab.Set(1, -1)
}

func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 2, 1, 3, 1})
	f.Add([]byte{1, 200, 1, 200, 2, 200, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		drive(t, ops)
	})
}

func TestSizedTableGrowsPastItsRange(t *testing.T) {
	tab := Sized(chunkSize + 1) // a directory of two chunks
	if _, ok := tab.Get(0); ok {
		t.Fatal("Get on an empty sized table hit")
	}
	keys := []int64{5, chunkSize, 7 * chunkSize, 3}
	for i, k := range keys {
		tab.Set(k, int64(i))
	}
	if tab.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(keys))
	}
	for i, k := range keys {
		if v, ok := tab.Get(k); !ok || v != int64(i) {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, v, ok, i)
		}
	}
	if _, ok := tab.Get(8 * chunkSize); ok {
		t.Fatal("Get past the directory hit")
	}
	var got []int64
	tab.Range(func(k, _ int64) { got = append(got, k) })
	if fmt.Sprint(got) != fmt.Sprint([]int64{3, 5, chunkSize, 7 * chunkSize}) {
		t.Fatalf("Range keys %v, want ascending", got)
	}
}
