package pagetab

// Differential coverage against a per-page reference: a plain Go
// map[int64]int64 restricted to the table's non-negative domain. Every
// operation sequence — single-page sets including value 0, overwrites,
// ranged inserts and deletes at arbitrary offsets that trim, split, join
// and merge runs — must leave the table holding exactly the reference's
// pages, with no two mergeable neighbours. The negative-value rejection is
// pinned separately.

import (
	"fmt"
	"testing"
)

// window bounds the keys drive touches; every op is checked over it.
const window = 96

// drive applies an op stream to a Table and a map and cross-checks the
// table against the map after every op. Values are drawn from a few
// diagonals (val = key + c), so neighbouring inserts often continue each
// other and must merge.
func drive(t *testing.T, ops []byte) {
	t.Helper()
	tab := new(Table)
	ref := map[int64]int64{}
	pos := 0
	next := func() int64 {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return int64(ops[pos-1])
	}
	for op := 0; pos < len(ops); op++ {
		code := next() % 4
		k := next() % window
		var what string
		switch code {
		case 0: // Set, including value 0
			v := next() % 3 * 50
			if v > 0 {
				v += k
			}
			what = fmt.Sprintf("Set(%d, %d)", k, v)
			tab.Set(k, v)
			ref[k] = v
		case 1: // ranged insert, overwriting
			v, n := k+next()%3*50, next()%12
			what = fmt.Sprintf("Insert(%d, %d, %d)", k, v, n)
			tab.Insert(k, v, n)
			for i := int64(0); i < n; i++ {
				ref[k+i] = v + i
			}
		case 2: // ranged delete
			n := next() % 24
			what = fmt.Sprintf("Delete(%d, %d)", k, n)
			removed := tab.Delete(k, n)
			for i := int64(0); i < n; i++ {
				if _, ok := ref[k+i]; ok {
					removed--
				}
				delete(ref, k+i)
			}
			if removed != 0 {
				t.Fatalf("op %d %s: removed count off by %d", op, what, removed)
			}
		case 3: // Get at a random key, moving the cursor
			what = fmt.Sprintf("Get(%d)", k)
			v, ok := tab.Get(k)
			if rv, rok := ref[k]; ok != rok || v != rv {
				t.Fatalf("op %d %s = (%d,%v), want (%d,%v)", op, what, v, ok, rv, rok)
			}
		}
		if err := tab.Check(); err != nil {
			t.Fatalf("op %d %s: %v (runs %v)", op, what, err, tab.Runs())
		}
		if tab.Len() != int64(len(ref)) {
			t.Fatalf("op %d %s: Len() = %d, want %d", op, what, tab.Len(), len(ref))
		}
		for key := int64(0); key < 2*window; key++ {
			v, ok := tab.Get(key)
			if rv, rok := ref[key]; ok != rok || v != rv {
				t.Fatalf("op %d %s: Get(%d) = (%d,%v), want (%d,%v); runs %v", op, what, key, v, ok, rv, rok, tab.Runs())
			}
		}
	}
	// Runs expand to exactly the reference's pages.
	n := 0
	for _, r := range tab.Runs() {
		for i := int64(0); i < r.N; i++ {
			if v, ok := ref[r.Key+i]; !ok || v != r.Val+i {
				t.Fatalf("run %v holds (%d,%d); reference (%d,%v)", r, r.Key+i, r.Val+i, v, ok)
			}
			n++
		}
	}
	if n != len(ref) {
		t.Fatalf("runs hold %d pages, reference %d", n, len(ref))
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

func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 2, 1, 3, 1})
	f.Add([]byte{1, 200, 1, 200, 2, 200, 0, 0})
	// Insert two runs that a third joins, then split the joined run.
	f.Add([]byte{1, 10, 0, 4, 1, 20, 0, 4, 1, 14, 0, 6, 2, 12, 3, 3, 12})
	f.Fuzz(func(t *testing.T, ops []byte) {
		drive(t, ops)
	})
}

func TestNilTableBehavesLikeNilMap(t *testing.T) {
	var tab *Table
	if v, ok := tab.Get(5); ok || v != 0 {
		t.Fatalf("nil Get = (%d,%v), want (0,false)", v, ok)
	}
	if tab.Len() != 0 || tab.Runs() != nil || tab.Check() != nil {
		t.Fatalf("nil table: Len %d, runs %v, Check %v", tab.Len(), tab.Runs(), tab.Check())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil Set did not panic (nil map writes must panic)")
		}
	}()
	tab.Set(1, 1)
}

// Pages set in key order merge into one run exactly when their values
// continue each other, and the cursor serves every page of a run.
func TestSequentialFillMergesRuns(t *testing.T) {
	tab := new(Table)
	const n = 1000
	for i := int64(0); i < n; i++ {
		tab.Set(i, i*3) // values skip: one run per page
	}
	for i := int64(n); i < 2*n; i++ {
		tab.Set(i, 5000+i) // values continue: one run
	}
	if tab.Len() != 2*n || len(tab.Runs()) != n+1 {
		t.Fatalf("Len = %d, %d runs; want %d, %d", tab.Len(), len(tab.Runs()), 2*n, n+1)
	}
	for i := int64(0); i < 2*n; i++ {
		want := i * 3
		if i >= n {
			want = 5000 + i
		}
		if v, ok := tab.Get(i); !ok || v != want {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", i, v, ok, want)
		}
	}
	// Value 0 round-trips, and overwriting a page keeps the runs canonical.
	tab.Set(3, 0)
	if v, ok := tab.Get(3); !ok || v != 0 {
		t.Fatalf("Get(3) = (%d,%v), want (0,true)", v, ok)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeValueRejected(t *testing.T) {
	// Page numbers are never negative; a negative value is a caller bug.
	tab := new(Table)
	defer func() {
		if recover() == nil {
			t.Fatal("Set(k, -1) did not panic")
		}
	}()
	tab.Set(1, -1)
}

// A table made With a buffer keeps its runs there until they outgrow it,
// then moves them to the heap intact.
func TestWithGrowsPastItsBuffer(t *testing.T) {
	var buf [2]Run
	tab := With(buf[:])
	tab.Insert(10, 100, 4)
	tab.Insert(0, 50, 2)
	if &tab.Runs()[0] != &buf[0] || buf[0] != (Run{0, 50, 2}) || buf[1] != (Run{10, 100, 4}) {
		t.Fatalf("runs %v not kept in the buffer %v", tab.Runs(), buf)
	}
	tab.Insert(20, 0, 1)
	tab.Insert(14, 104, 6) // continues the run at 10, not the one at 20
	want := []Run{{0, 50, 2}, {10, 100, 10}, {20, 0, 1}}
	if fmt.Sprint(tab.Runs()) != fmt.Sprint(want) || tab.Len() != 13 {
		t.Fatalf("runs %v (Len %d), want %v (13)", tab.Runs(), tab.Len(), want)
	}
	if &tab.Runs()[0] == &buf[0] {
		t.Fatal("three runs still in a two-run buffer")
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
}

// Inserting the gap between two runs that both continue it joins all three
// into one run; deleting from the middle splits it again.
func TestInsertJoinsAndDeleteSplits(t *testing.T) {
	tab := new(Table)
	tab.Insert(0, 100, 4)
	tab.Insert(8, 108, 4)
	tab.Insert(4, 104, 4)
	if fmt.Sprint(tab.Runs()) != fmt.Sprint([]Run{{0, 100, 12}}) {
		t.Fatalf("runs %v, want one joined run", tab.Runs())
	}
	tab.Delete(5, 2)
	if fmt.Sprint(tab.Runs()) != fmt.Sprint([]Run{{0, 100, 5}, {7, 107, 5}}) || tab.Len() != 10 {
		t.Fatalf("runs %v (Len %d) after splitting delete", tab.Runs(), tab.Len())
	}
	if r, ok := tab.Next(5); !ok || r != (Run{7, 107, 5}) {
		t.Fatalf("Next(5) = %v, %v", r, ok)
	}
}
