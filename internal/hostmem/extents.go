package hostmem

import (
	"slices"
	"sort"
)

// extent is the page range [start, end).
type extent struct{ start, end int64 }

// pinSeg is the page range [start, end) with pin refcount n > 0.
type pinSeg struct {
	start, end int64
	n          int32
}

// freeAt returns the index of the first free extent ending after page.
func (a *Allocator) freeAt(page int64) int {
	return sort.Search(len(a.free), func(x int) bool { return a.free[x].end > page })
}

// isFree reports whether page is on the free list.
func (a *Allocator) isFree(page int64) bool {
	x := a.freeAt(page)
	return x < len(a.free) && a.free[x].start <= page
}

// takeFree removes [start, end), which must lie inside free extent x, from
// the free list. It returns the index of the first extent ending after end.
func (a *Allocator) takeFree(x int, start, end int64) int {
	e := a.free[x]
	switch {
	case start == e.start && end == e.end:
		a.free = slices.Delete(a.free, x, x+1)
		return x
	case start == e.start:
		a.free[x].start = end
		return x
	case end == e.end:
		a.free[x].end = start
		return x + 1
	}
	a.free[x].end = start
	a.free = slices.Insert(a.free, x+1, extent{end, e.end})
	return x + 1
}

// putFree adds [start, end), which must not overlap the free list, merging
// it with the extents it touches.
func (a *Allocator) putFree(start, end int64) {
	x := a.freeAt(start) // first extent after the new one
	left := x > 0 && a.free[x-1].end == start
	right := x < len(a.free) && a.free[x].start == end
	switch {
	case left && right:
		a.free[x-1].end = a.free[x].end
		a.free = slices.Delete(a.free, x, x+1)
	case left:
		a.free[x-1].end = end
	case right:
		a.free[x].start = start
	default:
		a.free = slices.Insert(a.free, x, extent{start, end})
	}
}

// pinAt returns the index of the first pin segment ending after page.
func (a *Allocator) pinAt(page int64) int {
	return sort.Search(len(a.pins), func(x int) bool { return a.pins[x].end > page })
}

// unpinnedIn returns the lowest unpinned page in [start, end), or end if
// every page is pinned.
func (a *Allocator) unpinnedIn(start, end int64) int64 {
	pg := start
	for x := a.pinAt(start); pg < end && x < len(a.pins) && a.pins[x].start <= pg; x++ {
		pg = a.pins[x].end
	}
	return min(pg, end)
}

// addPins adds delta to the pin refcount of every page in [start, end) and
// keeps pinnedCnt in step. A decrement must only cover pinned pages.
//
// The segments the range touches, plus one neighbour on each side, are
// rebuilt into spare with equal adjacent counts merged, then spliced back.
func (a *Allocator) addPins(start, end int64, delta int32) {
	if start >= end {
		return
	}
	lo, hi := a.pinAt(start), a.pinAt(end)
	if lo > 0 {
		lo--
	}
	if hi < len(a.pins) {
		hi++
	}
	out := a.spare[:0]
	push := func(s, e int64, n int32) {
		if s >= e || n == 0 {
			return
		}
		if k := len(out) - 1; k >= 0 && out[k].end == s && out[k].n == n {
			out[k].end = e
			return
		}
		out = append(out, pinSeg{s, e, n})
	}
	cur := start // first page of the range not yet rebuilt
	gap := func(e int64) {
		if cur < e {
			a.pinnedCnt += int64(delta) * (e - cur)
			push(cur, e, delta)
		}
	}
	for _, g := range a.pins[lo:hi] {
		if g.end <= start || g.start >= end {
			if g.start >= end {
				gap(end)
				cur = end
			}
			push(g.start, g.end, g.n)
			continue
		}
		s, e := max(g.start, start), min(g.end, end)
		gap(s)
		push(g.start, s, g.n)
		if g.n+delta == 0 {
			a.pinnedCnt -= e - s
		}
		push(s, e, g.n+delta)
		push(e, g.end, g.n)
		cur = e
	}
	gap(end)
	a.pins = slices.Replace(a.pins, lo, hi, out...)
	a.spare = out[:0]
}
