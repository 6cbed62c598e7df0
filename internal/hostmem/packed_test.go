package hostmem

import (
	"fmt"
	"testing"

	"fastiov/internal/sim"
)

// packedPages is the geometry of the packed-state tests: two full chunks
// and a partial third, in 4 KiB pages.
const packedPages = 2*chunkPages + 40

// packedRig pairs an allocator with a dense per-page copy of its content
// state, the one-byte-a-page map the two-bit fields replaced.
type packedRig struct {
	a   *Allocator
	ref []ContentState
}

func newPackedRig() *packedRig {
	a := New(sim.NewKernel(), Config{TotalBytes: packedPages * PageSize4K, PageSize: PageSize4K}, testCosts)
	return &packedRig{a: a, ref: make([]ContentState, packedPages)}
}

// markRange sets [start, end) to s in both maps.
func (r *packedRig) markRange(start, end int64, s ContentState) {
	r.a.markRange(start, end, s)
	for i := start; i < end; i++ {
		r.ref[i] = s
	}
}

// markState sets page to s in both maps.
func (r *packedRig) markState(page int64, s ContentState) {
	r.a.markState(page, s)
	r.ref[page] = s
}

// check compares every page's state, the dirty count with a recount and
// StateDigest with the digest of the dense map.
func (r *packedRig) check(t *testing.T, what string) {
	t.Helper()
	h := uint64(14695981039346656037)
	var dirty int64
	for pg, s := range r.ref {
		if got := r.a.State(int64(pg)); got != s {
			t.Fatalf("%s: page %d is %v, want %v", what, pg, got, s)
		}
		if s == Dirty {
			dirty++
		}
		h = (h ^ uint64(s)) * 1099511628211
	}
	if r.a.DirtyPages() != dirty {
		t.Fatalf("%s: DirtyPages %d, recount %d", what, r.a.DirtyPages(), dirty)
	}
	if got := r.a.StateDigest(); got != h {
		t.Fatalf("%s: StateDigest %#x, dense digest %#x", what, got, h)
	}
}

// seek is seekDirty over the dense map.
func (r *packedRig) seek(i, end int64, dirty bool) int64 {
	for ; i < end; i++ {
		if (r.ref[i] == Dirty) == dirty {
			return i
		}
	}
	return end
}

// packedEdges are pages on each side of a byte (4 pages), a word (32
// pages) and a chunk boundary, and the last page.
var packedEdges = []int64{0, 3, 4, 5, 31, 32, 33, 63, 64, chunkPages - 1, chunkPages, chunkPages + 1, 2*chunkPages - 1, 2 * chunkPages, packedPages - 1}

// TestPackedStateTransitions drives every (old, new) pair of content
// states through markState and markRange at byte, word and chunk
// boundaries, and seekDirty over the result, against a dense map: every
// page's state, DirtyPages and StateDigest must match it throughout.
func TestPackedStateTransitions(t *testing.T) {
	states := []ContentState{Dirty, Zeroed, Written}
	for _, old := range states {
		for _, s := range states {
			t.Run(fmt.Sprintf("%v-%v", old, s), func(t *testing.T) {
				r := newPackedRig()
				r.markRange(0, packedPages, old)
				r.check(t, "fill")
				for _, pg := range packedEdges {
					r.markState(pg, s)
					r.check(t, fmt.Sprintf("markState(%d)", pg))
					r.markState(pg, old)
				}
				r.check(t, "markState restored")
				for _, e := range packedEdges {
					for _, span := range [][2]int64{{-1, 1}, {-2, 3}, {-5, 40}, {0, 1}, {-33, 33}} {
						start, end := max(e+span[0], 0), min(e+span[1], packedPages)
						r.markRange(0, packedPages, old)
						r.markRange(start, end, s)
						r.check(t, fmt.Sprintf("markRange(%d, %d)", start, end))
						for i := max(start-2, 0); i <= min(end+2, packedPages); i++ {
							for _, stop := range []int64{i, min(i+1, packedPages), end, packedPages} {
								if stop < i {
									continue
								}
								for _, dirty := range []bool{true, false} {
									if got, want := r.a.seekDirty(i, stop, dirty), r.seek(i, stop, dirty); got != want {
										t.Fatalf("after markRange(%d, %d): seekDirty(%d, %d, %v) = %d, want %d", start, end, i, stop, dirty, got, want)
									}
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestPackedPreZero pre-zeroes fractions of a host whose pages cycle
// through all three states in runs that straddle byte, word and chunk
// boundaries: the lowest Dirty pages, and only they, become Zeroed.
func TestPackedPreZero(t *testing.T) {
	for _, fraction := range []float64{0.001, 0.01, 0.3, 0.5, 1} {
		r := newPackedRig()
		for start, i := int64(0), 0; start < packedPages; i++ {
			end := min(start+int64(1+i*7%45), packedPages)
			r.markRange(start, end, ContentState(i%3))
			start = end
		}
		r.check(t, "pattern")
		target := int64(float64(r.a.FreePages()) * fraction)
		for pg := range r.ref {
			if target > 0 && r.ref[pg] == Dirty {
				r.ref[pg] = Zeroed
				target--
			}
		}
		r.a.PreZero(fraction)
		r.check(t, fmt.Sprintf("PreZero(%v)", fraction))
	}
}
