package hostmem

import (
	"fmt"
	"reflect"
	"testing"

	"fastiov/internal/cost"
	"fastiov/internal/sim"
)

// allocScripts seed FuzzAllocatorMatchesDense. The first byte picks the
// geometry; each later op is one byte plus its arguments (see runScript).
var allocScripts = [][]byte{
	{0x00, 0, 40, 0, 20, 1, 0, 0, 40},
	{0x01, 0, 60, 0, 60, 1, 0, 0, 20, 9, 1, 7, 1, 2, 0},
	{0x02, 0, 30, 2, 0, 2, 0, 3, 0, 1, 0, 3, 0, 1, 0},
	{0x03, 0, 100, 0, 80, 1, 1, 0, 50, 4, 0, 5, 100, 6, 7, 7, 9, 8, 0, 10},
	{0x07, 0, 200, 9, 0, 30, 2, 1, 1, 0, 8, 0, 120, 5, 255},
	{0xfd, 0, 0xf0, 0, 0xfe, 0, 16, 4, 0, 1, 0, 0, 32, 9, 0, 3, 2, 0, 1, 0, 1, 1},
	{0x05, 10, 10, 0, 20, 10, 1, 1, 10, 8, 10, 2, 0, 10, 0, 100, 10, 10, 10},
	// Multi-chunk geometries: writes, zeroing, frees and pre-zeroing across
	// the first chunk boundary (page 4096), and in a last chunk of one page.
	{0xe8, 0, 127, 0, 20, 6, 0x0f, 0xff, 6, 0x10, 0x00, 4, 1, 7, 0x10, 0x01, 7, 0x0f, 0xfe,
		1, 1, 5, 100, 8, 0, 30, 4, 2, 2, 2, 1, 0, 3, 2, 1, 2, 7, 0x11, 0x00},
	{0xe4, 0, 127, 0, 1, 10, 4, 2, 7, 0x10, 0x00, 6, 0x10, 0x00, 1, 2, 5, 200, 7, 0x10, 0x00,
		10, 4, 3, 1, 1, 1, 0, 5, 200},
	{0xf3, 5, 100, 0, 127, 0, 127, 0, 2, 10, 4, 1, 4, 3, 9, 1, 40, 1, 1, 1, 4, 5, 200,
		2, 0, 1, 0, 3, 0, 1, 0, 1, 2, 1, 3},
}

func FuzzAllocatorMatchesDense(f *testing.F) {
	for _, s := range allocScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := runScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocatorMatchesDenseSeeds runs the seed scripts with plain go test.
func TestAllocatorMatchesDenseSeeds(t *testing.T) {
	for i, s := range allocScripts {
		if err := runScript(s); err != nil {
			t.Errorf("script %d: %v", i, err)
		}
	}
}

// runScript drives an Allocator and the dense reference through the same
// operations and returns the first difference. Ops: 0 allocate, 1 free,
// 2 pin, 3 unpin, 4 zero, 5 pre-zero, 6 write a page, 7 guest-read a page,
// 8 compare only (no operation; the code stays taken so saved scripts
// decode unchanged), 9 split a region in two, 10 allocate one page
// (AllocatePage against the reference's Allocate of one page). Regions are picked by index, so a
// script can free twice, unpin what it never pinned, or free a pinned
// region; both sides must then panic with the same message, which ends the
// script.
func runScript(script []byte) error {
	if len(script) == 0 {
		return nil
	}
	pos := 0
	next := func() byte {
		if pos >= len(script) {
			return 0
		}
		pos++
		return script[pos-1]
	}
	g := next()
	cfg := DefaultConfig()
	cfg.PageSize = PageSize4K
	cfg.TotalBytes = (8 + int64(g>>2)%57) * cfg.PageSize
	cfg.MaxRunPages = []int64{0, 1, 3, 16}[g&3]
	// Geometries 57 to 62, which would repeat 8 to 13 pages, instead span
	// one or two content-state chunks plus a partial last chunk. Their
	// allocation sizes and split points scale up, and a page number takes
	// two bytes, so a script can cross the chunk boundaries.
	scale, page := int64(1), func() int64 { return int64(next()) }
	if m := int64(g>>2) - 57; m >= 0 && m < 6 {
		cfg.TotalBytes = ((1+m/3)*chunkPages + []int64{1, 1000, chunkPages / 2}[m%3]) * cfg.PageSize
		scale = chunkPages / 32
		page = func() int64 { return int64(next())<<8 | int64(next()) }
	}

	k := sim.NewKernel()
	c := cost.Default()
	a := New(k, cfg, c)
	d := newDense(cfg, &c)
	var err error
	k.Go("script", func(p *sim.Proc) {
		var regions []*Region
		pick := func() *Region {
			if len(regions) == 0 {
				return nil
			}
			return regions[int(next())%len(regions)]
		}
		for op := 0; pos < len(script) && err == nil; op++ {
			code := next() % 11
			var what string
			var got, want string // panic messages
			switch code {
			case 0:
				bytes := int64(int8(next())) * cfg.PageSize / 4 * scale
				what = fmt.Sprintf("allocate %d", bytes)
				r, gerr := a.Allocate(p, bytes)
				wr, werr := d.allocate(bytes)
				if (gerr == nil) != (werr == nil) {
					err = fmt.Errorf("op %d %s: error %v, reference %v", op, what, gerr, werr)
					break
				}
				if gerr != nil {
					break
				}
				// The runs and size must match; where the first run is
				// stored is the allocator's own business.
				if r.Bytes != wr.Bytes || !reflect.DeepEqual(r.Runs, wr.Runs) {
					err = fmt.Errorf("op %d %s: runs %v, reference %v", op, what, r.Runs, wr.Runs)
					break
				}
				if len(regions) < 16 {
					regions = append(regions, r)
				}
			case 10:
				what = "allocate page"
				pg, gerr := a.AllocatePage(p)
				wr, werr := d.allocate(cfg.PageSize)
				if (gerr == nil) != (werr == nil) {
					err = fmt.Errorf("op %d %s: error %v, reference %v", op, what, gerr, werr)
					break
				}
				if gerr != nil {
					if gerr.Error() != werr.Error() {
						err = fmt.Errorf("op %d %s: error %q, reference %q", op, what, gerr, werr)
					}
					break
				}
				if r := (&Region{Runs: []Run{{pg, 1}}, Bytes: cfg.PageSize}); !reflect.DeepEqual(r, wr) {
					err = fmt.Errorf("op %d %s: page %d, reference %v", op, what, pg, wr.Runs)
				} else if len(regions) < 16 {
					regions = append(regions, r)
				}
			case 1, 2, 3, 4:
				r := pick()
				if r == nil {
					continue
				}
				what = fmt.Sprintf("%s %v", []string{"", "free", "pin", "unpin", "zero"}[code], r.Runs)
				got = catch(func() {
					switch code {
					case 1:
						a.Free(p, r)
					case 2:
						a.Pin(p, r)
					case 3:
						a.Unpin(p, r)
					case 4:
						a.ZeroRegion(p, r)
					}
				})
				want = catch(func() {
					switch code {
					case 1:
						d.free(r)
					case 2:
						d.pin(r)
					case 3:
						d.unpin(r)
					case 4:
						d.zeroRegion(r)
					}
				})
			case 5:
				f := float64(next()) / 200
				what = fmt.Sprintf("pre-zero %g", f)
				a.PreZero(f)
				d.preZero(f)
			case 6, 7:
				pg := page() % d.pages
				what = fmt.Sprintf("access page %d", pg)
				if code == 6 {
					a.WriteData(pg)
					d.markState(pg, Written)
				} else {
					a.GuestRead(pg)
					d.guestRead(pg)
				}
			case 8:
				what = "compare"
			case 9:
				x := int(next())
				if len(regions) == 0 {
					continue
				}
				x %= len(regions)
				r := regions[x]
				at := int64(next())*scale%max(r.PageCount(), 1) + 1
				what = fmt.Sprintf("split %v at %d", r.Runs, at)
				head, tail := splitRegion(r, at)
				regions[x] = head
				if tail != nil && len(regions) < 16 {
					regions = append(regions, tail)
				}
			}
			if err != nil {
				break
			}
			if got != want {
				err = fmt.Errorf("op %d %s: panic %q, reference %q", op, what, got, want)
				break
			}
			if got != "" {
				break // both panicked mid-operation; their states may differ
			}
			if diff := compare(a, d, p); diff != "" {
				err = fmt.Errorf("op %d %s: %s", op, what, diff)
			}
		}
	})
	k.Run()
	return err
}

// catch runs fn and returns its panic message, or "".
func catch(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// splitRegion cuts r after its first at pages. tail is nil when at covers
// the whole region.
func splitRegion(r *Region, at int64) (head, tail *Region) {
	head, tail = &Region{}, &Region{}
	for _, run := range r.Runs {
		n := min(run.Count, max(at-head.PageCount(), 0))
		if n > 0 {
			head.Runs = append(head.Runs, Run{run.Start, n})
		}
		if n < run.Count {
			tail.Runs = append(tail.Runs, Run{run.Start + n, run.Count - n})
		}
	}
	head.Bytes = head.PageCount() * PageSize4K
	if len(tail.Runs) == 0 {
		return head, nil
	}
	tail.Bytes = tail.PageCount() * PageSize4K
	return head, tail
}

// compare returns how a differs from the reference d, or "".
func compare(a *Allocator, d *denseAlloc, p *sim.Proc) string {
	type counters struct {
		free, dirty, pinned, head, zeroed int64
		violations                        int
		now                               int64
	}
	got := counters{a.FreePages(), a.DirtyPages(), a.PinnedPages(), a.freeHead, a.ZeroedBytes, a.Violations, int64(p.Now())}
	want := counters{d.freeCnt, d.dirtyCnt, d.pinnedCnt, d.freeHead, d.zeroedBytes, d.violations, int64(d.clock)}
	if got != want {
		return fmt.Sprintf("counters %+v, reference %+v", got, want)
	}
	for pg := int64(0); pg < d.pages; pg++ {
		if a.Pinned(pg) != (d.pinned[pg] > 0) || a.State(pg) != d.state[pg] || isFree(a, pg) != !d.allocated[pg] {
			return fmt.Sprintf("page %d: pinned %v state %v free %v, reference %v %v %v",
				pg, a.Pinned(pg), a.State(pg), isFree(a, pg), d.pinned[pg] > 0, d.state[pg], !d.allocated[pg])
		}
	}
	if a.StateDigest() != d.stateDigest() {
		return "state digest differs"
	}
	return checkInvariants(a, d)
}

// isFree reports whether page is on a's free list.
func isFree(a *Allocator, page int64) bool {
	x := a.freeAt(page)
	return x < len(a.free) && a.free[x].start <= page
}

// checkInvariants checks that the run lists are canonical: sorted,
// disjoint, coalesced, and carrying the reference's pin counts.
func checkInvariants(a *Allocator, d *denseAlloc) string {
	for x, e := range a.free {
		if e.start >= e.end || (x > 0 && a.free[x-1].end >= e.start) {
			return fmt.Sprintf("free list not canonical: %v", a.free)
		}
	}
	for x, g := range a.pins {
		if g.start >= g.end || g.n <= 0 || (x > 0 && (a.pins[x-1].end > g.start ||
			a.pins[x-1].end == g.start && a.pins[x-1].n == g.n)) {
			return fmt.Sprintf("pin segments not canonical: %v", a.pins)
		}
		for pg := g.start; pg < g.end; pg++ {
			if d.pinned[pg] != g.n {
				return fmt.Sprintf("page %d pinned %d times, reference %d", pg, g.n, d.pinned[pg])
			}
		}
	}
	return ""
}
