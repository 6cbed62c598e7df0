package hostmem

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"fastiov/internal/cost"
	"fastiov/internal/sim"
)

// testConfig returns a small, fast geometry: 1 GB of 2 MB pages.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TotalBytes = 1 << 30
	return cfg
}

// testCosts is the default cost model the tests charge.
var testCosts = cost.Default()

// run executes fn inside a one-proc simulation.
func run(t *testing.T, cfg Config, fn func(p *sim.Proc, a *Allocator)) *Allocator {
	t.Helper()
	k := sim.NewKernel()
	a := New(k, cfg, testCosts)
	k.Go("test", func(p *sim.Proc) { fn(p, a) })
	k.Run()
	return a
}

func TestAllocateAndFree(t *testing.T) {
	run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		before := a.FreePages()
		r, err := a.Allocate(p, 64<<20) // 64 MB = 32 pages
		if err != nil {
			t.Fatal(err)
		}
		if r.PageCount() != 32 {
			t.Errorf("pages = %d, want 32", r.PageCount())
		}
		if a.FreePages() != before-32 {
			t.Errorf("free = %d, want %d", a.FreePages(), before-32)
		}
		a.Free(p, r)
		if a.FreePages() != before {
			t.Errorf("free after free = %d, want %d", a.FreePages(), before)
		}
	})
}

func TestAllocateRoundsUpToPage(t *testing.T) {
	run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, err := a.Allocate(p, 1) // 1 byte still takes a page
		if err != nil {
			t.Fatal(err)
		}
		if r.PageCount() != 1 {
			t.Errorf("pages = %d, want 1", r.PageCount())
		}
	})
}

func TestOutOfMemory(t *testing.T) {
	run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		if _, err := a.Allocate(p, 2<<30); err == nil {
			t.Error("allocating 2 GB from 1 GB should fail")
		}
	})
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 2<<20)
		a.Free(p, r)
		a.Free(p, r)
	})
}

func TestFreedPagesAreDirty(t *testing.T) {
	run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 4<<20)
		a.ZeroRegion(p, r)
		for _, run := range r.Runs {
			for pg := run.Start; pg < run.Start+run.Count; pg++ {
				if a.State(pg) != Zeroed {
					t.Errorf("page %d not zeroed", pg)
				}
			}
		}
		a.Free(p, r)
		for _, run := range r.Runs {
			for pg := run.Start; pg < run.Start+run.Count; pg++ {
				if a.State(pg) != Dirty {
					t.Errorf("freed page %d should be dirty", pg)
				}
			}
		}
	})
}

func TestZeroRegionCostMatchesBandwidth(t *testing.T) {
	cfg := testConfig()
	c := cost.Default()
	c.RetrieveCostPerRun, c.RetrieveCostPerPage = 0, 0
	k := sim.NewKernel()
	a := New(k, cfg, c)
	var elapsed time.Duration
	k.Go("z", func(p *sim.Proc) {
		r, _ := a.Allocate(p, 512<<20)
		start := p.Now()
		a.ZeroRegion(p, r)
		elapsed = p.Now() - start
	})
	k.Run()
	// 512 MB at 10 GB/s = 50 ms
	want := 50 * time.Millisecond
	if elapsed < want*9/10 || elapsed > want*11/10 {
		t.Errorf("zeroing 512MB took %v, want ~%v", elapsed, want)
	}
}

func TestZeroSkipsCleanPages(t *testing.T) {
	run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 8<<20)
		a.ZeroRegion(p, r)
		first := a.ZeroedBytes
		start := p.Now()
		a.ZeroRegion(p, r) // second pass: all clean
		if p.Now() != start {
			t.Error("re-zeroing clean pages cost time")
		}
		if a.ZeroedBytes != first {
			t.Error("re-zeroing clean pages counted bytes")
		}
	})
}

func TestZeroConcurrencyBoundedByStreams(t *testing.T) {
	cfg := testConfig()
	cfg.TotalBytes = 16 << 30
	cfg.ZeroStreams = 2
	c := cost.Default()
	c.RetrieveCostPerRun, c.RetrieveCostPerPage = 0, 0
	k := sim.NewKernel()
	a := New(k, cfg, c)
	// 4 procs each zero 1 GB; 1 GB at 10 GB/s = 100 ms; with 2 streams the
	// makespan must be ~200 ms, not 100 ms.
	for i := 0; i < 4; i++ {
		k.Go("z", func(p *sim.Proc) {
			r, _ := a.Allocate(p, 1<<30)
			a.ZeroRegion(p, r)
		})
	}
	end := k.Run()
	if end < 190*time.Millisecond || end > 210*time.Millisecond {
		t.Errorf("makespan %v, want ~200ms", end)
	}
}

func TestPinPreventsFree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic freeing pinned pages")
		}
	}()
	run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 2<<20)
		a.Pin(p, r)
		a.Free(p, r)
	})
}

func TestPinUnpinRefcount(t *testing.T) {
	run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 2<<20)
		a.Pin(p, r)
		a.Pin(p, r)
		a.Unpin(p, r)
		for _, run := range r.Runs {
			for pg := run.Start; pg < run.Start+run.Count; pg++ {
				if !a.Pinned(pg) {
					t.Error("page should still be pinned once")
				}
			}
		}
		a.Unpin(p, r)
		a.Free(p, r) // must not panic now
	})
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 2<<20)
		a.Unpin(p, r)
	})
}

func TestGuestReadOfDirtyPageIsViolation(t *testing.T) {
	a := run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 2<<20)
		for _, run := range r.Runs {
			for pg := run.Start; pg < run.Start+run.Count; pg++ {
				a.GuestRead(pg)
			}
		}
	})
	if a.Violations != 1 {
		t.Errorf("violations = %d, want 1", a.Violations)
	}
}

func TestGuestReadOfZeroedPageIsClean(t *testing.T) {
	a := run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 2<<20)
		a.ZeroRegion(p, r)
		for _, run := range r.Runs {
			for pg := run.Start; pg < run.Start+run.Count; pg++ {
				a.GuestRead(pg)
			}
		}
	})
	if a.Violations != 0 {
		t.Errorf("violations = %d, want 0", a.Violations)
	}
}

func TestWriteDataThenRead(t *testing.T) {
	a := run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 2<<20)
		for _, run := range r.Runs {
			for pg := run.Start; pg < run.Start+run.Count; pg++ {
				a.WriteData(pg)
				a.GuestRead(pg)
			}
		}
	})
	if a.Violations != 0 {
		t.Errorf("violations = %d, want 0", a.Violations)
	}
}

func TestPreZeroFraction(t *testing.T) {
	cfg := testConfig()
	k := sim.NewKernel()
	a := New(k, cfg, testCosts)
	a.PreZero(0.5)
	clean := int64(0)
	for i := int64(0); i < a.TotalPages(); i++ {
		if a.State(i) == Zeroed {
			clean++
		}
	}
	want := a.TotalPages() / 2
	if clean != want {
		t.Errorf("pre-zeroed %d pages, want %d", clean, want)
	}
}

func TestPreZeroFullMakesZeroingFree(t *testing.T) {
	cfg := testConfig()
	c := cost.Default()
	c.RetrieveCostPerRun, c.RetrieveCostPerPage = 0, 0
	k := sim.NewKernel()
	a := New(k, cfg, c)
	a.PreZero(1.0)
	k.Go("z", func(p *sim.Proc) {
		r, _ := a.Allocate(p, 256<<20)
		start := p.Now()
		a.ZeroRegion(p, r)
		if p.Now() != start {
			t.Error("zeroing fully pre-zeroed memory cost time")
		}
	})
	k.Run()
}

func TestFragmentationIncreasesRuns(t *testing.T) {
	cfgFrag := testConfig()
	cfgFrag.MaxRunPages = 4
	var fragRuns, contigRuns int
	run(t, cfgFrag, func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 64<<20)
		fragRuns = len(r.Runs)
	})
	run(t, testConfig(), func(p *sim.Proc, a *Allocator) {
		r, _ := a.Allocate(p, 64<<20)
		contigRuns = len(r.Runs)
	})
	if contigRuns != 1 {
		t.Errorf("unfragmented alloc used %d runs, want 1", contigRuns)
	}
	if fragRuns != 8 { // 32 pages / 4 per run
		t.Errorf("fragmented alloc used %d runs, want 8", fragRuns)
	}
}

func TestFragmentationIncreasesRetrievalCost(t *testing.T) {
	measure := func(maxRun int64) time.Duration {
		cfg := testConfig()
		cfg.MaxRunPages = maxRun
		c := cost.Default()
		c.PinCostPerPage = 0
		k := sim.NewKernel()
		a := New(k, cfg, c)
		var elapsed time.Duration
		k.Go("t", func(p *sim.Proc) {
			start := p.Now()
			_, err := a.Allocate(p, 128<<20)
			if err != nil {
				t.Fatal(err)
			}
			elapsed = p.Now() - start
		})
		k.Run()
		return elapsed
	}
	if frag, contig := measure(1), measure(0); frag <= contig {
		t.Errorf("fragmented retrieval (%v) should cost more than contiguous (%v)", frag, contig)
	}
}

func TestAllocationReusesFreedPages(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(p *sim.Proc, a *Allocator) {
		// Fill all memory, free it, and allocate again: must succeed.
		r1, err := a.Allocate(p, cfg.TotalBytes)
		if err != nil {
			t.Fatal(err)
		}
		a.Free(p, r1)
		r2, err := a.Allocate(p, cfg.TotalBytes)
		if err != nil {
			t.Fatalf("re-allocation failed: %v", err)
		}
		a.Free(p, r2)
	})
}

func TestConcurrentAllocatorsNoOverlap(t *testing.T) {
	cfg := testConfig()
	k := sim.NewKernel()
	a := New(k, cfg, testCosts)
	owners := make(map[int64]int)
	for i := 0; i < 8; i++ {
		i := i
		k.Go("alloc", func(p *sim.Proc) {
			r, err := a.Allocate(p, 32<<20)
			if err != nil {
				t.Errorf("alloc %d: %v", i, err)
				return
			}
			for _, run := range r.Runs {
				for pg := run.Start; pg < run.Start+run.Count; pg++ {
					if prev, ok := owners[pg]; ok {
						t.Errorf("page %d allocated to both %d and %d", pg, prev, i)
					}
					owners[pg] = i
				}
			}
		})
	}
	k.Run()
}

// Property: for any sequence of allocate/free pairs, the free count returns
// to its initial value and no page is left allocated.
func TestAllocFreeBalanceProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		cfg := testConfig()
		k := sim.NewKernel()
		a := New(k, cfg, testCosts)
		initial := a.FreePages()
		ok := true
		k.Go("t", func(p *sim.Proc) {
			var regions []*Region
			for _, s := range sizes {
				bytes := (int64(s%32) + 1) * (2 << 20)
				r, err := a.Allocate(p, bytes)
				if err != nil {
					continue
				}
				regions = append(regions, r)
			}
			for _, r := range regions {
				a.Free(p, r)
			}
			ok = a.FreePages() == initial
		})
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAllocateRejectsNegativeSize(t *testing.T) {
	cfg := testConfig()
	for _, tc := range []struct {
		name    string
		bytes   int64
		wantErr bool
	}{
		{"-1 page", -cfg.PageSize, true},
		{"-3 pages", -3 * cfg.PageSize, true},
		{"0 bytes", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, cfg, func(p *sim.Proc, a *Allocator) {
				freeCnt, freeHead, free := a.FreePages(), a.freeHead, slices.Clone(a.free)
				start := p.Now()
				r, err := a.Allocate(p, tc.bytes)
				if (err != nil) != tc.wantErr {
					t.Fatalf("Allocate(%d) error = %v, want error %v", tc.bytes, err, tc.wantErr)
				}
				if err == nil && r.PageCount() != 0 {
					t.Errorf("Allocate(%d) returned %d pages", tc.bytes, r.PageCount())
				}
				if p.Now() != start || a.FreePages() != freeCnt || a.freeHead != freeHead || !slices.Equal(a.free, free) {
					t.Errorf("Allocate(%d) changed the allocator: free %d -> %d, cursor %d -> %d, %v later",
						tc.bytes, freeCnt, a.FreePages(), freeHead, a.freeHead, p.Now()-start)
				}
			})
		})
	}
}

// Allocate sizes a region's run list for its pieces before it cuts them:
// the list never regrows, whatever the fragmentation, the cut size, or
// where the next-fit cursor sits in (or wraps around) the free list.
func TestAllocateSizesRunsExactly(t *testing.T) {
	for _, maxRun := range []int64{0, 1, 3, 16} {
		cfg := testConfig() // 512 pages
		cfg.MaxRunPages = maxRun
		run(t, cfg, func(p *sim.Proc, a *Allocator) {
			var live []*Region
			state := uint64(0x9E3779B97F4A7C15)
			for op := 0; op < 400; op++ {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				if state%3 == 0 && len(live) > 0 {
					i := int(state>>8) % len(live)
					a.Free(p, live[i])
					live = slices.Delete(live, i, i+1)
					continue
				}
				need := int64(state>>16)%40 + 1
				if need > a.FreePages() {
					continue
				}
				r, err := a.Allocate(p, need*a.PageSize())
				if err != nil {
					t.Fatal(err)
				}
				if len(r.Runs) != cap(r.Runs) {
					t.Fatalf("MaxRunPages %d, op %d: %d runs in room for %d", maxRun, op, len(r.Runs), cap(r.Runs))
				}
				live = append(live, r)
			}
		})
	}
}
