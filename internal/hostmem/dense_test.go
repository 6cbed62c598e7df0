package hostmem

// This file holds the reference model for FuzzAllocatorMatchesDense: the
// allocator as it was first written, with one allocated flag and one pin
// refcount per page and a page-by-page next-fit scan. It charges no
// simulated time; instead it adds each operation's cost to clock, which the
// fuzzer compares with the simulated time the extent-based Allocator spent.

import (
	"fmt"
	"time"
)

// denseAlloc is the per-page reference model of Allocator.
type denseAlloc struct {
	cfg   Config
	pages int64

	state     []ContentState
	allocated []bool
	pinned    []int32

	freeHead, freeCnt, dirtyCnt, pinnedCnt int64

	violations  int
	zeroedBytes int64
	clock       time.Duration
}

func newDense(cfg Config) *denseAlloc {
	pages := cfg.TotalBytes / cfg.PageSize
	return &denseAlloc{
		cfg:       cfg,
		pages:     pages,
		state:     make([]ContentState, pages),
		allocated: make([]bool, pages),
		pinned:    make([]int32, pages),
		freeCnt:   pages,
		dirtyCnt:  pages,
	}
}

func (d *denseAlloc) clone() *denseAlloc {
	c := *d
	c.state = append([]ContentState(nil), d.state...)
	c.allocated = append([]bool(nil), d.allocated...)
	c.pinned = append([]int32(nil), d.pinned...)
	return &c
}

func (d *denseAlloc) markState(page int64, s ContentState) {
	old := d.state[page]
	if old == s {
		return
	}
	if old == Dirty {
		d.dirtyCnt--
	}
	if s == Dirty {
		d.dirtyCnt++
	}
	d.state[page] = s
}

func (d *denseAlloc) allocate(bytes int64) (*Region, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("hostmem: negative allocation size %d", bytes)
	}
	need := (bytes + d.cfg.PageSize - 1) / d.cfg.PageSize
	if need > d.freeCnt {
		return nil, fmt.Errorf("hostmem: out of memory: need %d pages, %d free", need, d.freeCnt)
	}
	region := &Region{Bytes: bytes}
	remaining := need
	i := d.freeHead
	for remaining > 0 {
		for d.allocated[i] {
			i++
			if i >= d.pages {
				i = 0
			}
		}
		run := Run{Start: i}
		for i < d.pages && !d.allocated[i] && remaining > 0 {
			if d.cfg.MaxRunPages > 0 && run.Count >= d.cfg.MaxRunPages {
				break
			}
			d.allocated[i] = true
			run.Count++
			remaining--
			i++
		}
		region.Runs = append(region.Runs, run)
		d.clock += d.cfg.RetrieveCostPerRun + time.Duration(run.Count)*d.cfg.RetrieveCostPerPage
		if i >= d.pages {
			i = 0
		}
	}
	d.freeCnt -= need
	d.freeHead = i
	return region, nil
}

// eachPage calls fn for every page of region in run order.
func eachPage(region *Region, fn func(pg int64)) {
	for _, run := range region.Runs {
		for pg := run.Start; pg < run.Start+run.Count; pg++ {
			fn(pg)
		}
	}
}

func (d *denseAlloc) free(region *Region) {
	eachPage(region, func(pg int64) {
		if !d.allocated[pg] {
			panic(fmt.Sprintf("hostmem: double free of page %d", pg))
		}
		if d.pinned[pg] > 0 {
			panic(fmt.Sprintf("hostmem: freeing pinned page %d", pg))
		}
		d.allocated[pg] = false
		d.markState(pg, Dirty)
		d.freeCnt++
		d.freeHead = min(d.freeHead, pg)
	})
}

func (d *denseAlloc) zeroRegion(region *Region) {
	for _, run := range region.Runs {
		i, end := run.Start, run.Start+run.Count
		for i < end {
			if d.state[i] != Dirty {
				i++
				continue
			}
			j := i
			for j < end && d.state[j] == Dirty {
				j++
			}
			n := j - i
			d.clock += time.Duration(int64(time.Second) * n * d.cfg.PageSize / d.cfg.ZeroBytesPerSec)
			for k := i; k < j; k++ {
				d.markState(k, Zeroed)
			}
			d.zeroedBytes += n * d.cfg.PageSize
			i = j
		}
	}
}

func (d *denseAlloc) pin(region *Region) {
	eachPage(region, func(pg int64) {
		if d.pinned[pg] == 0 {
			d.pinnedCnt++
		}
		d.pinned[pg]++
	})
	d.clock += time.Duration(region.PageCount()) * d.cfg.PinCostPerPage
}

func (d *denseAlloc) unpin(region *Region) {
	eachPage(region, func(pg int64) {
		if d.pinned[pg] <= 0 {
			panic(fmt.Sprintf("hostmem: unpin of unpinned page %d", pg))
		}
		d.pinned[pg]--
		if d.pinned[pg] == 0 {
			d.pinnedCnt--
		}
	})
}

func (d *denseAlloc) guestRead(page int64) {
	if d.state[page] == Dirty {
		d.violations++
	}
}

func (d *denseAlloc) preZero(fraction float64) {
	if fraction <= 0 {
		return
	}
	target := int64(float64(d.freeCnt) * min(fraction, 1))
	for i := int64(0); i < d.pages && target > 0; i++ {
		if !d.allocated[i] && d.state[i] == Dirty {
			d.markState(i, Zeroed)
			target--
		}
	}
}

func (d *denseAlloc) stateDigest() uint64 {
	h := uint64(14695981039346656037)
	for _, s := range d.state {
		h = (h ^ uint64(s)) * 1099511628211
	}
	return h
}
