package fastiovd

import "slices"

// pageSet is one pid's second tier: the set of its deferred pages. It keeps
// the sorted, disjoint page runs the pid registered and one presence bit per
// page of those runs, so a region of any size costs a few allocations and a
// lookup is a binary search over a handful of runs.
type pageSet struct {
	runs []setRun
	bits []uint64
	n    int // pages present
}

// setRun covers pages [start, start+count); its presence bits start at bit
// off of bits, which is word-aligned.
type setRun struct {
	start, count, off int64
}

// find returns the index of the run containing pg and true, or the index at
// which a run starting at pg would be inserted and false.
func (s *pageSet) find(pg int64) (int, bool) {
	lo, hi := 0, len(s.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.runs[mid].start <= pg {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && pg < s.runs[lo-1].start+s.runs[lo-1].count {
		return lo - 1, true
	}
	return lo, false
}

// bit returns the word index and mask of pg's presence bit in run r.
func (s *pageSet) bit(r int, pg int64) (int64, uint64) {
	b := s.runs[r].off + pg - s.runs[r].start
	return b >> 6, 1 << (b & 63)
}

func (s *pageSet) has(pg int64) bool {
	r, ok := s.find(pg)
	if !ok {
		return false
	}
	w, mask := s.bit(r, pg)
	return s.bits[w]&mask != 0
}

// remove clears pg, which must be present.
func (s *pageSet) remove(pg int64) {
	r, _ := s.find(pg)
	w, mask := s.bit(r, pg)
	s.bits[w] &^= mask
	s.n--
}

// add inserts pages [start, start+count) and returns how many were absent.
// Pages inside known runs set their bits; the gaps between them become new
// runs with fresh bits.
func (s *pageSet) add(start, count int64) int {
	added := 0
	for count > 0 {
		r, ok := s.find(start)
		if ok {
			run := s.runs[r]
			k := min(count, run.start+run.count-start)
			for pg := start; pg < start+k; pg++ {
				if w, mask := s.bit(r, pg); s.bits[w]&mask == 0 {
					s.bits[w] |= mask
					added++
				}
			}
			start, count = start+k, count-k
			continue
		}
		k := count
		if r < len(s.runs) {
			k = min(k, s.runs[r].start-start)
		}
		off := int64(len(s.bits)) * 64
		s.runs = slices.Insert(s.runs, r, setRun{start: start, count: k, off: off})
		for i := int64(0); i < k; i += 64 {
			s.bits = append(s.bits, ^uint64(0)>>max(0, 64-(k-i)))
		}
		added += int(k)
		start, count = start+k, count-k
	}
	s.n += added
	return added
}

// eachRun calls fn for each maximal run of present pages within a registered
// run, in ascending page order.
func (s *pageSet) eachRun(fn func(start, count int64)) {
	for _, run := range s.runs {
		var from, n int64
		for i := int64(0); i < run.count; i++ {
			b := run.off + i
			if s.bits[b>>6]&(1<<(b&63)) != 0 {
				if n == 0 {
					from = run.start + i
				}
				n++
			} else if n > 0 {
				fn(from, n)
				n = 0
			}
		}
		if n > 0 {
			fn(from, n)
		}
	}
}
