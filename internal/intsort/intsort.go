// Package intsort implements a parallel least-significant-digit radix sort on
// uint64 keys with integer payloads.
//
// It is the substitute for the BDHPRS91 integer-sorting subroutine the paper
// invokes for deterministic naming and dynamic stamp-counting (§6.2.1): keys
// are machine words in [0, M^O(1)) and the sort is stable, so ranking the
// sorted sequence yields canonical, deterministic names.
package intsort

import "pardict/internal/pram"

const (
	radixBits = 8
	radix     = 1 << radixBits
	radixMask = radix - 1
	minChunk  = 1024 // fewest keys per histogram chunk
)

// Pair is a sortable key with its original index as payload.
type Pair struct {
	Key uint64
	Idx int32
}

// Sort stably sorts ps by Key using LSD radix passes over only the digit
// positions that vary: a digit equal in every key (found from the OR and the
// AND of all keys) would leave the order unchanged, so its pass is skipped.
// Pair keys from naming, whose high bytes are mostly zero or all-ones, skip
// most of their eight passes. Each pass is a counting sort parallelized over
// input chunks.
func Sort(c *pram.Ctx, ps []Pair) {
	n := len(ps)
	if n <= 1 {
		return
	}
	or, and := uint64(0), ^uint64(0)
	for _, p := range ps {
		or |= p.Key
		and &= p.Key
	}
	vary := or ^ and
	c.AddWork(int64(n))
	c.AddDepth(1)

	var src, dst []Pair = ps, nil
	for shift := 0; shift < 64 && vary>>shift != 0; shift += radixBits {
		if (vary>>shift)&radixMask == 0 {
			continue
		}
		if c.Canceled() {
			break
		}
		if dst == nil {
			dst = make([]Pair, n)
		}
		countingPass(c, src, dst, shift)
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		pram.Copy(c, ps, src)
	}
}

// countingPass performs one stable counting-sort pass on the digit at shift.
func countingPass(c *pram.Ctx, src, dst []Pair, shift int) {
	n := len(src)
	procs := c.Procs()
	chunk := max((n+procs-1)/procs, minChunk)
	nchunks := (n + chunk - 1) / chunk

	// Per-chunk histograms (one parallel phase over the input).
	hist := make([][radix]int64, nchunks)
	c.For(nchunks, func(ci int) {
		lo := ci * chunk
		hi := min(lo+chunk, n)
		h := &hist[ci]
		for i := lo; i < hi; i++ {
			h[(src[i].Key>>shift)&radixMask]++
		}
	})
	c.AddWork(int64(n) - int64(nchunks)) // charge per element, not per chunk

	// Exclusive scan in (digit-major, chunk-minor) order gives each chunk its
	// scatter base per digit, preserving stability. It is charged at the
	// finest split, one histogram per minChunk keys, so the counted Work
	// depends on n alone; the pool's coarser split scans no more than that.
	var total int64
	for d := 0; d < radix; d++ {
		for ci := 0; ci < nchunks; ci++ {
			v := hist[ci][d]
			hist[ci][d] = total
			total += v
		}
	}
	c.AddWork(int64(radix * ((n + minChunk - 1) / minChunk)))
	c.AddDepth(1)

	// Stable scatter (second parallel phase).
	c.For(nchunks, func(ci int) {
		lo := ci * chunk
		hi := min(lo+chunk, n)
		h := &hist[ci]
		for i := lo; i < hi; i++ {
			d := (src[i].Key >> shift) & radixMask
			dst[h[d]] = src[i]
			h[d]++
		}
	})
	c.AddWork(int64(n) - int64(nchunks))
}

// SortUint64 sorts keys in place (no payload).
func SortUint64(c *pram.Ctx, keys []uint64) {
	ps := make([]Pair, len(keys))
	c.For(len(keys), func(i int) { ps[i] = Pair{Key: keys[i], Idx: int32(i)} })
	Sort(c, ps)
	c.For(len(keys), func(i int) { keys[i] = ps[i].Key })
}

// RankDistinct assigns each element of the sorted slice ps the dense 0-based
// rank of its key among distinct keys, writing out[ps[i].Idx] = rank. It
// returns the number of distinct keys. ps must already be sorted by Key.
func RankDistinct(c *pram.Ctx, ps []Pair, out []int32) int {
	n := len(ps)
	if n == 0 {
		return 0
	}
	marks := make([]int64, n)
	c.For(n, func(i int) {
		if i == 0 || ps[i].Key != ps[i-1].Key {
			marks[i] = 1
		}
	})
	distinct := c.ExclusiveScan(marks)
	c.For(n, func(i int) {
		// marks[i] now holds the number of group leaders strictly before i.
		// A leader's rank is that count; a follower shares its leader's rank,
		// which is the count minus the leader already included.
		if i == 0 || ps[i].Key != ps[i-1].Key {
			out[ps[i].Idx] = int32(marks[i])
		} else {
			out[ps[i].Idx] = int32(marks[i]) - 1
		}
	})
	return int(distinct)
}
