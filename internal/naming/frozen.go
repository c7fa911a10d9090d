package naming

import "pardict/internal/pram"

// fib64 is the Fibonacci multiplier 2^64/φ spreading uint64 keys across
// Frozen's slots (the same constant flathash uses).
const fib64 = 0x9E3779B97F4A7C15

// Frozen is the namestamping table of §3.2: an immutable open-addressing
// map from elements (encoded as uint64 keys) to stamps, built once during
// preprocessing by FreezeKeys and used on the matching hot path. It
// substitutes for the paper's O(M²) stamp tables with linear space and O(1)
// expected lookups: a linear-probed power-of-two layout of three flat
// arrays — an 8-bit fingerprint array probed first, then parallel key and
// value arrays. The fingerprint byte settles most probes (hit or miss)
// inside one cache line of the fps array before the 8-byte key is ever
// touched, which is what makes the per-level lookups of the cascade
// cache-resident (EXPERIMENTS.md E15 measures the difference against Go
// maps). Any value except None may be stored (None is what Lookup returns
// for absent keys).
type Frozen struct {
	fps   []uint8 // 0 = empty slot; otherwise a nonzero hash fingerprint
	keys  []uint64
	vals  []int32
	mask  uint64
	shift uint
	n     int
}

// fingerprint derives the nonzero tag stored in the fps array. It uses hash
// bits 48..55, disjoint from the top bits that pick the home slot for any
// table below 2^48 entries, so colliding slots still disagree on the tag
// with probability ~254/255.
func fingerprint(h uint64) uint8 {
	fp := uint8(h >> 48)
	if fp == 0 {
		fp = 1
	}
	return fp
}

// newFrozen returns an empty table sized for n distinct keys: the least power
// of two at least 2·n (and at least 8), so a full table is at most half
// occupied and probe runs stay short.
func newFrozen(n int) *Frozen {
	size := 1
	for size < 2*n || size < 8 {
		size <<= 1
	}
	f := &Frozen{
		fps:  make([]uint8, size),
		keys: make([]uint64, size),
		vals: make([]int32, size),
		mask: uint64(size - 1),
	}
	f.shift = 64
	for s := size; s > 1; s >>= 1 {
		f.shift--
	}
	return f
}

// putIfAbsent stores v for k unless k is already present.
func (f *Frozen) putIfAbsent(k uint64, v int32) {
	if v == None {
		panic("naming: a frozen table cannot store None values")
	}
	h := k * fib64
	fp := fingerprint(h)
	i := h >> f.shift
	for b := f.fps[i]; b != 0; b = f.fps[i] {
		if b == fp && f.keys[i] == k {
			return
		}
		i = (i + 1) & f.mask
	}
	f.fps[i] = fp
	f.keys[i] = k
	f.vals[i] = v
	f.n++
}

// FreezeKeys builds the frozen table mapping keys[i] -> vals[i] straight into
// its open-addressed arrays; it is the only way to build one. distinct is the
// number of distinct keys — the naming pass that produced the keys returns
// it — or an upper bound on it; the capacity is the least power of two at
// least 2·distinct (and at least 8), so with the exact count a full table is
// at most half occupied. When a key repeats, the smallest index wins, making
// the build deterministic (the paper's arbitrary-CRCW write resolved
// canonically). No value may equal None. It charges the PRAM fill, one
// processor per tuple: len(keys) work, depth 1 (nothing for no keys).
func FreezeKeys(c *pram.Ctx, keys []uint64, vals []int32, distinct int) *Frozen {
	f := newFrozen(distinct)
	for i, k := range keys {
		f.putIfAbsent(k, vals[i])
		if f.n > distinct {
			panic("naming: FreezeKeys given more distinct keys than declared")
		}
	}
	if len(keys) > 0 {
		c.AddWork(int64(len(keys)))
		c.AddDepth(1)
	}
	return f
}

// Len reports the number of entries.
func (f *Frozen) Len() int { return f.n }

// Get returns the stamp for k.
func (f *Frozen) Get(k uint64) (int32, bool) {
	h := k * fib64
	fp := fingerprint(h)
	i := h >> f.shift
	for {
		b := f.fps[i]
		if b == 0 {
			return None, false
		}
		if b == fp && f.keys[i] == k {
			return f.vals[i], true
		}
		i = (i + 1) & f.mask
	}
}

// Lookup returns the stamp for k, or None.
func (f *Frozen) Lookup(k uint64) int32 {
	v, _ := f.Get(k)
	return v
}

// Range calls fn for every entry until it returns false.
func (f *Frozen) Range(fn func(k uint64, v int32) bool) {
	for i, b := range f.fps {
		if b == 0 {
			continue
		}
		if !fn(f.keys[i], f.vals[i]) {
			return
		}
	}
}
