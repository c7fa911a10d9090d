// Package flathash implements the open-addressed hash table the scan and
// build paths use in place of Go's map[uint64]V: a power-of-two table split
// into three flat arrays — an 8-bit fingerprint array probed first, then
// parallel key and value arrays — with linear probing and backward-shift
// deletion.
//
// The point is memory layout, not asymptotics. A Go map lookup chases
// bucket pointers and touches tophash, key, and value cells spread across
// heap objects; a flathash probe is one fingerprint byte load (which on a
// miss usually settles the question within a cache line) followed by at most
// one key compare in a contiguous array. The engines perform one such lookup
// per text position per cascade level, so the difference is the dominant
// constant factor of the whole matcher (EXPERIMENTS.md E15).
//
// Tables support single-writer mutation with concurrent-reader safety only
// while no writer is active. Growth rehashes in place of the old arrays, so
// readers must not overlap writers.
package flathash

// fib64 is the Fibonacci multiplier 2^64/φ used to spread uint64 keys; the
// high bits of k*fib64 index the table and bits 48..55 provide the
// fingerprint, so the two are decorrelated for any table size below 2^48.
const fib64 = 0x9E3779B97F4A7C15

// minSize keeps even tiny tables one cache line wide so the first probes of
// a growing table never rehash more than a handful of entries.
const minSize = 8

// Map is an open-addressed uint64 -> V hash table. The zero value is an
// empty usable map (it allocates on first Put). Reads are lock-free and safe
// concurrently with each other, but not with a writer.
type Map[V any] struct {
	fps   []uint8 // 0 = empty slot; otherwise a nonzero hash fingerprint
	keys  []uint64
	vals  []V
	mask  uint64
	shift uint
	n     int
}

// New returns a map pre-sized for about n entries.
func New[V any](n int) *Map[V] {
	m := &Map[V]{}
	m.init(sizeFor(n))
	return m
}

func sizeFor(n int) int {
	size := minSize
	for size < 2*n {
		size <<= 1
	}
	return size
}

func (m *Map[V]) init(size int) {
	m.fps = make([]uint8, size)
	m.keys = make([]uint64, size)
	m.vals = make([]V, size)
	m.mask = uint64(size - 1)
	m.shift = 64
	for s := size; s > 1; s >>= 1 {
		m.shift--
	}
	m.n = 0
}

// fingerprint derives the nonzero 8-bit tag stored in the fps array.
func fingerprint(h uint64) uint8 {
	fp := uint8(h >> 48)
	if fp == 0 {
		fp = 1
	}
	return fp
}

// Len reports the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value for k and whether it is present.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if m.fps == nil {
		var zero V
		return zero, false
	}
	h := k * fib64
	fp := fingerprint(h)
	i := h >> m.shift
	for {
		f := m.fps[i]
		if f == 0 {
			var zero V
			return zero, false
		}
		if f == fp && m.keys[i] == k {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
}

// Put inserts or overwrites the value for k. Single-writer only.
func (m *Map[V]) Put(k uint64, v V) {
	i, ok := m.slot(k)
	if ok {
		m.vals[i] = v
		return
	}
	m.insertAt(i, k, v)
}

// PutIfAbsent inserts v for k if absent and returns the resident value along
// with whether an insert happened. Single-writer only.
func (m *Map[V]) PutIfAbsent(k uint64, v V) (resident V, inserted bool) {
	i, ok := m.slot(k)
	if ok {
		return m.vals[i], false
	}
	m.insertAt(i, k, v)
	return v, true
}

// slot probes for k, returning its slot when present (ok=true) or the empty
// slot where it would be inserted (ok=false). The caller must not mutate the
// table between slot and insertAt.
func (m *Map[V]) slot(k uint64) (uint64, bool) {
	if m.fps == nil {
		m.init(minSize)
	}
	h := k * fib64
	fp := fingerprint(h)
	i := h >> m.shift
	for {
		f := m.fps[i]
		if f == 0 {
			return i, false
		}
		if f == fp && m.keys[i] == k {
			return i, true
		}
		i = (i + 1) & m.mask
	}
}

func (m *Map[V]) insertAt(i uint64, k uint64, v V) {
	// Grow at 7/8 load: linear probing degrades sharply past that.
	if 8*(m.n+1) > 7*len(m.fps) {
		m.grow()
		i, _ = m.slot(k)
	}
	m.fps[i] = fingerprint(k * fib64)
	m.keys[i] = k
	m.vals[i] = v
	m.n++
}

func (m *Map[V]) grow() {
	oldFps, oldKeys, oldVals := m.fps, m.keys, m.vals
	m.init(2 * len(oldFps))
	for j, f := range oldFps {
		if f == 0 {
			continue
		}
		i, _ := m.slot(oldKeys[j])
		m.fps[i] = f
		m.keys[i] = oldKeys[j]
		m.vals[i] = oldVals[j]
		m.n++
	}
}

// Delete removes k, reporting whether it was present. Single-writer only.
// Deletion is backward-shift (no tombstones): subsequent entries of the
// probe cluster are moved up so probe chains stay dense and lookups never
// slow down after churn.
func (m *Map[V]) Delete(k uint64) bool {
	i, ok := m.slot(k)
	if !ok {
		return false
	}
	m.n--
	// Backward-shift: walk the cluster after i; any entry whose home slot is
	// at or before the hole (cyclically) fills it, opening a new hole.
	hole := i
	j := (i + 1) & m.mask
	for {
		if m.fps[j] == 0 {
			break
		}
		home := (m.keys[j] * fib64) >> m.shift
		// Entry at j may move into the hole iff its home position does not
		// lie in the cyclic interval (hole, j].
		if cyclicBetween(hole, home, j) {
			j = (j + 1) & m.mask
			continue
		}
		m.fps[hole] = m.fps[j]
		m.keys[hole] = m.keys[j]
		m.vals[hole] = m.vals[j]
		hole = j
		j = (j + 1) & m.mask
	}
	m.fps[hole] = 0
	m.keys[hole] = 0
	var zero V
	m.vals[hole] = zero
	return true
}

// cyclicBetween reports whether x lies in the cyclic half-open interval
// (lo, hi] of table indices.
func cyclicBetween(lo, x, hi uint64) bool {
	if lo <= hi {
		return lo < x && x <= hi
	}
	return lo < x || x <= hi
}

// Range calls f for every entry until f returns false. Iteration order is
// unspecified but deterministic for a given insertion history. The table
// must not be mutated during Range.
func (m *Map[V]) Range(f func(k uint64, v V) bool) {
	for i, fp := range m.fps {
		if fp == 0 {
			continue
		}
		if !f(m.keys[i], m.vals[i]) {
			return
		}
	}
}
