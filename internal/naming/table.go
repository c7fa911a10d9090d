package naming

import (
	"pardict/internal/flathash"
	"pardict/internal/pram"
)

// Table is the namestamping structure of §3.2: a map from elements (encoded
// as uint64 keys) to stamps (int32). It substitutes for the paper's O(M²)
// stamp tables with linear space and O(1) expected lookups.
//
// Storage is a set of open-addressed flathash shards (8-bit fingerprint
// array + flat key/value arrays, linear probing) rather than Go maps: the
// dynamic engines read these tables once per text position per cascade
// level, and the flat layout turns that probe into one or two contiguous
// cache-line touches instead of a bucket-pointer chase.
//
// A Table is filled by a single writer, one Put at a time, and spreads its
// keys over hash-selected shards so each shard grows on its own. Concurrent
// readers are safe as long as no writer is active, which matches how the
// engines use it (preprocessing and dictionary updates are serialized; text
// matching only reads). Tables whose keys are all known at once are built
// directly frozen instead (FreezeKeys).
type Table struct {
	shards []flathash.Map[int32]
	shift  uint
}

// shardMul is the multiplier for shard selection. It MUST differ from the
// multiplier flathash uses for in-shard slot indexing: both take the high
// bits of the product, so a shared multiplier would make every key of a
// shard collide on the same leading slot bits and degrade each shard into
// one table-length probe cluster (quadratic builds).
const shardMul = 0xA24BAED4963EE407

// NewTable returns an empty table with a shard count suited to c's pool (or
// a small default when c is nil).
func NewTable(c *pram.Ctx) *Table {
	procs := 4
	if c != nil {
		procs = c.Procs()
	}
	nshards := 1
	for nshards < 4*procs {
		nshards <<= 1
	}
	t := &Table{shards: make([]flathash.Map[int32], nshards)}
	t.shift = 64
	for s := nshards; s > 1; s >>= 1 {
		t.shift--
	}
	return t
}

func (t *Table) shardOf(k uint64) *flathash.Map[int32] {
	return &t.shards[(k*shardMul)>>t.shift]
}

// Get returns the stamp for k.
func (t *Table) Get(k uint64) (int32, bool) {
	return t.shardOf(k).Get(k)
}

// Lookup returns the stamp for k, or None when absent.
func (t *Table) Lookup(k uint64) int32 {
	if v, ok := t.shardOf(k).Get(k); ok {
		return v
	}
	return None
}

// Put inserts or overwrites the stamp for k. Single-writer only.
func (t *Table) Put(k uint64, v int32) {
	t.shardOf(k).Put(k, v)
}

// PutIfAbsent inserts v for k if no stamp exists and returns the resident
// stamp along with whether an insert happened. Single-writer only.
func (t *Table) PutIfAbsent(k uint64, v int32) (resident int32, inserted bool) {
	return t.shardOf(k).PutIfAbsent(k, v)
}

// Delete removes k. Single-writer only.
func (t *Table) Delete(k uint64) {
	t.shardOf(k).Delete(k)
}

// Len reports the number of entries.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		n += t.shards[i].Len()
	}
	return n
}

// Range calls f for every entry until f returns false. Iteration order is
// unspecified. Single-threaded use only.
func (t *Table) Range(f func(k uint64, v int32) bool) {
	stop := false
	for i := range t.shards {
		t.shards[i].Range(func(k uint64, v int32) bool {
			if !f(k, v) {
				stop = true
			}
			return !stop
		})
		if stop {
			return
		}
	}
}

// CountTable is the dynamic stamp-counting structure of §6.2.1: each element
// carries a stamp and a count of live tuples with that element. Deleting
// decrements the count and clears the stamp at zero. Backed by one flathash
// table (open-addressed, backward-shift deletion) so churn never degrades
// probe chains.
type CountTable struct {
	m flathash.Map[countEntry]
}

type countEntry struct {
	stamp int32
	count int32
}

// NewCountTable returns an empty CountTable.
func NewCountTable() *CountTable {
	return &CountTable{}
}

// Insert adds one tuple with element k and stamp v. If k is already present
// its resident stamp is kept (and returned); otherwise v becomes resident.
func (t *CountTable) Insert(k uint64, v int32) int32 {
	if e, ok := t.m.Get(k); ok {
		e.count++
		t.m.Put(k, e)
		return e.stamp
	}
	t.m.Put(k, countEntry{stamp: v, count: 1})
	return v
}

// Remove deletes one tuple with element k, clearing the entry when the count
// reaches zero. It reports whether the element remains present.
func (t *CountTable) Remove(k uint64) bool {
	e, ok := t.m.Get(k)
	if !ok {
		return false
	}
	e.count--
	if e.count <= 0 {
		t.m.Delete(k)
		return false
	}
	t.m.Put(k, e)
	return true
}

// Get returns the resident stamp for k.
func (t *CountTable) Get(k uint64) (int32, bool) {
	e, ok := t.m.Get(k)
	return e.stamp, ok
}

// Lookup returns the resident stamp for k, or None.
func (t *CountTable) Lookup(k uint64) int32 {
	if e, ok := t.m.Get(k); ok {
		return e.stamp
	}
	return None
}

// Count returns the live-tuple count for k.
func (t *CountTable) Count(k uint64) int {
	e, _ := t.m.Get(k)
	return int(e.count)
}

// Len reports the number of distinct elements.
func (t *CountTable) Len() int { return t.m.Len() }
