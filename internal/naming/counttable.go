package naming

import "pardict/internal/flathash"

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
