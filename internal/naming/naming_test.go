package naming

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pardict/internal/pram"
)

func TestEncodeDecodePair(t *testing.T) {
	cases := [][2]int32{{0, 0}, {1, 2}, {-1, 5}, {Empty, None}, {1 << 30, -(1 << 30)}}
	for _, c := range cases {
		a, b := DecodePair(EncodePair(c[0], c[1]))
		if a != c[0] || b != c[1] {
			t.Fatalf("roundtrip (%d,%d) -> (%d,%d)", c[0], c[1], a, b)
		}
	}
}

func TestEncodePairInjective(t *testing.T) {
	f := func(a1, b1, a2, b2 int32) bool {
		if a1 == a2 && b1 == b2 {
			return EncodePair(a1, b1) == EncodePair(a2, b2)
		}
		return EncodePair(a1, b1) != EncodePair(a2, b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNameIsNamingFunction(t *testing.T) {
	// δ(s1) == δ(s2) iff s1 == s2 (§3.1 Naming definition).
	c := pram.New(0)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(2000)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(60))
		}
		names, distinct := BatchName(c, keys)
		byKey := map[uint64]int32{}
		seenName := map[int32]uint64{}
		for i, k := range keys {
			if prev, ok := byKey[k]; ok && prev != names[i] {
				t.Fatalf("equal keys got names %d and %d", prev, names[i])
			}
			byKey[k] = names[i]
			if prevKey, ok := seenName[names[i]]; ok && prevKey != k {
				t.Fatalf("name %d assigned to keys %d and %d", names[i], prevKey, k)
			}
			seenName[names[i]] = k
			if names[i] < 0 || int(names[i]) >= distinct {
				t.Fatalf("name %d out of range [0,%d)", names[i], distinct)
			}
		}
		if len(byKey) != distinct {
			t.Fatalf("distinct = %d, want %d", distinct, len(byKey))
		}
	}
}

func TestBatchNameDeterministic(t *testing.T) {
	// Names are sorted-rank based: independent of input order.
	c := pram.New(0)
	keys := []uint64{50, 10, 10, 30, 50, 20}
	names, _ := BatchName(c, keys)
	// ranks: 10->0, 20->1, 30->2, 50->3
	want := []int32{3, 0, 0, 2, 3, 1}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestBatchNameRep(t *testing.T) {
	c := pram.New(0)
	keys := []uint64{7, 3, 7, 3, 9}
	names, reps, distinct := BatchNameRep(c, keys)
	if distinct != 3 {
		t.Fatalf("distinct = %d", distinct)
	}
	for i, k := range keys {
		if keys[reps[names[i]]] != k {
			t.Fatalf("rep of name %d has key %d, want %d", names[i], keys[reps[names[i]]], k)
		}
	}
	// Rep is the first occurrence in input order (stable sort guarantee).
	if reps[names[0]] != 0 || reps[names[1]] != 1 {
		t.Fatalf("reps = %v not first occurrences", reps)
	}
}

func TestBatchNameEmpty(t *testing.T) {
	c := pram.New(0)
	names, distinct := BatchName(c, nil)
	if len(names) != 0 || distinct != 0 {
		t.Fatal("empty batch")
	}
}

// TestBuildTableFirstWins: FreezeKeys keeps the value of a key's first
// occurrence, as the arbitrary-CRCW write resolved canonically.
func TestBuildTableFirstWins(t *testing.T) {
	c := pram.New(0)
	keys := []uint64{1, 2, 1, 3, 2}
	vals := []int32{10, 20, 99, 30, 88}
	tb := FreezeKeys(c, keys, vals, 3)
	if tb.Len() != 3 {
		t.Fatalf("len = %d", tb.Len())
	}
	for k, want := range map[uint64]int32{1: 10, 2: 20, 3: 30} {
		if v, ok := tb.Get(k); !ok || v != want {
			t.Fatalf("key %d: got %d,%v want %d", k, v, ok, want)
		}
	}
}

func TestBuildTableLarge(t *testing.T) {
	c := pram.New(0)
	n := 100000
	keys := make([]uint64, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = uint64(i) * 2654435761
		vals[i] = int32(i)
	}
	tb := FreezeKeys(c, keys, vals, n)
	if tb.Len() != n {
		t.Fatalf("len = %d want %d", tb.Len(), n)
	}
	for i := 0; i < n; i += 997 {
		if v, ok := tb.Get(keys[i]); !ok || v != vals[i] {
			t.Fatalf("key %d: %d,%v", keys[i], v, ok)
		}
	}
}

// TestFreezeKeysVsMap checks the direct fill against a Go map built with the
// same first-wins rule, on key sets with heavy repetition: every key maps to
// its first value, absent keys return None, Len is the distinct count, and
// the capacity is the least power of two at least 2·distinct (and at least
// 8). An upper bound on the distinct count still gives a correct table.
func TestFreezeKeysVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 100, 5000} {
		for _, spread := range []int{1, 3, 1 << 20} {
			keys := make([]uint64, n)
			vals := make([]int32, n)
			want := map[uint64]int32{}
			for i := range keys {
				keys[i] = EncodePair(int32(rng.Intn(n/spread+1)), int32(rng.Intn(4)))
				vals[i] = int32(rng.Intn(1 << 20))
				if _, ok := want[keys[i]]; !ok {
					want[keys[i]] = vals[i]
				}
			}
			c := pram.New(0)
			f := FreezeKeys(c, keys, vals, len(want))
			if f.Len() != len(want) {
				t.Fatalf("n=%d spread=%d: Len %d, want %d", n, spread, f.Len(), len(want))
			}
			for k, v := range want {
				if got, ok := f.Get(k); !ok || got != v {
					t.Fatalf("n=%d spread=%d: key %#x = %d,%v want %d", n, spread, k, got, ok, v)
				}
			}
			for probe := 0; probe < 200; probe++ {
				k := rng.Uint64() | 1<<63 // EncodePair of nonnegative names never sets bit 63
				if got := f.Lookup(k); got != None {
					t.Fatalf("absent key %#x returned %d", k, got)
				}
			}
			size := 8
			for size < 2*len(want) {
				size <<= 1
			}
			if len(f.fps) != size {
				t.Fatalf("n=%d spread=%d: capacity %d, want %d", n, spread, len(f.fps), size)
			}
			if n > 0 {
				if c.Work() == 0 {
					t.Fatalf("fill charged no work")
				}
				loose := FreezeKeys(c, keys, vals, n)
				for k, v := range want {
					if got := loose.Lookup(k); got != v {
						t.Fatalf("upper-bound fill: key %#x = %d want %d", k, got, v)
					}
				}
			}
		}
	}
}

// TestFreezeKeysUndercount: declaring fewer distinct keys than the input
// holds is a caller bug, caught before the table could overfill.
func TestFreezeKeysUndercount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FreezeKeys(pram.New(1), []uint64{1, 2, 3}, []int32{1, 2, 3}, 2)
}

func TestCountTable(t *testing.T) {
	ct := NewCountTable()
	if got := ct.Insert(1, 11); got != 11 {
		t.Fatalf("first insert stamp %d", got)
	}
	if got := ct.Insert(1, 99); got != 11 {
		t.Fatalf("second insert must keep resident stamp, got %d", got)
	}
	if ct.Count(1) != 2 {
		t.Fatalf("count = %d", ct.Count(1))
	}
	if !ct.Remove(1) {
		t.Fatal("remove with remaining refs must report present")
	}
	if v, ok := ct.Get(1); !ok || v != 11 {
		t.Fatal("stamp must survive partial removal")
	}
	if ct.Remove(1) {
		t.Fatal("last removal must clear")
	}
	if _, ok := ct.Get(1); ok {
		t.Fatal("entry must be gone")
	}
	if ct.Remove(42) {
		t.Fatal("removing absent key must report absent")
	}
	if ct.Lookup(42) != None {
		t.Fatal("lookup of absent must be None")
	}
	if ct.Len() != 0 {
		t.Fatalf("len = %d", ct.Len())
	}
}

// TestFrozenMatchesTable checks a large frozen table against a Go map
// reference: lookups, misses, and a Range that visits every entry once.
func TestFrozenMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ref := map[uint64]int32{}
	var keys []uint64
	var vals []int32
	put := func(k uint64, v int32) {
		if _, ok := ref[k]; !ok {
			ref[k] = v
			keys = append(keys, k)
			vals = append(vals, v)
		}
	}
	// Adversarial keys first: 0 and clustered small keys.
	put(0, 7)
	for k := uint64(1); k < 100; k++ {
		put(k, int32(k))
	}
	put(200, Empty) // Empty is storable (only None is reserved)
	for i := 0; i < 50000; i++ {
		put(rng.Uint64(), int32(rng.Intn(1<<30)))
	}
	f := FreezeKeys(pram.New(0), keys, vals, len(ref))
	if f.Len() != len(ref) {
		t.Fatalf("len %d vs %d", f.Len(), len(ref))
	}
	for k, v := range ref {
		if got := f.Lookup(k); got != v {
			t.Fatalf("key %d: got %d want %d", k, got, v)
		}
	}
	for i := 0; i < 10000; i++ {
		k := rng.Uint64()
		if _, ok := ref[k]; ok {
			continue
		}
		if v, ok := f.Get(k); ok {
			t.Fatalf("phantom hit: key %d -> %d", k, v)
		}
	}
	// Range visits every entry exactly once and stops when told to.
	seen := map[uint64]bool{}
	f.Range(func(k uint64, v int32) bool {
		if seen[k] || ref[k] != v {
			t.Fatalf("range anomaly at key %d", k)
		}
		seen[k] = true
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("range visited %d of %d", len(seen), len(ref))
	}
	count := 0
	f.Range(func(uint64, int32) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestFrozenEmpty(t *testing.T) {
	c := pram.New(0)
	f := FreezeKeys(c, nil, nil, 0)
	if _, ok := f.Get(42); ok {
		t.Fatal("empty frozen hit")
	}
	if f.Len() != 0 || len(f.fps) != 8 {
		t.Fatalf("len %d, capacity %d", f.Len(), len(f.fps))
	}
	if c.Work() != 0 || c.Depth() != 0 {
		t.Fatalf("empty fill charged %d/%d", c.Work(), c.Depth())
	}
}

func TestFreezeRejectsNoneValues(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FreezeKeys(pram.New(0), []uint64{1}, []int32{None}, 1)
}
