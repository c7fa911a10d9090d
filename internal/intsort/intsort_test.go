package intsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pardict/internal/pram"
)

func TestSortMatchesStdlib(t *testing.T) {
	c := pram.New(0)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 10, 1000, 50000} {
		ps := make([]Pair, n)
		keys := make([]uint64, n)
		for i := range ps {
			k := rng.Uint64() >> uint(rng.Intn(64)) // mixed magnitudes
			ps[i] = Pair{Key: k, Idx: int32(i)}
			keys[i] = k
		}
		Sort(c, ps)
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for i := range ps {
			if ps[i].Key != keys[i] {
				t.Fatalf("n=%d: pos %d key %d want %d", n, i, ps[i].Key, keys[i])
			}
		}
	}
}

func TestSortStability(t *testing.T) {
	c := pram.New(0)
	rng := rand.New(rand.NewSource(9))
	n := 20000
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{Key: uint64(rng.Intn(50)), Idx: int32(i)}
	}
	Sort(c, ps)
	for i := 1; i < n; i++ {
		if ps[i].Key == ps[i-1].Key && ps[i].Idx < ps[i-1].Idx {
			t.Fatalf("instability at %d: key %d idx %d after idx %d",
				i, ps[i].Key, ps[i].Idx, ps[i-1].Idx)
		}
	}
}

func TestSortProperty(t *testing.T) {
	c := pram.New(0)
	f := func(keys []uint64) bool {
		ps := make([]Pair, len(keys))
		for i, k := range keys {
			ps[i] = Pair{Key: k, Idx: int32(i)}
		}
		Sort(c, ps)
		for i := 1; i < len(ps); i++ {
			if ps[i-1].Key > ps[i].Key {
				return false
			}
		}
		// permutation check
		seen := make(map[int32]bool, len(ps))
		for _, p := range ps {
			if seen[p.Idx] || keys[p.Idx] != p.Key {
				return false
			}
			seen[p.Idx] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSortSkipsConstantDigits: a digit equal in every key costs no pass, so
// keys that differ only in their low two bytes cost the same counted work
// whatever constant bytes sit above them (the shape of pair keys whose high
// name is Empty, all ones), and still sort stably.
func TestSortSkipsConstantDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 5000
	low := make([]Pair, n)
	high := make([]Pair, n)
	for i := range low {
		k := uint64(rng.Intn(1 << 16))
		low[i] = Pair{Key: k, Idx: int32(i)}
		high[i] = Pair{Key: 0xFFFFFFFE_00A50000 | k, Idx: int32(i)}
	}
	work := func(ps []Pair) int64 {
		c := pram.New(1)
		Sort(c, ps)
		for i := 1; i < len(ps); i++ {
			a, b := ps[i-1], ps[i]
			if a.Key > b.Key || (a.Key == b.Key && a.Idx > b.Idx) {
				t.Fatalf("unsorted or unstable at %d: %+v then %+v", i, a, b)
			}
		}
		return c.Work()
	}
	if wl, wh := work(low), work(high); wl != wh {
		t.Fatalf("work with constant high bytes = %d, want %d (the low-bytes-only sort)", wh, wl)
	}
	same := make([]Pair, n)
	for i := range same {
		same[i] = Pair{Key: 42, Idx: int32(i)}
	}
	c := pram.New(1)
	Sort(c, same)
	if c.Work() != int64(n) {
		t.Fatalf("equal keys: work %d, want %d (the digit scan alone)", c.Work(), n)
	}
	for i, p := range same {
		if p.Idx != int32(i) {
			t.Fatalf("equal keys reordered at %d: %+v", i, p)
		}
	}
}

func TestSortUint64(t *testing.T) {
	c := pram.New(0)
	keys := []uint64{5, 3, 3, 99, 0, 1 << 60}
	SortUint64(c, keys)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("not sorted: %v", keys)
		}
	}
}

func TestRankDistinct(t *testing.T) {
	c := pram.New(0)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(40))
		}
		ps := make([]Pair, n)
		for i, k := range keys {
			ps[i] = Pair{Key: k, Idx: int32(i)}
		}
		Sort(c, ps)
		out := make([]int32, n)
		distinct := RankDistinct(c, ps, out)

		// Reference: ranks via sorted unique keys.
		uniq := append([]uint64(nil), keys...)
		sort.Slice(uniq, func(a, b int) bool { return uniq[a] < uniq[b] })
		uniq = dedup(uniq)
		if distinct != len(uniq) {
			t.Fatalf("distinct = %d, want %d", distinct, len(uniq))
		}
		for i, k := range keys {
			want := sort.Search(len(uniq), func(j int) bool { return uniq[j] >= k })
			if out[i] != int32(want) {
				t.Fatalf("rank of keys[%d]=%d: got %d want %d", i, k, out[i], want)
			}
		}
	}
}

func dedup(xs []uint64) []uint64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func TestRankDistinctEmpty(t *testing.T) {
	c := pram.New(0)
	if d := RankDistinct(c, nil, nil); d != 0 {
		t.Fatalf("distinct of empty = %d", d)
	}
}

// TestSortChargeIndependentOfPool sorts the same keys on pools of one, two
// and four processors, whose histogram chunks differ, and requires the same
// counted Work and Depth from each.
func TestSortChargeIndependentOfPool(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	var work, depth []int64
	for _, procs := range []int{1, 2, 4} {
		c := pram.New(procs)
		ps := make([]Pair, len(keys))
		for i, k := range keys {
			ps[i] = Pair{Key: k, Idx: int32(i)}
		}
		Sort(c, ps)
		work, depth = append(work, c.Work()), append(depth, c.Depth())
	}
	if work[0] != work[1] || work[1] != work[2] || depth[0] != depth[1] || depth[1] != depth[2] {
		t.Fatalf("work %v, depth %v at 1, 2, 4 processors; want equal", work, depth)
	}
}
