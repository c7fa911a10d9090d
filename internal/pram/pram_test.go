package pram

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	c := New(4)
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 10000} {
		seen := make([]int32, n)
		c.For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

func TestForChunkPartition(t *testing.T) {
	c := New(8)
	n := 12345
	var total atomic.Int64
	c.ForChunk(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != int64(n) {
		t.Fatalf("covered %d of %d", total.Load(), n)
	}
}

func TestWorkDepthCounters(t *testing.T) {
	c := New(4)
	c.For(100, func(int) {})
	if c.Work() != 100 {
		t.Fatalf("work = %d, want 100", c.Work())
	}
	if c.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", c.Depth())
	}
	c.ResetStats()
	if c.Work() != 0 || c.Depth() != 0 {
		t.Fatal("reset failed")
	}
	c.AddWork(5)
	c.AddDepth(2)
	if c.Work() != 5 || c.Depth() != 2 {
		t.Fatal("manual charge failed")
	}
}

// TestExclusiveScan checks the prefix sums and the counted charge, one phase
// up to seqScanThreshold and two above it, on one- and three-processor pools.
func TestExclusiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, procs := range []int{1, 3} {
		c := New(procs)
		for _, n := range []int{0, 1, 2, 64, 65, 100, 1024, 9999} {
			xs := make([]int64, n)
			want := make([]int64, n)
			var sum int64
			for i := range xs {
				xs[i] = int64(rng.Intn(100) - 50)
				want[i] = sum
				sum += xs[i]
			}
			c.ResetStats()
			got := c.ExclusiveScan(xs)
			if got != sum {
				t.Fatalf("procs=%d n=%d: total %d want %d", procs, n, got, sum)
			}
			for i := range xs {
				if xs[i] != want[i] {
					t.Fatalf("procs=%d n=%d: prefix[%d] = %d want %d", procs, n, i, xs[i], want[i])
				}
			}
			wantWork, wantDepth := int64(n), int64(1)
			if n == 0 {
				wantDepth = 0
			} else if n > seqScanThreshold {
				wantWork, wantDepth = 2*int64(n), 2
			}
			if c.Work() != wantWork || c.Depth() != wantDepth {
				t.Errorf("procs=%d n=%d: work/depth %d/%d, want %d/%d", procs, n, c.Work(), c.Depth(), wantWork, wantDepth)
			}
		}
	}
}

func TestExclusiveScanProperty(t *testing.T) {
	c := New(0)
	f := func(xs []int64) bool {
		cp := append([]int64(nil), xs...)
		total := c.ExclusiveScan(cp)
		var sum int64
		for i, v := range xs {
			if cp[i] != sum {
				return false
			}
			sum += v
		}
		return total == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveScanInt(t *testing.T) {
	c := New(2)
	xs := []int{3, 1, 4, 1, 5}
	total := c.ExclusiveScanInt(xs)
	want := []int{0, 3, 4, 8, 9}
	if total != 14 {
		t.Fatalf("total = %d", total)
	}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("xs = %v", xs)
		}
	}
}

func TestReduceInt64(t *testing.T) {
	c := New(4)
	n := 100000
	sum := c.ReduceInt64(n, 0, func(i int) int64 { return int64(i) },
		func(a, b int64) int64 { return a + b })
	want := int64(n) * int64(n-1) / 2
	if sum != want {
		t.Fatalf("sum = %d want %d", sum, want)
	}
	if got := c.ReduceInt64(0, -7, nil, nil); got != -7 {
		t.Fatalf("empty reduce = %d", got)
	}
}

func TestMaxInt(t *testing.T) {
	c := New(4)
	xs := []int{3, 9, 2, 9, 1}
	if got := c.MaxInt(len(xs), -1, func(i int) int { return xs[i] }); got != 9 {
		t.Fatalf("max = %d", got)
	}
	if got := c.MaxInt(0, -1, nil); got != -1 {
		t.Fatalf("empty max = %d", got)
	}
}

func TestFillAndCopy(t *testing.T) {
	c := New(4)
	xs := make([]int32, 1000)
	Fill(c, xs, 7)
	for _, v := range xs {
		if v != 7 {
			t.Fatal("fill failed")
		}
	}
	ys := make([]int32, 1000)
	Copy(c, ys, xs)
	for _, v := range ys {
		if v != 7 {
			t.Fatal("copy failed")
		}
	}
}

func TestProcsClamp(t *testing.T) {
	if New(0).Procs() < 1 {
		t.Fatal("procs must be >= 1")
	}
	if New(-3).Procs() < 1 {
		t.Fatal("procs must be >= 1")
	}
	if New(5).Procs() != 5 {
		t.Fatal("explicit procs not honored")
	}
}

func TestPhase(t *testing.T) {
	c := New(1)
	ran := false
	c.Phase(3, func() { ran = true })
	if !ran || c.Work() != 3 || c.Depth() != 1 {
		t.Fatalf("phase: ran=%v work=%d depth=%d", ran, c.Work(), c.Depth())
	}
}

func TestNestedFor(t *testing.T) {
	// Parallel phases may nest (e.g. a For body invoking another bulk op on
	// the same context); every (i, j) pair must be visited exactly once.
	c := New(4)
	const outer, inner = 37, 53
	var cells [outer][inner]int32
	c.For(outer, func(i int) {
		c.For(inner, func(j int) {
			atomic.AddInt32(&cells[i][j], 1)
		})
	})
	for i := range cells {
		for j := range cells[i] {
			if cells[i][j] != 1 {
				t.Fatalf("cell (%d,%d) visited %d times", i, j, cells[i][j])
			}
		}
	}
}

func TestForChunkSmallN(t *testing.T) {
	c := New(8)
	grain := c.Pool().grainFor(1)
	for _, n := range []int{1, 2, grain} { // at or below the grain: inline path
		calls := 0
		c.ForChunk(n, func(lo, hi int) {
			calls++
			if lo != 0 || hi != n {
				t.Fatalf("n=%d: chunk [%d,%d)", n, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("n=%d: %d calls", n, calls)
		}
	}
	c.ForChunk(0, func(lo, hi int) { t.Fatal("empty range must not call body") })
}

func TestAdaptiveGrainFansOutSmallPhases(t *testing.T) {
	// The old fixed floor of 64 would run an n=256 phase on a 32-wide pool as
	// 4 chunks; the adaptive floor must expose at least 8.
	p := NewPool(32)
	defer p.Close()
	if g := p.grainFor(256); 256/g < 8 {
		t.Fatalf("grainFor(256) = %d on 32-wide pool: only %d chunks", g, 256/g)
	}
	// Large phases keep the ~4-chunks-per-proc shape.
	if g := p.grainFor(1 << 20); g < (1<<20)/(4*32) {
		t.Fatalf("grainFor(1<<20) = %d: grain collapsed on large n", g)
	}
}

func TestScanSingleProc(t *testing.T) {
	c := New(1)
	xs := []int64{5, -2, 7}
	total := c.ExclusiveScan(xs)
	if total != 10 || xs[0] != 0 || xs[1] != 5 || xs[2] != 3 {
		t.Fatalf("xs=%v total=%d", xs, total)
	}
}
