package pram

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolCoversAllIndices(t *testing.T) {
	p := NewPool(6)
	defer p.Close()
	c := NewCtx(nil, p)
	for _, n := range []int{1, 64, 65, 1000, 12345} {
		seen := make([]int32, n)
		c.For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

// TestForEachSpreadsFewHeavyItems: ForEach visits each index once and
// charges like For, and it fans even a two-item phase out to a second
// participant, where For would run both items inline below its grain.
func TestForEachSpreadsFewHeavyItems(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	c := NewCtx(nil, p)
	for _, n := range []int{0, 1, 2, 3, 100} {
		seen := make([]int32, n)
		c.ForEach(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
	if c.Work() != 106 || c.Depth() != 4 {
		t.Fatalf("work=%d depth=%d, want 106 and 4", c.Work(), c.Depth())
	}

	// Each item waits for the other to start: both finish on time only if
	// they run at once.
	var started sync.WaitGroup
	started.Add(2)
	both := make(chan struct{})
	go func() { started.Wait(); close(both) }()
	var met atomic.Int32
	c.ForEach(2, func(int) {
		started.Done()
		select {
		case <-both:
			met.Add(1)
		case <-time.After(5 * time.Second):
		}
	})
	if met.Load() != 2 {
		t.Fatal("the two items of a ForEach phase did not run concurrently")
	}
}

func TestPoolReusedAcrossPhases(t *testing.T) {
	// Hundreds of short dependent phases on one pool — the paper's O(log m)
	// cascade shape. Every phase must complete and the counters must add up.
	p := NewPool(4)
	defer p.Close()
	c := NewCtx(nil, p)
	const n, phases = 512, 400
	xs := make([]int64, n)
	for ph := 0; ph < phases; ph++ {
		c.For(n, func(i int) { xs[i]++ })
	}
	for i, v := range xs {
		if v != phases {
			t.Fatalf("xs[%d] = %d, want %d", i, v, phases)
		}
	}
	if c.Work() != int64(n*phases) || c.Depth() != int64(phases) {
		t.Fatalf("work=%d depth=%d, want %d/%d", c.Work(), c.Depth(), n*phases, phases)
	}
}

func TestConcurrentCtxsShareOnePool(t *testing.T) {
	// MatchBatch's shape: several submitters pipelining phases into one pool.
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewCtx(nil, p)
			n := 1000 + 37*g
			xs := make([]int64, n)
			for ph := 0; ph < 50; ph++ {
				c.For(n, func(i int) { xs[i]++ })
			}
			for i, v := range xs {
				if v != 50 {
					t.Errorf("goroutine %d: xs[%d] = %d", g, i, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNestedPhasesOnPool(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	c := NewCtx(nil, p)
	const outer, inner = 40, 200
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

func TestCancelBeforePhase(t *testing.T) {
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCtx(gctx, Shared(4))
	ran := false
	c.For(100000, func(int) { ran = true })
	if ran {
		t.Fatal("body ran under an already-canceled context")
	}
	if !errors.Is(c.Err(), ErrCanceled) {
		t.Fatalf("Err() = %v, want ErrCanceled", c.Err())
	}
	if c.Cause() == nil {
		t.Fatal("Cause() must surface the context error")
	}
	// Accounting still charged: cancellation must not distort Work/Depth of
	// the phases that were issued.
	if c.Work() != 100000 || c.Depth() != 1 {
		t.Fatalf("work=%d depth=%d", c.Work(), c.Depth())
	}
}

func TestCancelMidPhaseUnblocksAndPoolSurvives(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	gctx, cancel := context.WithCancel(context.Background())
	c := NewCtx(gctx, p)
	n := 1 << 16
	var executed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Each element spins briefly so the phase is long enough to cancel
		// mid-flight.
		c.For(n, func(i int) {
			executed.Add(1)
			if i == 0 {
				cancel()
			}
			time.Sleep(time.Microsecond)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("canceled phase did not unblock")
	}
	if got := executed.Load(); got == int64(n) {
		t.Fatalf("cancellation skipped nothing (executed all %d)", got)
	}
	if !c.Canceled() {
		t.Fatal("ctx must report canceled")
	}

	// The shared pool must not be wedged: a fresh Ctx on the same pool runs
	// a full phase to completion.
	c2 := NewCtx(nil, p)
	var sum atomic.Int64
	c2.For(1000, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 499500 {
		t.Fatalf("pool wedged after cancellation: sum=%d", sum.Load())
	}
}

func TestCancelDoesNotLeakGoroutines(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Warm the pool and take a baseline.
	NewCtx(nil, p).For(10000, func(int) {})
	runtime.GC()
	base := runtime.NumGoroutine()
	for rep := 0; rep < 20; rep++ {
		gctx, cancel := context.WithCancel(context.Background())
		c := NewCtx(gctx, p)
		cancel()
		c.For(1<<15, func(int) {})
	}
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("goroutines grew %d -> %d after canceled phases", base, got)
	}
}

func TestSharedPoolSingleton(t *testing.T) {
	if Shared(3) != Shared(3) {
		t.Fatal("Shared must return one pool per width")
	}
	if Shared(3).Procs() != 3 {
		t.Fatal("Shared pool width wrong")
	}
}

func TestSpawnForChunkCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 1000, 12345} {
		seen := make([]int32, n)
		SpawnForChunk(4, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

func TestPoolCloseStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(8)
	NewCtx(nil, p).For(10000, func(int) {})
	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("workers did not exit after Close: %d -> %d goroutines",
		before, runtime.NumGoroutine())
}

func TestMaxIntEvaluatesEachIndexOnce(t *testing.T) {
	c := New(4)
	n := 1000
	counts := make([]int32, n)
	got := c.MaxInt(n, -1, func(i int) int {
		atomic.AddInt32(&counts[i], 1)
		return -i
	})
	if got != 0 {
		t.Fatalf("max = %d, want 0", got)
	}
	for i, v := range counts {
		if v != 1 {
			t.Fatalf("f(%d) evaluated %d times", i, v)
		}
	}
	// Negative-only ranges must not be clamped by a bogus identity.
	if got := c.MaxInt(3, 0, func(i int) int { return -10 - i }); got != -10 {
		t.Fatalf("negative max = %d, want -10", got)
	}
}
