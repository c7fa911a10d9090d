package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pardict/internal/benchrow"
	"pardict/internal/pram"
)

// e13: the executor ablation behind the persistent pool — per-phase cost of
// spawning a fresh goroutine set (the historic executor, kept as
// pram.SpawnForChunk) vs waking the parked workers of a persistent
// work-stealing pool. The paper's algorithms are cascades of O(log m) short
// dependent phases, so per-phase overhead multiplies directly into match
// latency.
func e13() {
	header("E13", "Scheduler: spawn-per-phase vs persistent work-stealing pool (per-phase ns)")
	f := record("E13", map[string]any{})
	fmt.Printf("%6s %10s %8s %14s %14s %9s\n",
		"procs", "n", "phases", "spawn ns/ph", "pool ns/ph", "speedup")
	for _, procs := range []int{4, 8} {
		pool := pram.NewPool(procs)
		for _, n := range []int{256, 1024, 4096, 1 << 16, 1 << 20} {
			if *quick && n > 1<<16 {
				continue
			}
			phases := scale(1<<22, 1<<19) / n
			if phases < 8 {
				phases = 8
			}
			xs := make([]int64, n)
			body := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					xs[i]++
				}
			}

			spawnNs := bestOf(3, func() {
				for ph := 0; ph < phases; ph++ {
					pram.SpawnForChunk(procs, n, body)
				}
			})

			c := pram.NewCtx(nil, pool)
			poolNs := bestOf(3, func() {
				for ph := 0; ph < phases; ph++ {
					c.ForChunk(n, body)
				}
			})

			params := benchrow.Params{"procs": procs, "n": n, "phases": phases}
			spawn := float64(spawnNs.Nanoseconds()) / float64(phases)
			pooled := float64(poolNs.Nanoseconds()) / float64(phases)
			g := runtime.GOMAXPROCS(0)
			f.Add("spawn", params, g, 3, map[string]float64{"ns_per_phase": spawn})
			// speedup is spawn/pool: > 1 means the pool wins.
			f.Add("pool", params, g, 3, map[string]float64{"ns_per_phase": pooled, "speedup": spawn / pooled})
			row("%6d %10d %8d %14.0f %14.0f %8.2fx", procs, n, phases, spawn, pooled, spawn/pooled)
		}
		st := pool.Stats()
		fmt.Printf("   pool counters (procs=%d): phases=%d pooled=%d chunks=%d steals=%d parks=%d mean-grain=%.0f mean-queue=%.2f\n",
			procs, st.Phases, st.PooledPhases, st.Chunks, st.Steals, st.Parks,
			meanDelta(st.GrainSum, st.Phases), meanDelta(st.QueueSum, st.PooledPhases))
		pool.Close()
	}
	fmt.Println("shape check: pool ns/phase below spawn on short phases (n ≤ 4096); parity on long.")
}

// bestOf returns the minimum wall time over reps runs of run (minimum, not
// mean: scheduler-noise outliers only ever add time).
func bestOf(reps int, run func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		run()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}
