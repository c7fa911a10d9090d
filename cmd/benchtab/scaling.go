package main

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"

	"pardict"
	"pardict/internal/benchrow"
	"pardict/internal/core"
	"pardict/internal/pram"
	"pardict/internal/prefilter"
)

var scaleMax = flag.Int("scalemax", 0,
	"E18 sweep ceiling for GOMAXPROCS (0 = NumCPU); levels double from 1. "+
		"Set above NumCPU to probe oversubscription on small machines")
var scalePin = flag.Bool("scalepin", false,
	"E18: pin the measuring thread to the first GOMAXPROCS CPUs of the affinity "+
		"mask per level (Linux best-effort; see affinity_linux.go)")

// E18 arm names. The scan arms run the full shrink-and-spawn cascade on the
// general engine with the prefilter off / scalar / wide; the shard arm runs
// the sharded matcher end to end (scatter, per-shard scan, gather); the
// kernel arms time the two prefilter screens alone, single-threaded, and
// exist to pin the wide-vs-scalar kernel ratio independent of cascade cost.
const (
	armScanOff      = "scan-off"
	armScanScalar   = "scan-scalar"
	armScanWide     = "scan-wide"
	armShard        = "shard4"
	armKernelScalar = "kernel-scalar"
	armKernelWide   = "kernel-wide"
)

// scaleLevels doubles from 1 to the sweep ceiling, always ending exactly at
// the ceiling so the headline level is measured even when it is not a power
// of two.
func scaleLevels() []int {
	max := *scaleMax
	if max <= 0 {
		max = runtime.NumCPU()
	}
	var out []int
	for g := 1; g < max; g *= 2 {
		out = append(out, g)
	}
	return append(out, max)
}

// e18: the multi-core scaling study. Every arm scans the identical texts at
// every GOMAXPROCS level; throughput per level, speedup over the level-1 row
// and efficiency against the attainable parallelism quantify how the engine
// saturates real silicon. The kernel arms additionally pin the wide-vs-scalar
// prefilter ratio (acceptance: ≥3x on low-hit text). Work/Depth counters are
// identical across scan arms and levels — the sweep is pure execution layer.
func e18() {
	header("E18", "Scaling: GOMAXPROCS sweep — cascade arms, sharded matcher, prefilter kernels")
	levels := scaleLevels()

	rng := rand.New(rand.NewSource(88))
	bytePats := make([][]byte, 64)
	intPats := make([][]int32, len(bytePats))
	for i := range bytePats {
		p := make([]byte, 6+rng.Intn(11))
		for k := range p {
			p[k] = byte(rng.Intn(256))
		}
		bytePats[i] = p
		intPats[i] = encodeBytes(p)
	}

	n := scale(1<<20, 1<<17)
	rates := []float64{0, 0.01}
	reps := 3
	f := record("E18", map[string]any{"n": n, "scale_max": levels[len(levels)-1], "pinned": *scalePin})
	byteTexts := make(map[float64][]byte, len(rates))
	intTexts := make(map[float64][]int32, len(rates))
	for _, rate := range rates {
		text := make([]byte, n)
		rng.Read(text)
		for planted := 0; planted < int(rate*float64(n)); planted++ {
			p := bytePats[rng.Intn(len(bytePats))]
			copy(text[rng.Intn(n-len(p)):], p)
		}
		byteTexts[rate] = text
		intTexts[rate] = encodeBytes(text)
	}

	cpre := ctx()
	d, err := core.Preprocess(cpre, intPats)
	check(err)
	defer d.DisablePrefilter()

	fmt.Printf("%14s %10s %6s %12s %10s %9s %11s %9s %8s\n",
		"arm", "hit-rate", "procs", "ns/byte", "MB/s", "speedup", "efficiency", "balance", "steals")

	// emit records one cell, adding speedup (MB/s over the same arm and rate
	// at GOMAXPROCS=1, measured first) and efficiency: speedup over
	// min(gomaxprocs, NumCPU), the attainable parallelism, so a sweep past
	// NumCPU still reads 1.0 at perfect scaling and oversubscribed levels are
	// judged on "don't collapse" rather than impossible linearity.
	emit := func(arm string, rate float64, g int, m map[string]float64) {
		params := benchrow.Params{"hit_rate": rate}
		base := m["mb_per_s"]
		if g > 1 {
			base, _ = f.Get(arm, params, 1, "mb_per_s")
		}
		m["speedup"] = m["mb_per_s"] / base
		m["efficiency"] = m["speedup"] / float64(max(1, min(g, runtime.NumCPU())))
		f.Add(arm, params, g, reps, m)
		row("%14s %10.3f %6d %12.2f %10.1f %8.2fx %11.2f %9.2f %8.0f",
			arm, rate, g, m["ns_per_byte"], m["mb_per_s"], m["speedup"], m["efficiency"],
			m["balance"], m["steals"])
	}

	// Kernel arms: single-threaded, low-hit text, full word range per run.
	{
		pf := prefilter.Build(intPats)
		text := intTexts[0]
		words := (len(text) + 63) / 64
		out := make([]uint64, words)
		for _, k := range []struct {
			arm string
			run func()
		}{
			{armKernelScalar, func() { pf.ScanWords(text, out, 0, words) }},
			{armKernelWide, func() { pf.ScanWordsWide(text, out, 0, words) }},
		} {
			k.run()
			emit(k.arm, 0, 1, perByte(n, bestOf(reps, k.run)))
		}
	}

	prevG := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevG)
	for _, g := range levels {
		var unpin func()
		if *scalePin {
			var err error
			if unpin, err = pinCPUs(g); err != nil {
				fmt.Printf("pinning unavailable (%v); continuing unpinned\n", err)
				*scalePin = false
				f.Config["pinned"] = false
			}
		}
		runtime.GOMAXPROCS(g)
		for _, rate := range rates {
			// Cascade arms share one frozen dictionary; each level gets a
			// fresh pool so the balance/steal deltas are per-cell.
			for _, arm := range []struct {
				name  string
				setup func()
			}{
				{armScanOff, d.DisablePrefilter},
				{armScanScalar, d.EnablePrefilter},
				{armScanWide, d.EnablePrefilterWide},
			} {
				arm.setup()
				pool := pram.NewPool(g)
				c := pram.NewCtx(nil, pool)
				r := &core.Result{}
				text := intTexts[rate]
				run := func() { d.MatchInto(c, text, r) }
				emit(arm.name, rate, g, measureScale(n, reps, run,
					pool.WorkerChunks, func() int64 { return pool.Stats().Steals }))
				r.Release()
				pool.Close()
			}

			// Sharded arm: the full scatter/scan/gather path over 4 shards.
			spool := pardict.NewPool(g)
			sm, err := pardict.NewShardedMatcher(
				pardict.WithShards(4), pardict.WithPool(spool))
			check(err)
			check(sm.Reload(bytePats))
			text := byteTexts[rate]
			run := func() { sm.Match(text) }
			emit(armShard, rate, g, measureScale(n, reps, run,
				spool.WorkerChunks, func() int64 { return spool.Stats().Steals }))
			sm.Close()
			spool.Close()
		}
		runtime.GOMAXPROCS(prevG)
		if unpin != nil {
			unpin()
		}
	}

	ks, _ := f.Get(armKernelScalar, benchrow.Params{"hit_rate": 0}, 1, "mb_per_s")
	kw, _ := f.Get(armKernelWide, benchrow.Params{"hit_rate": 0}, 1, "mb_per_s")
	fmt.Printf("shape check: low-hit efficiency ~1.0 up to NumCPU (flat under oversubscription);\n")
	fmt.Printf("             wide/scalar kernel ratio %.2fx (acceptance: ≥3x); balance ≈ 1 under stealing.\n",
		kw/ks)
}

// measureScale times one sweep cell: warm run, best of reps, per-slot chunk
// and steal deltas bracketing the timed interval. balance is max/mean of the
// per-slot chunk counts (1.0 = perfectly even; see Pool.WorkerChunks).
func measureScale(n, reps int, run func(), workerChunks func() []int64, steals func() int64) map[string]float64 {
	run() // warm pool, caches, and lazily-built tables
	chunks0, steals0 := workerChunks(), steals()
	best := bestOf(reps, run)
	chunks1 := workerChunks()
	var maxC, sumC int64
	for i := range chunks1 {
		c := chunks1[i] - chunks0[i]
		sumC += c
		if c > maxC {
			maxC = c
		}
	}
	m := perByte(n, best)
	m["steals"] = float64(steals() - steals0)
	if sumC > 0 {
		m["balance"] = float64(maxC) * float64(len(chunks1)) / float64(sumC)
	}
	return m
}

// encodeBytes widens a byte string to the engine's int32 symbols.
func encodeBytes(b []byte) []int32 {
	out := make([]int32, len(b))
	for i, c := range b {
		out[i] = int32(c)
	}
	return out
}
