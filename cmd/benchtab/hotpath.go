package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pardict/internal/benchrow"
	"pardict/internal/core"
)

// e15: the hot-path ablation behind the frozen scan tables and the
// bit-parallel prefilter. Three arms run the identical shrink-and-spawn
// cascade over the same dictionary and texts:
//
//   - map:            every table probe through a Go map (the pre-freeze
//     representation, core.Dict.BaselineMapMatch);
//   - frozen:         the flat open-addressed fingerprint tables;
//   - frozen+prefilter: frozen tables behind the rare-byte screen.
//
// The hit-rate axis plants real pattern occurrences at increasing density:
// the prefilter pays off on low-hit text (it screens almost everything) and
// degrades gracefully toward parity as hits densify. Work/Depth counters are
// identical across all arms — this table is pure execution-layer wall clock.
func e15() {
	header("E15", "Hot path: frozen flat tables + bit-parallel prefilter vs map lookups (ns/byte)")

	rng := rand.New(rand.NewSource(77))
	patterns := make([][]int32, 64)
	for i := range patterns {
		p := make([]int32, 6+rng.Intn(11))
		for k := range p {
			p[k] = int32(rng.Intn(256))
		}
		patterns[i] = p
	}
	c := ctx()
	d, err := core.Preprocess(c, patterns)
	check(err)

	n := scale(1<<20, 1<<17)
	rates := []float64{0, 0.001, 0.01, 0.1}
	reps := 3
	f := record("E15", map[string]any{"n": n})

	fmt.Printf("%18s %10s %10s %12s %10s\n", "arm", "hit-rate", "n", "ns/byte", "MB/s")
	for _, rate := range rates {
		text := make([]int32, n)
		for j := range text {
			text[j] = int32(rng.Intn(256))
		}
		for planted := 0; planted < int(rate*float64(n)); planted++ {
			p := patterns[rng.Intn(len(patterns))]
			copy(text[rng.Intn(n-len(p)):], p)
		}

		measure := func(table string, pref bool, run func()) {
			run() // warm pools and caches
			m := perByte(n, bestOf(reps, run))
			f.Add(table, benchrow.Params{"prefilter": pref, "hit_rate": rate}, runtime.GOMAXPROCS(0), reps, m)
			name := table
			if pref {
				name += "+prefilter"
			}
			row("%18s %10.3f %10d %12.2f %10.1f", name, rate, n, m["ns_per_byte"], m["mb_per_s"])
		}

		measure("map", false, func() { d.BaselineMapMatch(text) })

		r := &core.Result{}
		d.DisablePrefilter()
		measure("frozen", false, func() { d.MatchInto(c, text, r) })
		d.EnablePrefilter()
		measure("frozen", true, func() { d.MatchInto(c, text, r) })
		d.DisablePrefilter()
		r.Release()
	}

	low := func(table string, pref bool) float64 {
		v, _ := f.Get(table, benchrow.Params{"prefilter": pref, "hit_rate": 0}, 0, "ns_per_byte")
		return v
	}
	fmt.Printf("shape check: low-hit-rate speedups vs map — frozen %.2fx, frozen+prefilter %.2fx (acceptance: ≥2x)\n",
		low("map", false)/low("frozen", false), low("map", false)/low("frozen", true))
}

// perByte is the ns_per_byte and mb_per_s of scanning n bytes in d.
func perByte(n int, d time.Duration) map[string]float64 {
	return map[string]float64{
		"ns_per_byte": float64(d.Nanoseconds()) / float64(n),
		"mb_per_s":    float64(n) / 1e6 / d.Seconds(),
	}
}
