package main

import (
	"fmt"
	"runtime"

	"pardict"
	"pardict/internal/benchrow"
	"pardict/internal/workload"
)

// e19: the compressed tier. Three arms answer the same queries over the same
// corpus, byte-identically:
//
//   - raw:        Match over the already-decoded text (decode not charged —
//     the floor any compressed arm must approach on incompressible input);
//   - decompress: Decode then Match, the naive way to search a .lzc corpus;
//   - compressed: MatchCompressed over the factorization — scan only
//     phrase-boundary windows, translate copy-phrase interiors.
//
// The redundancy axis dials how much of the text is copies of earlier text
// (workload.RedundantText); the hit axis contrasts a dictionary sampled from
// the text (high hit, dense output) with random patterns (low hit, where
// window-skipping pays most). The win should grow with redundancy and shrink
// with hit density; at redundancy 0 the factorization is all literals and
// compressed degenerates to decompress-then-scan.
func e19() {
	header("E19", "Compressed tier: MatchCompressed vs decompress-then-scan vs raw scan (ns/decoded byte)")

	const sigma = 64
	n := scale(1<<22, 1<<19)
	reds := []float64{0, 0.5, 0.9, 0.97}
	sizes := []int{16, 256}
	if *quick {
		reds = []float64{0, 0.9}
		sizes = []int{64}
	}
	reps := 3
	f := record("E19", map[string]any{"n": n})

	fmt.Printf("%12s %11s %5s %9s %8s %8s %12s %10s\n",
		"arm", "redundancy", "hit", "patterns", "n", "ratio", "ns/byte", "MB/s")
	for _, red := range reds {
		text := workload.RedundantText(101, n, sigma, red)
		ct := pardict.Compress(text)
		dec := ct.Decode()
		for _, np := range sizes {
			for _, hit := range []string{"low", "high"} {
				var pats [][]byte
				if hit == "high" {
					pats = workload.SampleDictionary(202, text, np, 6, 24)
				} else {
					for _, p := range workload.Dictionary(303, np, 6, 24, sigma) {
						pats = append(pats, workload.Bytes(p))
					}
				}
				m, err := pardict.NewMatcher(pats, pardict.WithEngine(pardict.EngineGeneral))
				check(err)

				measure := func(arm string, run func()) {
					run() // warm pools and caches
					v := perByte(n, bestOf(reps, run))
					v["ratio"] = ct.Ratio() // corpus compression ratio n / container bytes
					f.Add(arm, benchrow.Params{"redundancy": red, "hit": hit, "patterns": np},
						runtime.GOMAXPROCS(0), reps, v)
					row("%12s %11.2f %5s %9d %8d %8.2f %12.2f %10.1f",
						arm, red, hit, np, n, v["ratio"], v["ns_per_byte"], v["mb_per_s"])
				}

				measure("raw", func() { m.Match(dec).Release() })
				measure("decompress", func() { m.Match(ct.Decode()).Release() })
				measure("compressed", func() { m.MatchCompressed(ct).Release() })
			}
		}
	}

	// Headline: the highest-redundancy low-hit cell, smallest dictionary.
	hiRed := reds[len(reds)-1]
	head := benchrow.Params{"redundancy": hiRed, "hit": "low", "patterns": sizes[0]}
	dz, _ := f.Get("decompress", head, 0, "ns_per_byte")
	cz, _ := f.Get("compressed", head, 0, "ns_per_byte")
	fmt.Printf("shape check: redundancy %.2f low-hit — compressed is %.2fx vs decompress-then-scan (acceptance: ≥1.5x)\n",
		hiRed, dz/cz)
}
