// Benchmarks mirroring the experiments E1–E10 of EXPERIMENTS.md: one bench
// family per claim of the paper, over the same workloads cmd/benchtab
// sweeps. Run with:
//
//	go test -bench=. -benchmem
package pardict

import (
	"bytes"
	"fmt"
	"testing"

	"pardict/internal/ahocorasick"
	"pardict/internal/core"
	"pardict/internal/dictnd"
	"pardict/internal/dynamic"
	"pardict/internal/multimatch"
	"pardict/internal/pram"
	"pardict/internal/sabase"
	"pardict/internal/smallalpha"
	"pardict/internal/workload"
)

const benchN = 1 << 18

// E1 — Theorem 1/3: text matching at growing m (work Θ(n·log m)).
func BenchmarkE1StaticTextWork(b *testing.B) {
	for _, m := range []int{16, 256, 4096} {
		np := max(2, (1<<14)/m)
		pats := workload.Dictionary(1, np, m/2, m, 8)
		text := workload.PlantedText(2, benchN, 8, pats, 20)
		c := pram.New(0)
		d, err := core.Preprocess(c, pats)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.SetBytes(benchN)
			for i := 0; i < b.N; i++ {
				d.Match(c, text)
			}
		})
	}
}

// E2 — Theorem 3: preprocessing at growing M (work Θ(M)).
func BenchmarkE2PreprocWork(b *testing.B) {
	for _, logM := range []int{12, 16, 18} {
		m := 64
		pats := workload.Dictionary(3, (1<<logM)/m*2, m/2, m, 8)
		total := 0
		for _, p := range pats {
			total += len(p)
		}
		b.Run(fmt.Sprintf("M=%d", total), func(b *testing.B) {
			b.SetBytes(int64(total))
			for i := 0; i < b.N; i++ {
				c := pram.New(0)
				if _, err := core.Preprocess(c, pats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E3 — M-independence of matching, vs the suffix-array baseline.
func BenchmarkE3MIndependence(b *testing.B) {
	m := 32
	text := workload.Text(6, benchN, 16)
	for _, logM := range []int{10, 14, 18} {
		pats := workload.Dictionary(5, (1<<logM)/m, m/2, m, 16)
		c := pram.New(0)
		d, err := core.Preprocess(c, pats)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ours/logM=%d", logM), func(b *testing.B) {
			b.SetBytes(benchN)
			for i := 0; i < b.N; i++ {
				d.Match(c, text)
			}
		})
		sa := sabase.New(pats)
		b.Run(fmt.Sprintf("suffixarray/logM=%d", logM), func(b *testing.B) {
			b.SetBytes(benchN)
			for i := 0; i < b.N; i++ {
				sa.LongestMatch(text)
			}
		})
	}
}

// E4 — Theorem 4: small-alphabet engine across collapse parameters.
func BenchmarkE4SmallAlpha(b *testing.B) {
	const m, sigma = 1024, 4
	pats := workload.Dictionary(7, 64, m/2, m, sigma)
	text := workload.PlantedText(8, benchN, sigma, pats, 10)
	for _, l := range []int{1, 2, 4} {
		c := pram.New(0)
		sm, err := smallalpha.New(c, pats, sigma, l)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			b.SetBytes(benchN)
			for i := 0; i < b.N; i++ {
				sm.Match(c, text)
			}
		})
	}
}

// E5 — Theorem 6: 2-D dictionary matching at growing pattern side.
func BenchmarkE5Dict2D(b *testing.B) {
	const side = 256
	text := workload.Flat(workload.Grid(10, side, side, 4, 0.3))
	for _, m := range []int{4, 16, 32} {
		var pats [][]int32
		for _, p := range workload.SquarePatterns(9, 8, m, 4) {
			pats = append(pats, workload.Flat(p))
		}
		c := pram.New(0)
		d, err := dictnd.Preprocess(c, 2, pats)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.SetBytes(side * side)
			for i := 0; i < b.N; i++ {
				if _, err := d.Match(c, text, []int{side, side}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E6 — Theorem 8: dynamic insert cost at growing M.
func BenchmarkE6PartlyDynamic(b *testing.B) {
	const lam, sigma = 64, 8
	for _, preload := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("insert/M=%d", preload*lam), func(b *testing.B) {
			c := pram.New(0)
			d := dynamic.New()
			seed := int64(0)
			for d.LiveCount() < preload {
				_, _ = d.Insert(c, workload.Text(seed, lam, sigma))
				seed++
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := workload.Text(seed, lam, sigma)
				seed++
				if _, err := d.Insert(c, p); err != nil {
					continue
				}
				b.StopTimer()
				_ = d.Delete(c, p) // keep M steady
				b.StartTimer()
			}
		})
	}
	b.Run("match", func(b *testing.B) {
		c := pram.New(0)
		d := dynamic.New()
		for seed := int64(0); d.LiveCount() < 1<<10; seed++ {
			_, _ = d.Insert(c, workload.Text(seed, lam, sigma))
		}
		text := workload.Text(999, benchN, sigma)
		b.SetBytes(benchN)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Match(c, text)
		}
	})
}

// E7 — Theorem 10: fully dynamic churn (insert+delete pairs, incl. rebuilds).
func BenchmarkE7FullyDynamic(b *testing.B) {
	const lam, sigma = 32, 8
	c := pram.New(0)
	d := dynamic.New()
	var pats [][]int32
	for seed := int64(0); d.LiveCount() < 1<<11; seed++ {
		p := workload.Text(seed, lam, sigma)
		if _, err := d.Insert(c, p); err == nil {
			pats = append(pats, p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pats[i%len(pats)]
		if err := d.Delete(c, p); err == nil {
			_, _ = d.Insert(c, p)
		}
	}
}

// E8 — Theorem 11: equal-length matching stays flat as m grows; the general
// engine grows as log m; Aho–Corasick is the sequential yardstick.
func BenchmarkE8EqualLength(b *testing.B) {
	const sigma = 4
	for _, m := range []int{8, 128, 2048} {
		pats := workload.EqualLengthDictionary(11, 64, m, sigma)
		text := workload.PlantedText(12, benchN, sigma, pats, 5)
		c := pram.New(0)
		mm, err := multimatch.New(c, pats)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("equal/m=%d", m), func(b *testing.B) {
			b.SetBytes(benchN)
			for i := 0; i < b.N; i++ {
				mm.Match(c, text)
			}
		})
		g, err := core.Preprocess(pram.New(0), pats)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("general/m=%d", m), func(b *testing.B) {
			b.SetBytes(benchN)
			for i := 0; i < b.N; i++ {
				g.Match(c, text)
			}
		})
	}
}

// E9 — wall-clock speedup vs pool width, with Aho–Corasick for reference.
func BenchmarkE9Speedup(b *testing.B) {
	m := 64
	pats := workload.Dictionary(13, 256, m/2, m, 16)
	text := workload.PlantedText(14, benchN, 16, pats, 10)
	d, err := core.Preprocess(pram.New(0), pats)
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("procs=%d", procs)
		if procs == 0 {
			name = "procs=max"
		}
		c := pram.New(procs)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchN)
			for i := 0; i < b.N; i++ {
				d.Match(c, text)
			}
		})
	}
	ac, err := ahocorasick.New(pats)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ahocorasick", func(b *testing.B) {
		b.SetBytes(benchN)
		for i := 0; i < b.N; i++ {
			ac.LongestMatchStarting(text)
		}
	})
}

// E10 — all-matches output expansion on nested dictionaries (output-bound).
func BenchmarkE10AllMatches(b *testing.B) {
	for _, depth := range []int{4, 64} {
		pats := workload.NestedDictionary(depth)
		text := make([]int32, 1<<16)
		c := pram.New(0)
		d, err := core.Preprocess(c, pats)
		if err != nil {
			b.Fatal(err)
		}
		r := d.Match(c, text)
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var buf []int32
			total := 0
			for i := 0; i < b.N; i++ {
				total = 0
				for j := range text {
					buf = d.AllMatches(r, j, buf[:0])
					total += len(buf)
				}
			}
			b.ReportMetric(float64(total), "matches")
		})
	}
}

// Public-API benchmark: the end-to-end path a downstream user hits.
func BenchmarkPublicAPI(b *testing.B) {
	pats := workload.Dictionary(21, 512, 4, 64, 26)
	bp := make([][]byte, len(pats))
	for i, p := range pats {
		for j := range p {
			p[j] += 'a'
		}
		bp[i] = workload.Bytes(p)
	}
	m, err := NewMatcher(bp)
	if err != nil {
		b.Fatal(err)
	}
	textSyms := workload.PlantedText(22, benchN, 26, pats, 10)
	text := workload.Bytes(textSyms)
	b.SetBytes(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(text)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// E5b — the d = 3 engine at growing pattern side.
func BenchmarkE5Dict3D(b *testing.B) {
	const side = 48
	text := workload.Text(100, side*side*side, 3)
	for _, m := range []int{2, 4, 8} {
		pats := make([][]int32, 4)
		for i := range pats {
			pats[i] = workload.Text(int64(m*10+i), m*m*m, 3)
		}
		c := pram.New(0)
		d, err := dictnd.Preprocess(c, 3, pats)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.SetBytes(side * side * side)
			for i := 0; i < b.N; i++ {
				if _, err := d.Match(c, text, []int{side, side, side}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Streaming path: end-to-end chunked scanning throughput.
func BenchmarkStream(b *testing.B) {
	ip := workload.Dictionary(31, 128, 4, 32, 16)
	pats := make([][]byte, len(ip))
	for i, p := range ip {
		for j := range p {
			p[j] += 'a'
		}
		pats[i] = workload.Bytes(p)
	}
	m, err := NewMatcher(pats, WithEngine(EngineGeneral))
	if err != nil {
		b.Fatal(err)
	}
	it := workload.PlantedText(32, benchN, 16, ip, 10)
	text := workload.Bytes(it)
	b.SetBytes(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.Stream(func(int64, int) {})
		for at := 0; at < len(text); at += 1 << 14 {
			end := at + 1<<14
			if end > len(text) {
				end = len(text)
			}
			if err := s.Feed(text[at:end]); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// Serialization round trip: save, load, and the build that load amounts to
// (NewMatcher over the same patterns).
func BenchmarkSaveLoad(b *testing.B) {
	ip := workload.Dictionary(33, 1024, 4, 64, 16)
	pats := make([][]byte, len(ip))
	for i, p := range ip {
		for j := range p {
			p[j] += 'a'
		}
		pats[i] = workload.Bytes(p)
	}
	m, err := NewMatcher(pats, WithEngine(EngineGeneral))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := m.Save(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := LoadMatcher(bytes.NewReader(blob)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewMatcher(pats, WithEngine(EngineGeneral)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
