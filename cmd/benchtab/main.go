// Command benchtab regenerates the paper-vs-measured tables recorded in
// EXPERIMENTS.md. The paper (Muthukrishnan & Palem, SPAA 1993) has no
// empirical section, so the reproduction targets are its complexity claims:
// each experiment E1–E12 measures the work/depth counters (and wall time)
// of one theorem's bound and prints the shape check alongside the claim.
// E13 onward measure the execution layer and record rows in the
// internal/benchrow format, which the guard table (guards.go) checks after
// the run.
//
// Usage:
//
//	benchtab            # run everything; exit nonzero if a guard fails
//	benchtab -run E3,E9 # selected experiments
//	benchtab -quick     # smaller sweeps (CI-sized)
//	benchtab -out .     # also write BENCH_<name>.json for each experiment
//	                    # that ran and passed its guards
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pardict/internal/ahocorasick"
	"pardict/internal/benchrow"
	"pardict/internal/core"
	"pardict/internal/dict2d"
	"pardict/internal/dict3d"
	"pardict/internal/dynamic"
	"pardict/internal/match2d"
	"pardict/internal/multimatch"
	"pardict/internal/pram"
	"pardict/internal/sabase"
	"pardict/internal/smallalpha"
	"pardict/internal/workload"
)

var quick = flag.Bool("quick", false, "smaller sweeps")

// benchFiles names the BENCH_<name>.json of each experiment that records rows.
var benchFiles = map[string]string{
	"E13": "scheduler", "E14": "shard", "E15": "hotpath", "E16": "stream",
	"E18": "scaling", "E19": "lz", "E20": "writestorm",
}

func benchPath(dir, id string) string {
	return filepath.Join(dir, "BENCH_"+benchFiles[id]+".json")
}

// results holds the rows of every recording experiment that ran.
var results = map[string]*benchrow.File{}

// record starts experiment id's rows; config holds the run's fixed settings.
func record(id string, config map[string]any) *benchrow.File {
	f := benchrow.New(id, *quick, config)
	results[id] = f
	return f
}

func main() {
	runs := flag.String("run", "", "comma-separated experiment ids (default all)")
	out := flag.String("out", "", "directory to write BENCH_<name>.json into, for each "+
		"experiment that ran and passed its guards (default: write nothing)")
	flag.Parse()

	all := []struct {
		id string
		f  func()
	}{
		{"E1", e1}, {"E2", e2}, {"E3", e3}, {"E4", e4}, {"E5", e5},
		{"E6", e6}, {"E7", e7}, {"E8", e8}, {"E9", e9}, {"E10", e10},
		{"E11", e11}, {"E12", e12}, {"E13", e13}, {"E14", e14},
		{"E15", e15}, {"E16", e16}, {"E18", e18}, {"E19", e19},
		{"E20", e20},
	}
	want := map[string]bool{}
	if *runs != "" {
		for _, id := range strings.Split(*runs, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		e.f()
	}

	// Baselines are the checked-in files in the working directory, read
	// before -out can overwrite them.
	failed := checkGuards(results, ".")
	for _, e := range all {
		if f, ok := results[e.id]; ok && *out != "" {
			path := benchPath(*out, e.id)
			if failed[e.id] {
				fmt.Printf("not writing %s: %s failed its guards\n", path, e.id)
				continue
			}
			check(benchrow.Write(path, f))
			fmt.Printf("wrote %s\n", path)
		}
	}
	if len(failed) > 0 {
		os.Exit(1)
	}
}

func header(id, claim string) {
	fmt.Printf("\n=== %s — %s\n", id, claim)
}

func row(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

func ctx() *pram.Ctx { return pram.New(0) }

func scale(full, quickV int) int {
	if *quick {
		return quickV
	}
	return full
}

// e1: Theorem 1/3 — text matching work is Θ(n·log m), depth Θ(log m).
func e1() {
	header("E1", "Theorem 1/3: matching work = Θ(n·log m), depth = Θ(log m)")
	n := scale(1<<20, 1<<16)
	fmt.Printf("%8s %8s %12s %10s %8s %8s %8s\n",
		"m", "levels", "work/n", "w/n/log2m", "depth", "steals", "grain")
	for _, m := range []int{16, 64, 256, 1024, 4096} {
		np := scale(1<<16, 1<<12) / m * 2
		if np < 2 {
			np = 2
		}
		pats := workload.Dictionary(1, np, m/2, m, 8)
		text := workload.PlantedText(2, n, 8, pats, 20)
		c := ctx()
		d, err := core.Preprocess(c, pats)
		check(err)
		c.ResetStats()
		before := c.Pool().Stats()
		d.Match(c, text)
		st := c.Pool().Stats()
		wpn := float64(c.Work()) / float64(n)
		grain := meanDelta(st.GrainSum-before.GrainSum, st.Phases-before.Phases)
		row("%8d %8d %12.2f %10.3f %8d %8d %8.0f", m, d.Levels(), wpn,
			wpn/math.Log2(float64(m)), c.Depth(), st.Steals-before.Steals, grain)
	}
	fmt.Println("shape check: work/n/log2(m) column is ~constant; depth grows as ~2·log2(m);")
	fmt.Println("             steals/grain come from the scheduler counters, not the cost model.")
}

// e2: Theorem 3 — dictionary preprocessing work is Θ(M).
func e2() {
	header("E2", "Theorem 3: preprocessing work = Θ(M), depth = Θ(log m)")
	fmt.Printf("%10s %6s %14s %8s %8s\n", "M", "m", "work", "work/M", "depth")
	for _, logM := range []int{12, 14, 16, 18, 20} {
		M := 1 << logM
		if *quick && M > 1<<16 {
			break
		}
		m := 64
		pats := workload.Dictionary(3, M/m*2, m/2, m, 8)
		c := ctx()
		_, err := core.Preprocess(c, pats)
		check(err)
		total := 0
		for _, p := range pats {
			total += len(p)
		}
		row("%10d %6d %14d %8.2f %8d", total, m, c.Work(), float64(c.Work())/float64(total), c.Depth())
	}
	fmt.Println("shape check: work/M is ~constant as M grows 256-fold.")
}

// e3: headline claim — per-character matching cost independent of M,
// against the suffix-array baseline whose cost grows with the dictionary.
func e3() {
	header("E3", "§1: matching cost depends on m only — vs log M-dependent suffix-array baseline")
	n := scale(1<<19, 1<<15)
	m := 32
	fmt.Printf("%10s %12s %14s %14s\n", "M", "ours work/n", "ours ns/char", "sa ns/char")
	for _, logM := range []int{10, 12, 14, 16, 18, 20} {
		if *quick && logM > 16 {
			break
		}
		np := (1 << logM) / m
		pats := workload.Dictionary(5, np, m/2, m, 16)
		text := workload.PlantedText(6, n, 16, pats, 10)
		c := ctx()
		d, err := core.Preprocess(c, pats)
		check(err)
		c.ResetStats()
		t0 := time.Now()
		d.Match(c, text)
		ours := time.Since(t0)

		sa := sabase.New(pats)
		t0 = time.Now()
		sa.LongestMatch(text)
		saT := time.Since(t0)

		total := 0
		for _, p := range pats {
			total += len(p)
		}
		row("%10d %12.2f %14.2f %14.2f", total,
			float64(c.Work())/float64(n),
			float64(ours.Nanoseconds())/float64(n),
			float64(saT.Nanoseconds())/float64(n))
	}
	fmt.Println("shape check: our columns stay flat while the SA baseline grows with M.")
}

// e4: Theorem 4 / Corollary 1 — small-alphabet text work Θ(n·log m / L).
func e4() {
	header("E4", "Theorem 4: σ=4 text work = Θ(n·log m / L); L*=√(log m/σ) (Cor. 1)")
	n := scale(1<<20, 1<<16)
	m := 1024
	sigma := 4
	pats := workload.Dictionary(7, scale(256, 64), m/2, m, sigma)
	text := workload.PlantedText(8, n, sigma, pats, 10)
	cg := ctx()
	g, err := core.Preprocess(cg, pats)
	check(err)
	cg.ResetStats()
	t0 := time.Now()
	g.Match(cg, text)
	gT := time.Since(t0)
	fmt.Printf("general engine: work/n=%.2f  ns/char=%.2f\n",
		float64(cg.Work())/float64(n), float64(gT.Nanoseconds())/float64(n))
	fmt.Printf("%4s %12s %12s %16s\n", "L", "work/n", "ns/char", "preproc work/M")
	for _, l := range []int{1, 2, 3, 4, 6, 8} {
		c := ctx()
		sm, err := smallalpha.New(c, pats, sigma, l)
		check(err)
		pre := c.Work()
		c.ResetStats()
		t0 := time.Now()
		sm.Match(c, text)
		el := time.Since(t0)
		total := 0
		for _, p := range pats {
			total += len(p)
		}
		row("%4d %12.2f %12.2f %16.2f", l,
			float64(c.Work())/float64(n),
			float64(el.Nanoseconds())/float64(n),
			float64(pre)/float64(total))
	}
	fmt.Println("shape check: text work/n falls ~1/L; preprocessing work/M rises ~σ·L.")
}

// e5: Theorem 6 — 2-D dictionary matching work Θ(M + n·log m).
func e5() {
	header("E5", "Theorem 6: 2-D matching work = Θ(n·log m), depth = Θ(log m)")
	side := scale(512, 160)
	n := side * side
	fmt.Printf("%6s %12s %10s %8s %16s\n", "m", "work/n", "w/n/log2m", "depth", "equal-size w/n")
	for _, m := range []int{4, 8, 16, 32} {
		pats := workload.SquarePatterns(9, 8, m, 4)
		text := workload.Grid(10, side, side, 4, 0.3)
		workload.PlantGrid(text, pats[0], 3, 5)
		c := ctx()
		d, err := dict2d.Preprocess(c, pats)
		check(err)
		c.ResetStats()
		_, err = d.Match(c, text)
		check(err)
		wpn := float64(c.Work()) / float64(n)
		depth := c.Depth()

		// Equal-size bank (Theorem 11 reduction): linear work contrast.
		c2 := ctx()
		mm, err := match2d.New(c2, pats)
		check(err)
		c2.ResetStats()
		mm.Match(c2, text)
		row("%6d %12.2f %10.3f %8d %16.2f", m, wpn, wpn/math.Log2(float64(m)), depth,
			float64(c2.Work())/float64(n))
	}
	fmt.Println("shape check: dict2d work/n grows as log m; the equal-size reduction stays ~flat.")

	// d = 3 (the fixed-d extension): same shape in the cube engine.
	side3 := scale(64, 32)
	n3 := side3 * side3 * side3
	fmt.Printf("%6s %12s %10s %8s   (d=3, text %d³)\n", "m", "work/n", "w/n/log2m", "depth", side3)
	for _, m := range []int{2, 4, 8} {
		rng := int64(m)
		pats := make([][][][]int32, 4)
		for i := range pats {
			pats[i] = randCube3(rng+int64(i), m, 3)
		}
		text3 := randCube3(rng+99, side3, 3)
		c := ctx()
		d, err := dict3d.Preprocess(c, pats)
		check(err)
		c.ResetStats()
		_, err = d.Match(c, text3)
		check(err)
		wpn := float64(c.Work()) / float64(n3)
		row("%6d %12.2f %10.3f %8d", m, wpn, wpn/math.Log2(float64(m)), c.Depth())
	}
	fmt.Println("shape check (d=3): work/n = 2·log2(m)+2 — the same Θ(n·log m) shape as d=1,2.")
}

// randCube3 builds a deterministic side³ cube over [0, sigma).
func randCube3(seed int64, side, sigma int) [][][]int32 {
	flat := workload.Text(seed, side*side*side, sigma)
	out := make([][][]int32, side)
	for z := 0; z < side; z++ {
		out[z] = make([][]int32, side)
		for y := 0; y < side; y++ {
			out[z][y] = flat[(z*side+y)*side : (z*side+y+1)*side]
		}
	}
	return out
}

// e6: Theorems 7/8 — partly dynamic: insert Θ(λ·log M) work, match Θ(n·log M).
func e6() {
	header("E6", "Theorem 8: insert work = Θ(λ·log M); match work = Θ(n·log M)")
	c := ctx()
	d := dynamic.New()
	fmt.Printf("%10s %8s %14s %14s\n", "M (live)", "λ", "insert w/λ", "w/λ/log2M")
	lam := 64
	sigma := 8
	target := scale(1<<18, 1<<14)
	seed := int64(100)
	reported := 1 << 10
	for d.LiveSize() < target {
		p := workload.Text(seed, lam, sigma)
		seed++
		c.ResetStats()
		if _, err := d.Insert(c, p); err != nil {
			continue
		}
		if d.LiveSize() >= reported {
			w := float64(c.Work())
			row("%10d %8d %14.2f %14.3f", d.LiveSize(), lam, w/float64(lam),
				w/float64(lam)/math.Log2(float64(d.LiveSize())+2))
			reported *= 4
		}
	}
	n := scale(1<<19, 1<<15)
	text := workload.Text(999, n, sigma)
	c.ResetStats()
	d.Match(c, text)
	fmt.Printf("match: n=%d work/n=%.2f (log2 M=%.1f) depth=%d\n",
		n, float64(c.Work())/float64(n), math.Log2(float64(d.LiveSize())), c.Depth())
	fmt.Println("shape check: insert w/λ/log2(M) stays ~constant as M grows.")
}

// e7: Theorems 9/10 — fully dynamic deletions, amortized Θ(λ·log M).
func e7() {
	header("E7", "Theorem 10: delete work = Θ(λ·log M) amortized (squeeze rebuilds)")
	c := ctx()
	d := dynamic.New()
	sigma := 8
	lam := 32
	nPat := scale(4096, 512)
	var pats [][]int32
	for i := 0; i < nPat; i++ {
		p := workload.Text(int64(2000+i), lam, sigma)
		if _, err := d.Insert(c, p); err == nil {
			pats = append(pats, p)
		}
	}
	fmt.Printf("inserted %d patterns, M=%d\n", d.LiveCount(), d.LiveSize())
	c.ResetStats()
	t0 := time.Now()
	deleted := 0
	for _, p := range pats[:len(pats)*3/4] {
		if err := d.Delete(c, p); err == nil {
			deleted++
		}
	}
	el := time.Since(t0)
	row("deleted %d patterns: amortized work/λ = %.2f, rebuilds = %d, %.1f µs/delete",
		deleted, float64(c.Work())/float64(deleted*lam), d.Rebuilds(),
		float64(el.Microseconds())/float64(deleted))
	liveSample := pats[len(pats)*3/4:]
	text := workload.PlantedText(3000, scale(1<<16, 1<<13), sigma, liveSample, 20)
	c.ResetStats()
	r := d.Match(c, text)
	live := 0
	for _, p := range r.Pat {
		if p >= 0 {
			live++
		}
	}
	fmt.Printf("post-churn match still exact: %d live-pattern hits on random text\n", live)
	fmt.Println("shape check: amortized work/λ is a small multiple of log2(M); rebuilds > 0.")
}

// e8: Theorem 11 — equal-length matching has flat per-char work vs m.
func e8() {
	header("E8", "Theorem 11: equal-length work = Θ(n+M) — flat in m (general engine grows ~log m)")
	n := scale(1<<20, 1<<16)
	sigma := 4
	fmt.Printf("%6s %16s %16s %12s\n", "m", "equal work/n", "general work/n", "AC ns/char")
	for _, m := range []int{8, 32, 128, 512, 2048} {
		np := 64
		pats := workload.EqualLengthDictionary(11, np, m, sigma)
		text := workload.PlantedText(12, n, sigma, pats, 5)

		c1 := ctx()
		mm, err := multimatch.New(c1, pats)
		check(err)
		c1.ResetStats()
		mm.Match(c1, text)

		c2 := ctx()
		g, err := core.Preprocess(c2, pats)
		check(err)
		c2.ResetStats()
		g.Match(c2, text)

		ac, err := ahocorasick.New(pats)
		check(err)
		t0 := time.Now()
		ac.LongestMatchStarting(text)
		acT := time.Since(t0)

		row("%6d %16.2f %16.2f %12.2f", m,
			float64(c1.Work())/float64(n), float64(c2.Work())/float64(n),
			float64(acT.Nanoseconds())/float64(n))
	}
	fmt.Println("shape check: equal-length column flat; general column grows ~log2(m).")
}

// e9: the point of parallelism — wall-clock speedup vs cores, against
// sequential Aho–Corasick.
func e9() {
	header("E9", "Speedup: wall-clock matching scales with cores; Aho–Corasick does not")
	n := scale(1<<22, 1<<18)
	m := 64
	pats := workload.Dictionary(13, scale(1024, 128), m/2, m, 16)
	text := workload.PlantedText(14, n, 16, pats, 10)
	cpre := ctx()
	d, err := core.Preprocess(cpre, pats)
	check(err)

	ac, err := ahocorasick.New(pats)
	check(err)
	t0 := time.Now()
	ac.LongestMatchStarting(text)
	acT := time.Since(t0)
	fmt.Printf("Aho–Corasick (1 core): %.1f ms  (%.2f ns/char)\n",
		float64(acT.Microseconds())/1000, float64(acT.Nanoseconds())/float64(n))

	fmt.Printf("%8s %12s %10s %14s\n", "procs", "ms", "speedup", "vs AC")
	var base time.Duration
	for p := 1; p <= runtime.NumCPU(); p *= 2 {
		c := pram.New(p)
		best := bestOf(3, func() { d.Match(c, text) })
		if p == 1 {
			base = best
		}
		row("%8d %12.2f %10.2fx %13.2fx", p,
			float64(best.Microseconds())/1000,
			float64(base)/float64(best),
			float64(acT)/float64(best))
	}
	fmt.Println("shape check: speedup grows with procs; crossover vs AC once enough cores offset the log m work overhead.")
}

// e10: §2 output formats — all-matches expansion is output-bound.
func e10() {
	header("E10", "§2: all-matches output via the marked-prefix chain is output-bound")
	n := scale(1<<18, 1<<14)
	fmt.Printf("%8s %14s %14s %12s\n", "depth", "matches", "ns/match", "AC ns/match")
	for _, depth := range []int{4, 16, 64} {
		pats := workload.NestedDictionary(depth)
		text := make([]int32, n) // all zeros: every position matches `depth`-deep
		c := ctx()
		d, err := core.Preprocess(c, pats)
		check(err)
		r := d.Match(c, text)
		t0 := time.Now()
		total := 0
		var buf []int32
		for j := range text {
			buf = d.AllMatches(r, j, buf[:0])
			total += len(buf)
		}
		el := time.Since(t0)

		ac, err := ahocorasick.New(pats)
		check(err)
		t0 = time.Now()
		acTotal := 0
		ac.AllMatches(text, func(int, int32) { acTotal++ })
		acT := time.Since(t0)
		if acTotal != total {
			check(fmt.Errorf("E10 depth %d: marked-chain expansion found %d matches, Aho–Corasick %d",
				depth, total, acTotal))
		}
		row("%8d %14d %14.2f %12.2f", depth, total,
			float64(el.Nanoseconds())/float64(total),
			float64(acT.Nanoseconds())/float64(acTotal))
	}
	fmt.Println("shape check: ns/match stays ~constant while total output grows 16-fold (output-bound).")
}

// e11: ablation — deterministic sort-based naming (static engine) vs
// hash-based incremental naming (dynamic engine used statically). Probes the
// DESIGN.md §2 substitution: both are O(M)/O(n·log m), constants differ.
func e11() {
	header("E11", "Ablation: sort-based naming (core) vs incremental hash naming (dynamic)")
	m := 64
	sigma := 8
	n := scale(1<<19, 1<<15)
	fmt.Printf("%10s %16s %16s %14s %14s\n", "M", "sort pre w/M", "hash pre w/M", "sort match w/n", "hash match w/n")
	for _, logM := range []int{14, 16, 18} {
		if *quick && logM > 16 {
			break
		}
		pats := workload.Dictionary(31, (1<<logM)/m*2, m/2, m, sigma)
		total := 0
		for _, p := range pats {
			total += len(p)
		}
		text := workload.PlantedText(32, n, sigma, pats, 10)

		cs := ctx()
		d, err := core.Preprocess(cs, pats)
		check(err)
		preSort := cs.Work()
		cs.ResetStats()
		d.Match(cs, text)

		ch := ctx()
		dd := dynamic.New()
		for _, p := range pats {
			if _, err := dd.Insert(ch, p); err != nil {
				check(err)
			}
		}
		preHash := ch.Work()
		ch.ResetStats()
		dd.Match(ch, text)

		row("%10d %16.2f %16.2f %14.2f %14.2f", total,
			float64(preSort)/float64(total), float64(preHash)/float64(total),
			float64(cs.Work())/float64(n), float64(ch.Work())/float64(n))
	}
	fmt.Println("shape check: both preprocessing columns are flat in M (linear work); the hash")
	fmt.Println("variant's constant is lower (no radix passes) but its names are order-dependent,")
	fmt.Println("and its match pays the nearest-marked-ancestor pass (§6 overhead).")
}

// e12: Theorem 5 — binary re-encoding turns the σ-linear preprocessing term
// into log σ; the crossover against the plain §4.4 engine.
func e12() {
	header("E12", "Theorem 5: binary re-encoding — preprocessing σ·M·L -> M·L·log σ")
	mlen := 64
	l := 4
	np := scale(64, 16)
	fmt.Printf("%8s %6s %16s %16s %12s\n", "sigma", "bits", "plain pre w/M", "binary pre w/M", "winner")
	for _, sigma := range []int{16, 64, 256, 1024, 4096} {
		pats := workload.Dictionary(41, np, mlen/2, mlen, sigma)
		total := 0
		for _, p := range pats {
			total += len(p)
		}
		cp := ctx()
		_, err := smallalpha.New(cp, pats, sigma, l)
		check(err)
		cb := ctx()
		bm, err := smallalpha.NewBinary(cb, pats, sigma, l)
		check(err)
		winner := "plain"
		if cb.Work() < cp.Work() {
			winner = "binary"
		}
		row("%8d %6d %16.2f %16.2f %12s", sigma, bm.Bits(),
			float64(cp.Work())/float64(total), float64(cb.Work())/float64(total), winner)
	}
	fmt.Println("shape check: plain grows linearly in σ; binary grows as log σ; crossover near σ≈10³.")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

// meanDelta divides two counter deltas, guarding the empty case (e.g. the
// obs package disabled, or every phase run inline).
func meanDelta(sum, count int64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}
