// Package workload generates the deterministic synthetic inputs the
// experiment harness sweeps over: random and Markov texts, dictionaries with
// controlled length distributions, DNA/binary alphabets, 2-D textures, and
// adversarial (periodic, nested) inputs. Everything is seeded, so every
// experiment in EXPERIMENTS.md reproduces bit-for-bit.
//
// The paper has no workloads of its own (it is a theory paper); these stand
// in for the inputs its bounds quantify over, chosen to stress each bound's
// parameter (n, M, m, σ, λ).
package workload

import "math/rand"

// Text returns n symbols drawn uniformly from [0, sigma).
func Text(seed int64, n, sigma int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(sigma))
	}
	return out
}

// MarkovText returns n symbols from an order-1 Markov chain over [0, sigma)
// with self-transition bias q (0..1): larger q yields longer runs, which
// stresses shared-prefix paths in the engines.
func MarkovText(seed int64, n, sigma int, q float64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	cur := int32(rng.Intn(sigma))
	for i := range out {
		if rng.Float64() >= q {
			cur = int32(rng.Intn(sigma))
		}
		out[i] = cur
	}
	return out
}

// Dictionary returns np distinct patterns with lengths drawn uniformly from
// [minLen, maxLen] over [0, sigma). It panics if np distinct patterns of
// those lengths cannot exist.
func Dictionary(seed int64, np, minLen, maxLen, sigma int) [][]int32 {
	if !feasible(np, minLen, maxLen, sigma) {
		panic("workload: infeasible dictionary request")
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	out := make([][]int32, 0, np)
	for len(out) < np {
		l := minLen
		if maxLen > minLen {
			l += rng.Intn(maxLen - minLen + 1)
		}
		p := make([]int32, l)
		b := make([]byte, 2*l)
		for i := range p {
			v := int32(rng.Intn(sigma))
			p[i] = v
			b[2*i] = byte(v)
			b[2*i+1] = byte(v >> 8)
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		out = append(out, p)
	}
	return out
}

func feasible(np, minLen, maxLen, sigma int) bool {
	if minLen < 1 || maxLen < minLen || sigma < 1 {
		return false
	}
	total := 0.0
	pow := 1.0
	for l := 1; l <= maxLen; l++ {
		pow *= float64(sigma)
		if l >= minLen {
			total += pow
		}
		if total > float64(np) {
			return true
		}
	}
	return total >= float64(np)
}

// EqualLengthDictionary returns np distinct patterns all of length m.
func EqualLengthDictionary(seed int64, np, m, sigma int) [][]int32 {
	return Dictionary(seed, np, m, m, sigma)
}

// PlantedText returns a random text of length n with occurrences of randomly
// chosen patterns planted at roughly the given rate (occurrences per 1000
// positions), so matches exist at realistic densities instead of only by
// chance.
func PlantedText(seed int64, n, sigma int, patterns [][]int32, perMille int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := Text(seed+1, n, sigma)
	if len(patterns) == 0 || perMille <= 0 {
		return out
	}
	plants := n * perMille / 1000
	for i := 0; i < plants; i++ {
		p := patterns[rng.Intn(len(patterns))]
		if len(p) > n {
			continue
		}
		at := rng.Intn(n - len(p) + 1)
		copy(out[at:], p)
	}
	return out
}

// NestedDictionary returns the chain a, aa, aaa, ..., a^np (single-symbol
// alphabet): every position of an all-a text matches up to np patterns —
// the adversarial input for all-matches output (E10).
func NestedDictionary(np int) [][]int32 {
	out := make([][]int32, np)
	for i := range out {
		p := make([]int32, i+1)
		out[i] = p
	}
	return out
}

// PeriodicText returns the n-symbol repetition of the word w.
func PeriodicText(n int, w []int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = w[i%len(w)]
	}
	return out
}

// Grid returns an r×c texture over [0, sigma): an order-1 Markov field
// (each cell copies its left or top neighbour with bias q) so that 2-D
// patterns planted from the same process occur with realistic structure.
func Grid(seed int64, r, c, sigma int, q float64) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	g := make([][]int32, r)
	for i := range g {
		g[i] = make([]int32, c)
		for j := range g[i] {
			switch {
			case rng.Float64() >= q || (i == 0 && j == 0):
				g[i][j] = int32(rng.Intn(sigma))
			case j > 0 && (i == 0 || rng.Intn(2) == 0):
				g[i][j] = g[i][j-1]
			default:
				g[i][j] = g[i-1][j]
			}
		}
	}
	return g
}

// SquarePatterns returns np distinct m×m patterns over [0, sigma), or as
// many as exist (fewer than np distinct m×m grids may exist for tiny m·σ).
func SquarePatterns(seed int64, np, m, sigma int) [][][]int32 {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out [][][]int32
	for attempts := 0; len(out) < np && attempts < 10000; attempts++ {
		p := make([][]int32, m)
		key := make([]byte, 0, 2*m*m)
		for i := range p {
			p[i] = make([]int32, m)
			for j := range p[i] {
				v := int32(rng.Intn(sigma))
				p[i][j] = v
				key = append(key, byte(v), byte(v>>8))
			}
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out = append(out, p)
	}
	return out
}

// Flat concatenates the rows of g: the row-major layout package dictnd
// takes for patterns and texts.
func Flat(g [][]int32) []int32 {
	var out []int32
	for _, row := range g {
		out = append(out, row...)
	}
	return out
}

// PlantGrid copies pattern p into g at (i, j).
func PlantGrid(g [][]int32, p [][]int32, i, j int) {
	for a := range p {
		copy(g[i+a][j:], p[a])
	}
}

// Bytes renders symbols as a byte string (symbols must fit a byte); handy
// for the CLI tools and examples.
func Bytes(syms []int32) []byte {
	out := make([]byte, len(syms))
	for i, v := range syms {
		out[i] = byte(v)
	}
	return out
}

// FromBytes converts a byte string to symbols.
func FromBytes(b []byte) []int32 {
	out := make([]int32, len(b))
	for i, v := range b {
		out[i] = int32(v)
	}
	return out
}
