package dictnd

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pardict/internal/naive"
	"pardict/internal/pram"
	"pardict/internal/workload"
)

// The tests keep patterns and texts nested, the form the brute-force oracles
// of package naive take, and flatten them for the engine.

func ctx() *pram.Ctx { return pram.New(0) }

func grid(rows ...string) [][]int32 {
	out := make([][]int32, len(rows))
	for i, r := range rows {
		out[i] = make([]int32, len(r))
		for j := range r {
			out[i][j] = int32(r[j])
		}
	}
	return out
}

func shape2(g [][]int32) []int {
	if len(g) == 0 {
		return []int{0, 0}
	}
	return []int{len(g), len(g[0])}
}

func flat3(b [][][]int32) []int32 {
	var out []int32
	for _, slice := range b {
		out = append(out, workload.Flat(slice)...)
	}
	return out
}

func shape3(b [][][]int32) []int {
	if len(b) == 0 {
		return []int{0, 0, 0}
	}
	return append([]int{len(b)}, shape2(b[0])...)
}

func flatAll2(pats [][][]int32) [][]int32 {
	out := make([][]int32, len(pats))
	for i, p := range pats {
		out[i] = workload.Flat(p)
	}
	return out
}

func flatAll3(pats [][][][]int32) [][]int32 {
	out := make([][]int32, len(pats))
	for i, p := range pats {
		out[i] = flat3(p)
	}
	return out
}

// run preprocesses the flat patterns and matches the flat text.
func run(t *testing.T, dim int, pats [][]int32, text []int32, shape []int) (*Dict, *Result) {
	t.Helper()
	c := ctx()
	d, err := Preprocess(c, dim, pats)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	r, err := d.Match(c, text, shape)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	return d, r
}

// same compares a result cell by cell with the oracle's sides and patterns.
func same(t *testing.T, r *Result, shape []int, side, pat []int32) {
	t.Helper()
	for i := range side {
		if r.Side[i] != side[i] {
			t.Fatalf("cell %v: side %d want %d", coords(i, shape), r.Side[i], side[i])
		}
		if r.Pat[i] != pat[i] {
			t.Fatalf("cell %v: pat %d want %d", coords(i, shape), r.Pat[i], pat[i])
		}
	}
}

func coords(i int, shape []int) []int {
	co := make([]int, len(shape))
	for a := len(shape) - 1; a >= 0; a-- {
		co[a] = i % shape[a]
		i /= shape[a]
	}
	return co
}

func check2(t *testing.T, pats [][][]int32, text [][]int32) {
	t.Helper()
	_, r := run(t, 2, flatAll2(pats), workload.Flat(text), shape2(text))
	side, _ := naive.LongestSquarePrefix2D(pats, text)
	same(t, r, shape2(text), workload.Flat(side), workload.Flat(naive.LargestFullMatch2D(pats, text)))
}

func check3(t *testing.T, pats [][][][]int32, text [][][]int32) {
	t.Helper()
	_, r := run(t, 3, flatAll3(pats), flat3(text), shape3(text))
	side, _ := naive.LongestCubePrefix3D(pats, text)
	same(t, r, shape3(text), flat3(side), flat3(naive.LargestFullMatch3D(pats, text)))
}

// eachDim runs one subtest per dimension the public matchers use.
func eachDim(t *testing.T, f func(t *testing.T, dim int)) {
	for _, dim := range []int{2, 3} {
		t.Run(fmt.Sprintf("d=%d", dim), func(t *testing.T) { f(t, dim) })
	}
}

func randCube(rng *rand.Rand, s, sigma int, shift int32) [][][]int32 {
	p := make([][][]int32, s)
	for z := range p {
		p[z] = make([][]int32, s)
		for y := range p[z] {
			p[z][y] = make([]int32, s)
			for x := range p[z][y] {
				p[z][y][x] = int32(rng.Intn(sigma)) + shift
			}
		}
	}
	return p
}

func plant3(text, p [][][]int32, z, y, x int) {
	for a := range p {
		for b := range p[a] {
			copy(text[z+a][y+b][x:], p[a][b])
		}
	}
}

func TestSingleCellPattern(t *testing.T) {
	check2(t, [][][]int32{grid("a")}, grid("aba", "bab"))
}

func TestSingleCell(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pats := [][][][]int32{{{{7}}}}
	text := randCube(rng, 4, 8, 0)
	text[1][2][3] = 7
	check3(t, pats, text)
}

func TestBasic2x2(t *testing.T) {
	pats := [][][]int32{grid("ab", "cd")}
	text := grid(
		"abab",
		"cdcd",
		"abab",
		"cdcd",
	)
	check2(t, pats, text)
}

func TestSide2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randCube(rng, 2, 2, 10)
	text := randCube(rng, 6, 2, 0)
	plant3(text, p, 1, 2, 3)
	check3(t, [][][][]int32{p}, text)
}

func TestMixedSizes(t *testing.T) {
	eachDim(t, func(t *testing.T, dim int) {
		if dim == 2 {
			pats := [][][]int32{
				grid("a"),
				grid("ab", "ca"),
				grid("abx", "cay", "zzz"),
			}
			text := grid(
				"abxab",
				"cayca",
				"zzzzz",
				"abxab",
				"cayca",
			)
			check2(t, pats, text)
			return
		}
		rng := rand.New(rand.NewSource(4))
		pats := [][][][]int32{
			randCube(rng, 1, 2, 0),
			randCube(rng, 2, 2, 0),
			randCube(rng, 4, 2, 0),
			randCube(rng, 5, 2, 0),
		}
		text := randCube(rng, 12, 2, 0)
		plant3(text, pats[3], 2, 3, 4)
		plant3(text, pats[2], 7, 0, 1)
		check3(t, pats, text)
	})
}

func TestOddSides(t *testing.T) {
	eachDim(t, func(t *testing.T, dim int) {
		if dim == 2 {
			pats := [][][]int32{
				grid("abc", "def", "ghi"),
				grid("abcde", "fghij", "klmno", "pqrst", "uvwxy"),
			}
			text := grid(
				"abcdeab",
				"fghijde",
				"klmnogh",
				"pqrstij",
				"uvwxykl",
				"abcdeab",
				"defdefg",
			)
			check2(t, pats, text)
			return
		}
		rng := rand.New(rand.NewSource(3))
		for _, s := range []int{3, 5, 7} {
			p := randCube(rng, s, 3, 10)
			text := randCube(rng, 2*s+2, 3, 0)
			plant3(text, p, 1, s-1, 2)
			check3(t, [][][][]int32{p}, text)
		}
	})
}

func TestRandomSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 40; trial++ {
		sigma := 1 + rng.Intn(3)
		np := 1 + rng.Intn(4)
		pats := make([][][]int32, 0, np)
		seen := map[string]bool{}
		for len(pats) < np {
			side := 1 + rng.Intn(6)
			p := make([][]int32, side)
			for a := range p {
				p[a] = make([]int32, side)
				for b := range p[a] {
					p[a][b] = int32(rng.Intn(sigma))
				}
			}
			k := cellKey(workload.Flat(p))
			if seen[k] {
				continue
			}
			seen[k] = true
			pats = append(pats, p)
		}
		rows, cols := 1+rng.Intn(14), 1+rng.Intn(14)
		text := make([][]int32, rows)
		for i := range text {
			text[i] = make([]int32, cols)
			for j := range text[i] {
				text[i][j] = int32(rng.Intn(sigma))
			}
		}
		check2(t, pats, text)
	}
}

func TestRandomLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 6; trial++ {
		sigma := 2
		pats := workload.SquarePatterns(int64(trial), 4, 2+rng.Intn(12), sigma)
		text := workload.Grid(int64(trial)+100, 30, 30, sigma, 0.3)
		// Plant one occurrence so matches exist.
		workload.PlantGrid(text, pats[0], 5, 7)
		check2(t, pats, text)
	}
}

func TestRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		sigma := 1 + rng.Intn(2)
		np := 1 + rng.Intn(3)
		seen := map[string]bool{}
		var pats [][][][]int32
		for attempts := 0; len(pats) < np && attempts < 50; attempts++ {
			p := randCube(rng, 1+rng.Intn(4), sigma, 0)
			k := cellKey(flat3(p))
			if seen[k] {
				continue
			}
			seen[k] = true
			pats = append(pats, p)
		}
		text := randCube(rng, 3+rng.Intn(7), sigma, 0)
		check3(t, pats, text)
	}
}

// TestPlantedLarge: one large pattern over an alphabet the text lacks, so
// only its plant matches.
func TestPlantedLarge(t *testing.T) {
	eachDim(t, func(t *testing.T, dim int) {
		rng := rand.New(rand.NewSource(6))
		for _, side := range map[int][]int{2: {9, 16, 21, 32}, 3: {6, 9, 12}}[dim] {
			var p, text []int32
			var shape []int
			var at int
			if dim == 2 {
				pats := workload.SquarePatterns(int64(side), 1, side, 3)
				for _, row := range pats[0] {
					for j := range row {
						row[j] += 5
					}
				}
				g := workload.Grid(int64(side)+7, 2*side+3, 2*side+3, 3, 0.2)
				workload.PlantGrid(g, pats[0], 3, side-1)
				p, text, shape = workload.Flat(pats[0]), workload.Flat(g), shape2(g)
				at = 3*shape[1] + side - 1
			} else {
				c := randCube(rng, side, 3, 10)
				b := randCube(rng, 2*side+1, 3, 0)
				plant3(b, c, 2, 3, side-2)
				p, text, shape = flat3(c), flat3(b), shape3(b)
				at = (2*shape[1]+3)*shape[2] + side - 2
			}
			_, r := run(t, dim, [][]int32{p}, text, shape)
			for i, got := range r.Pat {
				want := int32(-1)
				if i == at {
					want = 0
				}
				if got != want {
					t.Fatalf("side=%d cell %v: got %d want %d", side, coords(i, shape), got, want)
				}
			}
		}
	})
}

func TestNestedSquares(t *testing.T) {
	// Patterns nested at the corner: 1x1, 2x2, 3x3, 4x4, 5x5 all-zero.
	var pats [][][]int32
	for s := 1; s <= 5; s++ {
		p := make([][]int32, s)
		for i := range p {
			p[i] = make([]int32, s)
		}
		pats = append(pats, p)
	}
	text := make([][]int32, 9)
	for i := range text {
		text[i] = make([]int32, 9)
	}
	check2(t, pats, text)
}

func TestNestedCubes(t *testing.T) {
	// Nested all-zero cubes: sizes 1..5, every position matching several.
	zero := rand.New(rand.NewSource(0))
	var pats [][][][]int32
	for s := 1; s <= 5; s++ {
		pats = append(pats, randCube(zero, s, 1, 0))
	}
	check3(t, pats, randCube(zero, 8, 1, 0))
}

func TestErrors(t *testing.T) {
	eachDim(t, func(t *testing.T, dim int) {
		c := ctx()
		if _, err := Preprocess(c, dim, [][]int32{{}}); err != ErrEmptyPattern {
			t.Fatalf("err = %v", err)
		}
		// Three cells (2-D) or seven (3-D, a ragged 2×2×2) are no cube.
		if _, err := Preprocess(c, dim, [][]int32{make([]int32, 1<<dim-1)}); err != ErrNotCube {
			t.Fatalf("err = %v", err)
		}
		p := []int32{1}
		if _, err := Preprocess(c, dim, [][]int32{p, p}); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("err = %v", err)
		}
		d, err := Preprocess(c, dim, [][]int32{p})
		if err != nil {
			t.Fatal(err)
		}
		// A text one cell short of its shape, and one of the wrong dimension.
		shape := []int{2, 2, 2}[:dim]
		if _, err := d.Match(c, make([]int32, 1<<dim-1), shape); err != ErrRagged {
			t.Fatalf("err = %v", err)
		}
		if _, err := d.Match(c, []int32{1}, []int{1}); err != ErrRagged {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestEmptyDictAndText(t *testing.T) {
	eachDim(t, func(t *testing.T, dim int) {
		c := ctx()
		d, err := Preprocess(c, dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		shape := []int{3, 3, 3}[:dim]
		r, err := d.Match(c, make([]int32, ipow(3, dim)), shape)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range r.Pat {
			if p != -1 {
				t.Fatal("empty dict matched")
			}
		}
		if _, err := d.Match(c, nil, make([]int, dim)); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTextSmallerThanPatterns(t *testing.T) {
	pats := workload.SquarePatterns(3, 2, 6, 2)
	text := workload.Grid(5, 3, 3, 2, 0.1)
	check2(t, pats, text)
}

func TestPrefixSquareSides(t *testing.T) {
	// Verify Side (prefix matching) on a handcrafted case where the largest
	// square-prefix is strictly larger than any full pattern match.
	pats := [][][]int32{grid("abc", "def", "ghi")}
	text := grid("ab", "de") // matches the 2x2 prefix only
	_, r := run(t, 2, flatAll2(pats), workload.Flat(text), shape2(text))
	if r.Side[0] != 2 || r.Pat[0] != -1 {
		t.Fatalf("side=%d pat=%d, want side=2 pat=-1", r.Side[0], r.Pat[0])
	}
}

func TestPrefixOnlyMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := randCube(rng, 4, 2, 0)
	// Text holds only the 2×2×2 corner of the pattern.
	text := randCube(rng, 2, 2, 5)
	for z := 0; z < 2; z++ {
		for y := 0; y < 2; y++ {
			copy(text[z][y], p[z][y][:2])
		}
	}
	_, r := run(t, 3, [][]int32{flat3(p)}, flat3(text), shape3(text))
	if r.Side[0] != 2 || r.Pat[0] != -1 {
		t.Fatalf("side=%d pat=%d, want side=2 pat=-1", r.Side[0], r.Pat[0])
	}
}

func TestAllMatches2D(t *testing.T) {
	// Nested corner squares 1..4 plus an unrelated pattern.
	var pats [][][]int32
	big := grid("abcd", "efgh", "ijkl", "mnop")
	for s := 1; s <= 4; s++ {
		p := make([][]int32, s)
		for i := 0; i < s; i++ {
			p[i] = big[i][:s]
		}
		pats = append(pats, p)
	}
	pats = append(pats, grid("zz", "zz"))
	d, r := run(t, 2, flatAll2(pats), workload.Flat(big), shape2(big))
	got := d.AllMatches(r, 0, nil)
	want := []int32{3, 2, 1, 0} // sides 4,3,2,1
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if out := d.AllMatches(r, 1, nil); len(out) != 0 {
		t.Fatalf("cell (0,1): %v", out)
	}
}

func TestMetadataAccessors(t *testing.T) {
	eachDim(t, func(t *testing.T, dim int) {
		d, err := Preprocess(ctx(), dim, [][]int32{make([]int32, 1<<dim), {5}})
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxSide() != 2 || d.PatternCount() != 2 {
			t.Fatalf("MaxSide=%d PatternCount=%d", d.MaxSide(), d.PatternCount())
		}
	})
}
