package match2d

import (
	"math/rand"
	"testing"

	"pardict/internal/naive"
	"pardict/internal/pram"
)

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

func randGrid(rng *rand.Rand, r, c, sigma int) [][]int32 {
	g := make([][]int32, r)
	for i := range g {
		g[i] = make([]int32, c)
		for j := range g[i] {
			g[i][j] = int32(rng.Intn(sigma))
		}
	}
	return g
}

func plant(text [][]int32, p [][]int32, i, j int) {
	for a := range p {
		copy(text[i+a][j:], p[a])
	}
}

func check2D(t *testing.T, pats [][][]int32, text [][]int32) {
	t.Helper()
	c := ctx()
	mm, err := New(c, pats)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got := mm.Match(c, text)
	want := naive.LargestFullMatch2D(pats, text)
	for i := range text {
		for j := range text[i] {
			g, w := got[i][j], want[i][j]
			if g == w {
				continue
			}
			// tolerate duplicate-content patterns
			if g >= 0 && w >= 0 && sameGrid(pats[g], pats[w]) {
				continue
			}
			t.Fatalf("cell (%d,%d): got %d want %d", i, j, g, w)
		}
	}
}

func sameGrid(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestBasic2D(t *testing.T) {
	pats := [][][]int32{
		grid("ab", "cd"),
		grid("bb", "bb"),
	}
	text := grid(
		"abbbx",
		"cdbbx",
		"xxbbx",
		"xxbbx",
	)
	check2D(t, pats, text)
}

func TestSingleCellPatterns(t *testing.T) {
	pats := [][][]int32{grid("a"), grid("b")}
	text := grid("aba", "bab")
	check2D(t, pats, text)
}

func TestRandom2D(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(6)
		np := 1 + rng.Intn(4)
		pats := make([][][]int32, np)
		for i := range pats {
			pats[i] = randGrid(rng, m, m, 2)
		}
		text := randGrid(rng, 4+rng.Intn(20), 4+rng.Intn(20), 2)
		check2D(t, pats, text)
	}
}

func TestPlanted2D(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range []int{3, 5, 8, 13} {
		pats := [][][]int32{randGrid(rng, m, m, 3)}
		// Use disjoint alphabets so the plant is the only match.
		for a := range pats[0] {
			for b := range pats[0][a] {
				pats[0][a][b] += 10
			}
		}
		text := randGrid(rng, 3*m, 3*m, 3)
		plant(text, pats[0], m-1, m+1)
		c := ctx()
		mm, err := New(c, pats)
		if err != nil {
			t.Fatal(err)
		}
		got := mm.Match(c, text)
		for i := range got {
			for j := range got[i] {
				want := int32(-1)
				if i == m-1 && j == m+1 {
					want = 0
				}
				if got[i][j] != want {
					t.Fatalf("m=%d cell (%d,%d): got %d want %d", m, i, j, got[i][j], want)
				}
			}
		}
	}
}

func TestTextSmallerThanPattern(t *testing.T) {
	pats := [][][]int32{randGrid(rand.New(rand.NewSource(1)), 5, 5, 2)}
	text := randGrid(rand.New(rand.NewSource(2)), 3, 3, 2)
	check2D(t, pats, text)
}

func TestEmptyDict2D(t *testing.T) {
	c := ctx()
	mm, err := New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := mm.Match(c, grid("ab", "cd"))
	for i := range got {
		for j := range got[i] {
			if got[i][j] != -1 {
				t.Fatal("empty dict matched")
			}
		}
	}
}

func TestNonSquareRejected(t *testing.T) {
	c := ctx()
	if _, err := New(c, [][][]int32{grid("ab", "c")}); err == nil {
		t.Fatal("want error for ragged pattern")
	}
	if _, err := New(c, [][][]int32{grid("ab", "cd"), grid("a")}); err == nil {
		t.Fatal("want error for mixed sizes")
	}
}

func TestMetadataAccessors(t *testing.T) {
	c := ctx()
	mm, err := New(c, [][][]int32{grid("ab", "cd")})
	if err != nil {
		t.Fatal(err)
	}
	if mm.M() != 2 || mm.PatternCount() != 1 {
		t.Fatalf("M=%d PatternCount=%d", mm.M(), mm.PatternCount())
	}
}
