package dictnd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pardict/internal/naive"
	"pardict/internal/naming"
	"pardict/internal/workload"
)

// TestQuickEqualsNaive: arbitrary 2-D instances equal the oracle.
func TestQuickEqualsNaive(t *testing.T) {
	f := func(seed int64, npRaw, sigmaRaw, sideRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sigma := 1 + int(sigmaRaw%3)
		np := 1 + int(npRaw%4)
		seen := map[string]bool{}
		var pats [][][]int32
		for attempts := 0; len(pats) < np && attempts < 100; attempts++ {
			side := 1 + rng.Intn(5)
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
		rows, cols := 1+int(sideRaw%12), 1+rng.Intn(12)
		text := make([][]int32, rows)
		for i := range text {
			text[i] = make([]int32, cols)
			for j := range text[i] {
				text[i][j] = int32(rng.Intn(sigma))
			}
		}
		c := ctx()
		d, err := Preprocess(c, 2, flatAll2(pats))
		if err != nil {
			return false
		}
		r, err := d.Match(c, workload.Flat(text), shape2(text))
		if err != nil {
			return false
		}
		wantSide, _ := naive.LongestSquarePrefix2D(pats, text)
		side, pat := workload.Flat(wantSide), workload.Flat(naive.LargestFullMatch2D(pats, text))
		for i := range side {
			if r.Side[i] != side[i] || r.Pat[i] != pat[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestUnifiedNamesAcrossVariants: the square-prefix naming must identify
// equal (content, side) pairs across patterns (Lemma 1's invariant observed
// through match results: planting the same sub-square in two patterns makes
// their prefixes share match behaviour).
func TestUnifiedNamesAcrossVariants(t *testing.T) {
	// Pattern B's top-left 2x2 equals pattern A's top-left 2x2; matching a
	// text equal to that 2x2 must report side 2 with the same name.
	a := []int32{
		1, 2, 9,
		3, 4, 9,
		9, 9, 9,
	}
	b := []int32{
		1, 2,
		3, 4,
	}
	_, r := run(t, 2, [][]int32{a, b}, b, []int{2, 2})
	if r.Side[0] != 2 {
		t.Fatalf("side = %d", r.Side[0])
	}
	if r.Pat[0] != 1 { // pattern b fully matches
		t.Fatalf("pat = %d", r.Pat[0])
	}
	if r.Name[0] == naming.Empty {
		t.Fatal("name missing")
	}
}

// TestCheckerboardAdversarial: alternating textures where every cell looks
// locally alike — worst case for the odd-extension disambiguation.
func TestCheckerboardAdversarial(t *testing.T) {
	mk := func(side, phase int) [][]int32 {
		p := make([][]int32, side)
		for i := range p {
			p[i] = make([]int32, side)
			for j := range p[i] {
				p[i][j] = int32((i + j + phase) % 2)
			}
		}
		return p
	}
	for _, side := range []int{2, 3, 5, 7, 8} {
		pats := [][][]int32{mk(side, 0), mk(side, 1)}
		text := mk(3*side, 0)
		check2(t, pats, text)
	}
}

// TestManySizesOnePattern: one pattern per side 1..12 with nested content,
// stressing lpS chains (smaller patterns are prefixes of larger).
func TestManySizesOnePattern(t *testing.T) {
	big := make([][]int32, 12)
	rng := rand.New(rand.NewSource(77))
	for i := range big {
		big[i] = make([]int32, 12)
		for j := range big[i] {
			big[i][j] = int32(rng.Intn(3))
		}
	}
	var pats [][][]int32
	for s := 1; s <= 12; s++ {
		p := make([][]int32, s)
		for i := 0; i < s; i++ {
			p[i] = big[i][:s]
		}
		pats = append(pats, p)
	}
	text := make([][]int32, 20)
	for i := range text {
		text[i] = make([]int32, 20)
		for j := range text[i] {
			text[i][j] = int32(rng.Intn(3))
		}
	}
	// Plant the big pattern so all 12 nested prefixes match at one corner.
	for i := 0; i < 12; i++ {
		copy(text[4+i][5:], big[i])
	}
	check2(t, pats, text)
}
