package dictnd

import (
	"fmt"
	"math/rand"
	"testing"

	"pardict/internal/pram"
	"pardict/internal/workload"
)

// TestCountedModel pins the counted PRAM model: Preprocess and Match
// Work/Depth on fixed inputs, as the separate 2-D and 3-D engines this
// package replaced charged them, with two intended differences. The 3-D
// Preprocess builds the all-matches chain (nextShort) too, which charges
// one more unit per pattern. And an empty table costs no depth: the last
// level names no blocks, so its d pair tables and its truncation table are
// empty, and Preprocess Depth is d+1 below those engines' figures.
func TestCountedModel(t *testing.T) {
	cubes := func(seed int64, sigma int, sides ...int) [][]int32 {
		var out [][]int32
		for i, s := range sides {
			out = append(out, workload.Text(seed+int64(i), s*s*s, sigma))
		}
		return out
	}
	var mixed [][][]int32
	mixed = append(mixed, workload.SquarePatterns(3, 3, 5, 2)...)
	mixed = append(mixed, workload.SquarePatterns(4, 2, 2, 2)...)
	mixed = append(mixed, workload.SquarePatterns(5, 2, 7, 2)...)
	mixed = append(mixed, workload.SquarePatterns(6, 1, 1, 2)...)
	mixedText := workload.Grid(6, 23, 31, 2, 0.2)
	workload.PlantGrid(mixedText, mixed[0], 4, 9)
	bank := workload.SquarePatterns(9, 8, 4, 4)
	bankText := workload.Grid(10, 40, 40, 4, 0.3)
	workload.PlantGrid(bankText, bank[0], 3, 5)
	var nested [][]int32
	for s := 1; s <= 5; s++ {
		nested = append(nested, make([]int32, s*s))
	}

	for _, tc := range []struct {
		name                  string
		dim                   int
		pats                  [][]int32
		text                  []int32
		shape                 []int
		preWork, preDepth     int64
		matchWork, matchDepth int64
	}{
		{"bank", 2, flatAll2(bank), workload.Flat(bankText), []int{40, 40}, 2465, 41, 9720, 9},
		{"mixed", 2, flatAll2(mixed), workload.Flat(mixedText), []int{23, 31}, 4092, 46, 4347, 9},
		{"nested", 2, nested, make([]int32, 81), []int{9, 9}, 765, 44, 513, 9},
		{"bank", 3, cubes(4, 3, 4, 4, 4, 4), workload.Text(103, 12*12*12, 3), []int{12, 12, 12}, 5636 + 4, 55, 10404, 9},
		{"mixed", 3, cubes(20, 2, 1, 2, 3, 5), workload.Text(77, 7*9*11, 2), []int{7, 9, 11}, 3994 + 4, 58, 4179, 9},
	} {
		t.Run(fmt.Sprintf("%s/d=%d", tc.name, tc.dim), func(t *testing.T) {
			c := pram.New(0)
			d, err := Preprocess(c, tc.dim, tc.pats)
			if err != nil {
				t.Fatal(err)
			}
			if c.Work() != tc.preWork || c.Depth() != tc.preDepth {
				t.Errorf("Preprocess work/depth = %d/%d, want %d/%d", c.Work(), c.Depth(), tc.preWork, tc.preDepth)
			}
			c.ResetStats()
			if _, err := d.Match(c, tc.text, tc.shape); err != nil {
				t.Fatal(err)
			}
			if c.Work() != tc.matchWork || c.Depth() != tc.matchDepth {
				t.Errorf("Match work/depth = %d/%d, want %d/%d", c.Work(), c.Depth(), tc.matchWork, tc.matchDepth)
			}
		})
	}
}

// TestWorkShape: matching work is O(cells · levels).
func TestWorkShape(t *testing.T) {
	eachDim(t, func(t *testing.T, dim int) {
		rng := rand.New(rand.NewSource(9))
		side := map[int]int{2: 200, 3: 40}[dim]
		var pats [][]int32
		for _, s := range []int{8, 16} {
			p := make([]int32, ipow(s, dim))
			for i := range p {
				p[i] = int32(rng.Intn(2))
			}
			pats = append(pats, p)
		}
		text := make([]int32, ipow(side, dim))
		for i := range text {
			text[i] = int32(rng.Intn(2))
		}
		shape := []int{side, side, side}[:dim]
		c := pram.New(0)
		d, err := Preprocess(c, dim, pats)
		if err != nil {
			t.Fatal(err)
		}
		c.ResetStats()
		if _, err := d.Match(c, text, shape); err != nil {
			t.Fatal(err)
		}
		cells := int64(len(text))
		levels := int64(len(d.levels))
		if w := c.Work(); w > cells*(2*levels+4) {
			t.Fatalf("match work %d exceeds cells·(2·levels+4) = %d", w, cells*(2*levels+4))
		}
	})
}
