package core

import (
	"fmt"
	"testing"

	"pardict/internal/pram"
	"pardict/internal/workload"
)

// TestCountedModel pins the counted PRAM model of Preprocess and Match on a
// fixed 24-pattern σ=4 dictionary at one, two and four processors: the
// charge depends on the input alone, never on the pool.
func TestCountedModel(t *testing.T) {
	pats := workload.Dictionary(31, 24, 3, 40, 4)
	text := workload.PlantedText(32, 2000, 4, pats, 20)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			c := pram.New(procs)
			d, err := Preprocess(c, pats)
			if err != nil {
				t.Fatal(err)
			}
			if c.Work() != 27115 || c.Depth() != 263 {
				t.Errorf("Preprocess work/depth = %d/%d, want 27115/263", c.Work(), c.Depth())
			}
			c.ResetStats()
			d.Match(c, text)
			if c.Work() != 28000 || c.Depth() != 14 {
				t.Errorf("Match work/depth = %d/%d, want 28000/14", c.Work(), c.Depth())
			}
		})
	}
}
