package smallalpha

import (
	"fmt"
	"testing"

	"pardict/internal/pram"
	"pardict/internal/workload"
)

// TestCountedModel pins the counted PRAM model: Preprocess and Match
// Work/Depth of New at three (σ, L) settings and of NewBinary, on fixed
// inputs, at one, two and four processors. The charge depends on the input
// alone, never on the pool.
func TestCountedModel(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		binary                bool
		sigma, l              int
		preWork, preDepth     int64
		matchWork, matchDepth int64
	}{
		{"new", false, 4, 1, 67164, 561, 30001, 17},
		{"new", false, 4, 3, 124488, 525, 8663, 17},
		{"new", false, 2, 5, 164239, 528, 6001, 21},
		{"binary", true, 6, 4, 430354, 676, 30001, 24},
	} {
		t.Run(fmt.Sprintf("%s/sigma=%d/L=%d", tc.name, tc.sigma, tc.l), func(t *testing.T) {
			pats := workload.Dictionary(31, 24, 3, 40, tc.sigma)
			text := workload.PlantedText(32, 2000, tc.sigma, pats, 20)
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					c := pram.New(procs)
					var match func() []int32
					if tc.binary {
						m, err := NewBinary(c, pats, tc.sigma, tc.l)
						if err != nil {
							t.Fatal(err)
						}
						match = func() []int32 { return m.Match(c, text) }
					} else {
						m, err := New(c, pats, tc.sigma, tc.l)
						if err != nil {
							t.Fatal(err)
						}
						match = func() []int32 { return m.Match(c, text) }
					}
					if c.Work() != tc.preWork || c.Depth() != tc.preDepth {
						t.Errorf("Preprocess work/depth = %d/%d, want %d/%d", c.Work(), c.Depth(), tc.preWork, tc.preDepth)
					}
					c.ResetStats()
					match()
					if c.Work() != tc.matchWork || c.Depth() != tc.matchDepth {
						t.Errorf("Match work/depth = %d/%d, want %d/%d", c.Work(), c.Depth(), tc.matchWork, tc.matchDepth)
					}
				})
			}
		})
	}
}
