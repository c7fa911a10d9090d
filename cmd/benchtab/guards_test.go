package main

import (
	"math"
	"testing"

	"pardict/internal/benchrow"
)

// TestGuardCellsCheckedIn runs every guard over the checked-in data with
// its bounds loosened, so it can fail only by missing a cell: a regenerated
// file cannot silently drop a cell a guard compares. The files' schema is
// linted by the root package's TestBenchSchema* tests.
func TestGuardCellsCheckedIn(t *testing.T) {
	for _, g := range guards {
		f, err := benchrow.Read(benchPath("../..", g.exp))
		if err != nil {
			t.Errorf("guard %s: %v", g, err)
			continue
		}
		g.lo, g.hi = math.Inf(-1), 0
		for _, msg := range g.check(f, f) {
			t.Errorf("checked-in data: %s", msg)
		}
	}
}

// TestGuardsFail drives every guard over the checked-in data with its
// quantity forced just inside each bound (must pass) and then past it (must
// fail), then with its cells removed, then with no baseline file.
func TestGuardsFail(t *testing.T) {
	load := func(exp string) *benchrow.File {
		f, err := benchrow.Read(benchPath("../..", exp))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// force rewrites every row g picks so that g's quantity equals target.
	force := func(g guard, cur, base *benchrow.File, target float64) {
		for i, r := range cur.Rows {
			if !g.num.matches(r) {
				continue
			}
			x, err := g.x(cur, r.Arm, r.Params, r.GOMAXPROCS, r.Metric)
			if err == nil && g.baseline {
				var bx float64
				bx, err = g.x(base, r.Arm, r.Params, g.num.procs, r.Metric)
				x /= bx
			}
			if err != nil {
				t.Fatalf("%s: %v", g, err)
			}
			cur.Rows[i].Value *= target / x
		}
	}
	for _, g := range guards {
		const eps = 1e-9 // room for rounding in force
		var inside, breaks []float64
		if g.lo > 0 {
			inside, breaks = append(inside, g.lo*(1+eps)), append(breaks, g.lo/2)
		}
		if g.hi > 0 {
			inside, breaks = append(inside, g.hi*(1-eps)), append(breaks, g.hi*2)
		}
		if g.lo == g.hi {
			inside = []float64{g.lo}
		}
		for _, target := range inside {
			cur, base := load(g.exp), load(g.exp)
			force(g, cur, base, target)
			if fails := g.check(cur, base); len(fails) > 0 {
				t.Errorf("%s forced to %g: want pass, got %q", g, target, fails)
			}
		}
		for _, target := range breaks {
			cur, base := load(g.exp), load(g.exp)
			force(g, cur, base, target)
			if len(g.check(cur, base)) == 0 {
				t.Errorf("%s forced to %g: want fail, got pass", g, target)
			}
		}

		// A missing numerator or denominator cell fails, never skips.
		drops := []func(benchrow.Row) bool{g.num.matches}
		if g.den != nil {
			drops = append(drops, func(r benchrow.Row) bool { return r.Metric == g.num.metric && !g.num.matches(r) })
		}
		for _, drop := range drops {
			cur := load(g.exp)
			kept := cur.Rows[:0]
			for _, r := range cur.Rows {
				if !drop(r) {
					kept = append(kept, r)
				}
			}
			cur.Rows = kept
			if len(g.check(cur, load(g.exp))) == 0 {
				t.Errorf("%s with cells removed: want fail, got pass", g)
			}
		}
	}

	// A run whose baseline file is absent fails every baseline guard.
	results := map[string]*benchrow.File{}
	for _, g := range guards {
		if g.baseline {
			results[g.exp] = load(g.exp)
		}
	}
	failed := checkGuards(results, t.TempDir())
	for exp := range results {
		if !failed[exp] {
			t.Errorf("%s with no baseline file: want fail, got pass", exp)
		}
	}
}
