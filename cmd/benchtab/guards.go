package main

import (
	"fmt"
	"maps"
	"strings"

	"pardict/internal/benchrow"
)

// A sel picks rows of one experiment's file: an arm ("" = any), a metric, a
// GOMAXPROCS (0 = any) and parameter values (see benchrow.Contains).
type sel struct {
	arm    string
	metric string
	procs  int
	params benchrow.Params
}

// A guard asserts lo ≤ x ≤ hi (hi 0 = no ceiling) for every row num picks.
// x is the row's value divided by the value of its den cell — the same cell
// with den's arm and params substituted — or the value itself when den is
// nil. A baseline guard divides x again by the same quantity in the
// checked-in file, matching GOMAXPROCS there only where num names it. Every
// threshold is a ratio of same-host readings, so no absolute time crosses
// machines. A guard fails if num picks no row or any cell it needs is
// missing.
type guard struct {
	exp      string
	num      sel
	den      *sel
	lo, hi   float64
	baseline bool
}

// guards is every assertion benchtab makes about its own measurements.
var guards = []guard{
	// E15: frozen tables plus the prefilter beat map lookups ≥2× on low-hit
	// text, and no frozen cell's frozen/map cost regresses >20% against the
	// checked-in sweep.
	{exp: "E15", num: sel{arm: "map", metric: "ns_per_byte", params: benchrow.Params{"prefilter": false, "hit_rate": 0}},
		den: &sel{arm: "frozen", params: benchrow.Params{"prefilter": true}}, lo: 2},
	{exp: "E15", num: sel{arm: "frozen", metric: "ns_per_byte"},
		den: &sel{arm: "map", params: benchrow.Params{"prefilter": false}}, hi: 1.2, baseline: true},

	// E16: both arms scan identical bytes, so their match totals are equal.
	{exp: "E16", num: sel{arm: "server", metric: "matches"}, den: &sel{arm: "goroutines"}, lo: 1, hi: 1},

	// E18: the wide prefilter kernel holds ≥3× the scalar one; every arm
	// keeps ≥0.6 parallel efficiency at g=2 on low-hit text; and the wide
	// arm's cost relative to the unfiltered arm regresses ≤20% against the
	// checked-in sweep at g=1 and g=2.
	{exp: "E18", num: sel{arm: "kernel-wide", metric: "mb_per_s", procs: 1, params: benchrow.Params{"hit_rate": 0}},
		den: &sel{arm: "kernel-scalar"}, lo: 3},
	{exp: "E18", num: sel{arm: "scan-off", metric: "efficiency", procs: 2, params: benchrow.Params{"hit_rate": 0}}, lo: 0.6},
	{exp: "E18", num: sel{arm: "scan-scalar", metric: "efficiency", procs: 2, params: benchrow.Params{"hit_rate": 0}}, lo: 0.6},
	{exp: "E18", num: sel{arm: "scan-wide", metric: "efficiency", procs: 2, params: benchrow.Params{"hit_rate": 0}}, lo: 0.6},
	{exp: "E18", num: sel{arm: "shard4", metric: "efficiency", procs: 2, params: benchrow.Params{"hit_rate": 0}}, lo: 0.6},
	{exp: "E18", num: sel{arm: "scan-wide", metric: "ns_per_byte", procs: 1, params: benchrow.Params{"hit_rate": 0}},
		den: &sel{arm: "scan-off"}, hi: 1.2, baseline: true},
	{exp: "E18", num: sel{arm: "scan-wide", metric: "ns_per_byte", procs: 2, params: benchrow.Params{"hit_rate": 0}},
		den: &sel{arm: "scan-off"}, hi: 1.2, baseline: true},

	// E19: compressed-domain matching beats decompress-then-scan ≥1.5× on
	// low-hit text at redundancy ≥0.9, and stays within 0.8× of it on
	// incompressible text.
	{exp: "E19", num: sel{arm: "decompress", metric: "ns_per_byte", params: benchrow.Params{"hit": "low", "redundancy": benchrow.AtLeast(0.9)}},
		den: &sel{arm: "compressed"}, lo: 1.5},
	{exp: "E19", num: sel{arm: "decompress", metric: "ns_per_byte", params: benchrow.Params{"redundancy": 0}},
		den: &sel{arm: "compressed"}, lo: 0.8},

	// E20: split-phase writes hold ≥2× joined throughput at 8 writers in both
	// skews, the hot-shard storm keeps split ≥half its uniform throughput,
	// and every arm's quiesced state equals its oracle.
	{exp: "E20", num: sel{arm: "sharded-split", metric: "writes_per_sec", params: benchrow.Params{"skew": "uniform", "writers": 8}},
		den: &sel{arm: "sharded-joined"}, lo: 2},
	{exp: "E20", num: sel{arm: "sharded-split", metric: "writes_per_sec", params: benchrow.Params{"skew": "hotshard", "writers": 8}},
		den: &sel{arm: "sharded-joined"}, lo: 2},
	{exp: "E20", num: sel{arm: "sharded-split", metric: "writes_per_sec", params: benchrow.Params{"skew": "hotshard", "writers": 8}},
		den: &sel{params: benchrow.Params{"skew": "uniform"}}, lo: 0.5},
	{exp: "E20", num: sel{metric: "oracle_ok"}, lo: 1},
}

// checkGuards evaluates every guard of the experiments in results, reading
// baselines from the BENCH files in dir, prints each failure, and returns
// the experiments that failed.
func checkGuards(results map[string]*benchrow.File, dir string) map[string]bool {
	failed := map[string]bool{}
	for _, g := range guards {
		cur, ok := results[g.exp]
		if !ok {
			continue
		}
		var base *benchrow.File
		if g.baseline {
			var err error
			if base, err = benchrow.Read(benchPath(dir, g.exp)); err != nil {
				fmt.Printf("baseline for %s: %v\n", g.exp, err)
			}
		}
		for _, msg := range g.check(cur, base) {
			fmt.Printf("GUARD FAIL %s\n", msg)
			failed[g.exp] = true
		}
	}
	if len(results) > 0 {
		fmt.Printf("\nguards: %d of %d recorded experiments failed\n", len(failed), len(results))
	}
	return failed
}

// check evaluates g on cur, with base the checked-in file (nil if there is
// none), and returns one message per failing cell.
func (g guard) check(cur, base *benchrow.File) []string {
	if g.baseline && base == nil {
		return []string{g.String() + ": no baseline file"}
	}
	var fails []string
	picked := 0
	for _, r := range cur.Rows {
		if !g.num.matches(r) {
			continue
		}
		picked++
		x, err := g.x(cur, r.Arm, r.Params, r.GOMAXPROCS, r.Metric)
		if err == nil && g.baseline {
			var bx float64
			if bx, err = g.x(base, r.Arm, r.Params, g.num.procs, r.Metric); err == nil {
				x /= bx
			}
		}
		cell := cellName(r.Arm, r.Params, r.GOMAXPROCS)
		switch {
		case err != nil:
			fails = append(fails, fmt.Sprintf("%s: %s: %v", g, cell, err))
		case !(x >= g.lo) || g.hi > 0 && !(x <= g.hi):
			fails = append(fails, fmt.Sprintf("%s: %s is %.4g", g, cell, x))
		}
	}
	if picked == 0 {
		fails = append(fails, fmt.Sprintf("%s: no %s cell", g, cellName(g.num.arm, g.num.params, g.num.procs)))
	}
	return fails
}

// x is g's quantity for one cell of f: the cell's value over its den cell's.
func (g guard) x(f *benchrow.File, arm string, params benchrow.Params, procs int, metric string) (float64, error) {
	get := func(arm string, params benchrow.Params) (float64, error) {
		v, ok := f.Get(arm, params, procs, metric)
		if !ok {
			return 0, fmt.Errorf("no unique %s cell %s", metric, cellName(arm, params, procs))
		}
		return v, nil
	}
	num, err := get(arm, params)
	if err != nil || g.den == nil {
		return num, err
	}
	if g.den.arm != "" {
		arm = g.den.arm
	}
	if len(g.den.params) > 0 {
		params = maps.Clone(params)
		maps.Copy(params, g.den.params)
	}
	den, err := get(arm, params)
	if err != nil {
		return 0, err
	}
	if !(den > 0) {
		return 0, fmt.Errorf("%s is %v, want > 0", cellName(arm, params, procs), den)
	}
	return num / den, nil
}

func (s sel) matches(r benchrow.Row) bool {
	return (s.arm == "" || r.Arm == s.arm) && r.Metric == s.metric &&
		(s.procs == 0 || r.GOMAXPROCS == s.procs) && benchrow.Contains(r.Params, s.params)
}

func (g guard) String() string {
	s := fmt.Sprintf("%s %s %s", g.exp, g.num.metric, cellName(g.num.arm, g.num.params, g.num.procs))
	if g.den != nil {
		s += " / " + cellName(g.den.arm, g.den.params, 0)
	}
	if g.lo > 0 {
		s += fmt.Sprintf(" ≥ %g", g.lo)
	}
	if g.hi > 0 {
		s += fmt.Sprintf(" ≤ %g", g.hi)
	}
	if g.baseline {
		s += " × the baseline's ratio"
	}
	return s
}

// cellName renders a cell for messages as arm[k:v ...]@gN.
func cellName(arm string, params benchrow.Params, procs int) string {
	s := arm + strings.TrimPrefix(fmt.Sprint(map[string]any(params)), "map")
	if procs != 0 {
		s += fmt.Sprintf("@g%d", procs)
	}
	return s
}
