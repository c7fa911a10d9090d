package pardict

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"pardict/internal/benchrow"
)

// TestBenchSchemaGomaxprocs lints every checked-in BENCH_*.json against the
// repo-wide schema convention: every file reads back through benchrow, so
// GOMAXPROCS is an integer "gomaxprocs" ≥ 1 on every row and the strict
// reader rejects it as a top-level field; nor may it hide in the file-level
// "config". Sweeps that vary GOMAXPROCS (E16, E18) and sweeps that hold it
// fixed (E13–E15, dictload) thus serialize identically, and downstream
// tooling never has to special-case where the value lives.
func TestBenchSchemaGomaxprocs(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json files found (%v)", err)
	}
	for _, path := range paths {
		f, err := benchrow.Read(path)
		if err != nil {
			t.Error(err)
			continue
		}
		if _, ok := f.Config["gomaxprocs"]; ok {
			t.Errorf("%s: \"gomaxprocs\" in config is forbidden; record it per row", path)
		}
	}
}

// TestBenchSchemaWritestorm lints the E20 table specifically: every row
// must carry the axes its guards key on — an arm from the fixed four-arm
// set, a "skew" of uniform/hotshard and a writer count — every cell must
// carry its oracle verdict, and the sweep must retain both skews plus the
// joined and split arms at the highest writer count, so a regenerated
// BENCH_writestorm.json can never silently drop the cells the guard ratios
// compare.
func TestBenchSchemaWritestorm(t *testing.T) {
	f, err := benchrow.Read("BENCH_writestorm.json")
	if err != nil {
		t.Fatal(err)
	}
	arms := []string{"sharded-joined", "sharded-split", "sharded-auto", "dynamic-rwmutex"}
	maxWriters := 0.0
	for _, r := range f.Rows {
		if w, _ := r.Params["writers"].(float64); w > maxWriters {
			maxWriters = w
		}
	}
	oracle := map[string]bool{} // cell → has an oracle_ok row
	sawSkew := map[string]bool{}
	sawMaxArm := map[string]bool{}
	for i, r := range f.Rows {
		if r.Experiment != "E20" {
			t.Errorf("rows[%d]: experiment %q, want E20", i, r.Experiment)
		}
		if !slices.Contains(arms, r.Arm) {
			t.Errorf("rows[%d]: arm %q not in the fixed arm set", i, r.Arm)
		}
		skew, _ := r.Params["skew"].(string)
		if skew != "uniform" && skew != "hotshard" {
			t.Errorf("rows[%d]: skew %v not in {uniform, hotshard}", i, r.Params["skew"])
		}
		w, ok := r.Params["writers"].(float64)
		if !ok || w < 1 {
			t.Errorf("rows[%d]: writers %v, want ≥ 1", i, r.Params["writers"])
		}
		cell := fmt.Sprintf("%s %v g%d", r.Arm, r.Params, r.GOMAXPROCS)
		oracle[cell] = oracle[cell] || r.Metric == "oracle_ok"
		sawSkew[skew] = true
		if w == maxWriters {
			sawMaxArm[r.Arm+"/"+skew] = true
		}
	}
	for cell, ok := range oracle {
		if !ok {
			t.Errorf("cell %s: missing \"oracle_ok\"", cell)
		}
	}
	if !sawSkew["uniform"] || !sawSkew["hotshard"] {
		t.Error("BENCH_writestorm.json: both uniform and hotshard skews are required")
	}
	for _, cell := range []string{
		"sharded-joined/uniform", "sharded-split/uniform",
		"sharded-joined/hotshard", "sharded-split/hotshard",
	} {
		if !sawMaxArm[cell] {
			t.Errorf("BENCH_writestorm.json: missing %s at the highest writer count — an E20 guard ratio cell", cell)
		}
	}
}

// TestBenchSchemaLZ lints the E19 table specifically: every row must carry
// the axes its guards key on — an arm from the fixed three-arm set and a
// "redundancy" in [0, 1] — and the low-hit rows at redundancy ≥ 0.9 must be
// there, so a regenerated BENCH_lz.json can never silently drop the axes the
// guard compares across.
func TestBenchSchemaLZ(t *testing.T) {
	f, err := benchrow.Read("BENCH_lz.json")
	if err != nil {
		t.Fatal(err)
	}
	arms := []string{"raw", "decompress", "compressed"}
	sawHighRed := false
	for i, r := range f.Rows {
		if r.Experiment != "E19" {
			t.Errorf("rows[%d]: experiment %q, want E19", i, r.Experiment)
		}
		if !slices.Contains(arms, r.Arm) {
			t.Errorf("rows[%d]: arm %q not in {raw, decompress, compressed}", i, r.Arm)
		}
		red, ok := r.Params["redundancy"].(float64)
		if !ok {
			t.Errorf("rows[%d]: missing numeric \"redundancy\"", i)
			continue
		}
		if red < 0 || red > 1 {
			t.Errorf("rows[%d]: redundancy %v outside [0, 1]", i, red)
		}
		if red >= 0.9 && r.Params["hit"] == "low" {
			sawHighRed = true
		}
	}
	if !sawHighRed {
		t.Error("BENCH_lz.json: no redundancy ≥ 0.9 low-hit rows — the E19 guard's acceptance cell is missing")
	}
}
