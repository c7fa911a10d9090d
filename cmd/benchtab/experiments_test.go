package main

import (
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pardict/internal/benchrow"
)

// runQuiet runs an experiment at quick size and returns what it printed.
func runQuiet(t *testing.T, exp func()) string {
	t.Helper()
	q := *quick
	*quick = true
	defer func() { *quick = q }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	exp()
	w.Close()
	return <-printed
}

// tableRows returns the printed table rows that have exactly width fields,
// every one a number, in order. Headers and notes have words in them.
func tableRows(out string, width int) [][]float64 {
	var rows [][]float64
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != width {
			continue
		}
		v := make([]float64, width)
		for i, s := range f {
			x, err := strconv.ParseFloat(s, 64)
			if err != nil {
				v = nil
				break
			}
			v[i] = x
		}
		if v != nil {
			rows = append(rows, v)
		}
	}
	return rows
}

// TestE2Quick runs the Theorem 3 experiment at quick size and checks its
// table: one row per M, counted work/M flat within 25% as M grows 16-fold,
// and a positive wall clock at one and two processors.
func TestE2Quick(t *testing.T) {
	out := runQuiet(t, e2)
	var perM []float64
	for _, v := range tableRows(out, 8) {
		if v[5] <= 0 || v[6] <= 0 || v[7] <= 0 {
			t.Fatalf("row %v: wall clock columns must be positive", v)
		}
		perM = append(perM, v[3])
	}
	if len(perM) != 3 {
		t.Fatalf("want 3 rows at quick size, got %d:\n%s", len(perM), out)
	}
	lo, hi := perM[0], perM[0]
	for _, x := range perM {
		lo, hi = min(lo, x), max(hi, x)
	}
	if hi > 1.25*lo {
		t.Fatalf("work/M not flat: %v\n%s", perM, out)
	}
}

// TestE4Quick runs the Theorem 4 experiment at quick size and checks its
// table, one row per L: text work/n falls and preprocessing work/M rises
// with each larger L.
func TestE4Quick(t *testing.T) {
	out := runQuiet(t, e4)
	rows := tableRows(out, 4)
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d:\n%s", len(rows), out)
	}
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if !(cur[1] < prev[1]) || !(cur[3] > prev[3]) {
			t.Errorf("L=%v -> L=%v: work/n %v -> %v, preproc work/M %v -> %v; want falling, rising",
				prev[0], cur[0], prev[1], cur[1], prev[3], cur[3])
		}
	}
}

// TestE5Quick runs the Theorem 6 experiment at quick size and checks both
// tables, one row per m: work/n and depth rise by 2 per doubling of m at
// d = 2 and d = 3, and at d = 3 work/n reads 2·log2(m)+2.
func TestE5Quick(t *testing.T) {
	out := runQuiet(t, e5)
	// d = 2 rows: m, work/n, w/n/log2m, depth, equal-size w/n; d = 3 rows
	// drop the last column.
	for _, tc := range []struct {
		dim, width, rows int
	}{{2, 5, 4}, {3, 4, 3}} {
		rows := tableRows(out, tc.width)
		if len(rows) != tc.rows {
			t.Fatalf("d=%d: want %d rows, got %d:\n%s", tc.dim, tc.rows, len(rows), out)
		}
		for i, v := range rows {
			if tc.dim == 3 {
				if want := 2*math.Log2(v[0]) + 2; math.Abs(v[1]-want) > 0.01 {
					t.Errorf("d=3 m=%v: work/n %v, want 2·log2(m)+2 = %v", v[0], v[1], want)
				}
			}
			if i == 0 {
				continue
			}
			prev := rows[i-1]
			if v[0] != 2*prev[0] || math.Abs(v[1]-prev[1]-2) > 0.05 || v[3] != prev[3]+2 {
				t.Errorf("d=%d m=%v -> %v: work/n %v -> %v, depth %v -> %v; want +2 each",
					tc.dim, prev[0], v[0], prev[1], v[1], prev[3], v[3])
			}
		}
	}
}

// TestE16Quick runs the streaming experiment at quick size and checks the
// rows it records: every (streams, GOMAXPROCS) cell has both arms, each with
// a positive aggregate MB/s and the same positive match total — the
// cross-check E16's guard makes too.
func TestE16Quick(t *testing.T) {
	runQuiet(t, e16)
	f := results["E16"]
	if f == nil || !f.Machine.Quick {
		t.Fatal("E16 recorded no quick rows")
	}
	procs := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		procs = append(procs, n)
	}
	for _, g := range procs {
		for _, streams := range []int{32, 128} {
			cell := benchrow.Params{"streams": streams}
			var totals []float64
			for _, arm := range []string{"server", "goroutines"} {
				mbps, ok1 := f.Get(arm, cell, g, "agg_mb_per_sec")
				n, ok2 := f.Get(arm, cell, g, "matches")
				if !ok1 || !ok2 || !(mbps > 0) || !(n > 0) {
					t.Fatalf("%s streams=%d g=%d: %v MB/s (%v), %v matches (%v)", arm, streams, g, mbps, ok1, n, ok2)
				}
				totals = append(totals, n)
			}
			if totals[0] != totals[1] {
				t.Errorf("streams=%d g=%d: server %v matches, goroutines %v", streams, g, totals[0], totals[1])
			}
		}
	}
	for _, g := range guards {
		if g.exp == "E16" {
			for _, msg := range g.check(f, nil) {
				t.Errorf("guard: %s", msg)
			}
		}
	}
}

// TestE20Quick runs the write-storm experiment at quick size and checks the
// rows it records: every (arm, skew, writers) cell wrote, and its quiesced
// matcher agreed with the dynamic oracle. The joined, split and auto arms
// drive every caller of the shard write path. Throughput floors stay with
// the guard table.
func TestE20Quick(t *testing.T) {
	runQuiet(t, e20)
	f := results["E20"]
	if f == nil || !f.Machine.Quick {
		t.Fatal("E20 recorded no quick rows")
	}
	g := runtime.GOMAXPROCS(0)
	for _, skew := range []string{"uniform", "hotshard"} {
		for _, writers := range []int{1, 4, 8} {
			cell := benchrow.Params{"skew": skew, "writers": writers}
			for _, arm := range []string{"sharded-joined", "sharded-split", "sharded-auto", "dynamic-rwmutex"} {
				if arm == "dynamic-rwmutex" && skew != "uniform" {
					continue // no shards, so no skew
				}
				wps, ok1 := f.Get(arm, cell, g, "writes_per_sec")
				oracle, ok2 := f.Get(arm, cell, g, "oracle_ok")
				if !ok1 || !ok2 || !(wps > 0) || oracle != 1 {
					t.Errorf("%s %s writers=%d: %v writes/s (%v), oracle_ok %v (%v)", arm, skew, writers, wps, ok1, oracle, ok2)
				}
			}
		}
	}
}
