package main

import (
	"io"
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

// TestE2Quick runs the Theorem 3 experiment at quick size and checks its
// table: one row per M, counted work/M flat within 25% as M grows 16-fold,
// and a positive wall clock at one and two processors.
func TestE2Quick(t *testing.T) {
	out := runQuiet(t, e2)
	var perM []float64
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 8 {
			continue
		}
		if _, err := strconv.Atoi(f[0]); err != nil {
			continue // the header
		}
		var v [8]float64
		for i, s := range f {
			x, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatalf("row %q: field %q: %v", line, s, err)
			}
			v[i] = x
		}
		if v[5] <= 0 || v[6] <= 0 || v[7] <= 0 {
			t.Fatalf("row %q: wall clock columns must be positive", line)
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
