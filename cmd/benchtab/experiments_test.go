package main

import (
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
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
