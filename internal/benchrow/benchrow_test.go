package benchrow

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	f := New("E99", true, map[string]any{"n": 1024})
	f.Add("wide", Params{"hit_rate": 0.01, "skew": "uniform", "prefilter": true}, 2, 3,
		map[string]float64{"ns_per_byte": 1.5, "mb_per_s": 666.25})
	f.Add("all", Params{}, 2, 1, map[string]float64{"max_sustainable_qps": 400})
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Machine != f.Machine || len(g.Rows) != 3 || g.Config["n"] != 1024.0 {
		t.Fatalf("read back %+v, wrote %+v", g, f)
	}
	if g.Rows[0].Metric != "mb_per_s" || g.Rows[1].Metric != "ns_per_byte" {
		t.Errorf("metrics not in name order: %+v", g.Rows[:2])
	}
	// Numbers match by value across int (written) and float64 (read back).
	if v, ok := g.Get("wide", Params{"hit_rate": 0.01, "skew": "uniform", "prefilter": true}, 2, "ns_per_byte"); !ok || v != 1.5 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if _, ok := g.Get("wide", Params{"hit_rate": 0.01, "skew": "uniform"}, 0, "ns_per_byte"); ok {
		t.Error("Get matched a cell with a missing param")
	}
	if v, ok := g.Get("all", nil, 0, "max_sustainable_qps"); !ok || v != 400 {
		t.Errorf("Get with no params = %v, %v", v, ok)
	}
}

func TestReadRejects(t *testing.T) {
	const machine = `"machine": {"num_cpu":1,"goos":"linux","goarch":"amd64","go_version":"go1.22","quick":false}`
	const row = `{"experiment":"E1","arm":"a","params":{"k":1},"gomaxprocs":1,"metric":"m","repeats":1,"value":2}`
	for name, doc := range map[string]string{
		"top-level gomaxprocs": `{` + machine + `, "config": {}, "gomaxprocs": 1, "rows": [` + row + `]}`,
		"unknown row field":    `{` + machine + `, "config": {}, "rows": [` + strings.Replace(row, `"value"`, `"n":1,"value"`, 1) + `]}`,
		"gomaxprocs 0":         `{` + machine + `, "config": {}, "rows": [` + strings.Replace(row, `"gomaxprocs":1`, `"gomaxprocs":0`, 1) + `]}`,
		"no repeats":           `{` + machine + `, "config": {}, "rows": [` + strings.Replace(row, `"repeats":1`, `"repeats":0`, 1) + `]}`,
		"no arm":               `{` + machine + `, "config": {}, "rows": [` + strings.Replace(row, `"arm":"a"`, `"arm":""`, 1) + `]}`,
		"duplicate cell":       `{` + machine + `, "config": {}, "rows": [` + row + `,` + row + `]}`,
		"no rows":              `{` + machine + `, "config": {}, "rows": []}`,
		"no fingerprint":       `{"config": {}, "rows": [` + row + `]}`,
	} {
		path := filepath.Join(t.TempDir(), "BENCH_x.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path); err == nil {
			t.Errorf("%s: Read accepted %s", name, doc)
		}
	}
	f := New("E1", false, nil)
	f.Add("a", nil, 1, 1, map[string]float64{"m": math.NaN()})
	if err := Write(filepath.Join(t.TempDir(), "x.json"), f); err == nil {
		t.Error("Write accepted a NaN value")
	}
}
