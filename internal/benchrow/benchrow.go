// Package benchrow is the one on-disk format of the BENCH_*.json files that
// cmd/benchtab and cmd/dictload write: a machine fingerprint, the run's fixed
// configuration, and a flat list of rows, one per measured value.
//
// A row names its cell — experiment, arm, the swept parameters and the
// GOMAXPROCS it ran at — plus the metric and how many timed repeats the value
// came from. Each experiment keeps the statistic it has always reported in
// Value: best of the repeats for timings, the single reading for closed-loop
// runs. Files are written one row per line so a regenerated file diffs row by
// row.
package benchrow

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// Params holds a row's swept axes (hit_rate, skew, writers, ...). Values are
// strings, bools or numbers; numbers compare by value whatever their Go type.
type Params map[string]any

// AtLeast, as a value in the want argument of Contains, matches any number
// at or above it.
type AtLeast float64

func (a AtLeast) String() string { return fmt.Sprintf("≥%g", float64(a)) }

// Row is one measured value of one cell.
type Row struct {
	Experiment string  `json:"experiment"`
	Arm        string  `json:"arm"`
	Params     Params  `json:"params"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Metric     string  `json:"metric"`
	Repeats    int     `json:"repeats"`
	Value      float64 `json:"value"`
}

// Machine fingerprints the host and mode a file was measured in.
type Machine struct {
	NumCPU    int    `json:"num_cpu"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
	Quick     bool   `json:"quick"`
}

// File is one BENCH_*.json document.
type File struct {
	Machine Machine        `json:"machine"`
	Config  map[string]any `json:"config"`
	Rows    []Row          `json:"rows"`

	experiment string // the experiment Add records rows for
}

// New starts experiment's file, fingerprinted with this process's machine.
func New(experiment string, quick bool, config map[string]any) *File {
	return &File{
		Machine:    Machine{runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version(), quick},
		Config:     config,
		experiment: experiment,
	}
}

// Add appends one row per metric, in metric-name order, all at one cell.
func (f *File) Add(arm string, params Params, gomaxprocs, repeats int, metrics map[string]float64) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Rows = append(f.Rows, Row{f.experiment, arm, params, gomaxprocs, name, repeats, metrics[name]})
	}
}

// Get returns the value of the row at exactly this cell. gomaxprocs 0 matches
// any setting; ok is false unless exactly one row matches.
func (f *File) Get(arm string, params Params, gomaxprocs int, metric string) (v float64, ok bool) {
	n := 0
	for _, r := range f.Rows {
		if r.Arm == arm && r.Metric == metric && (gomaxprocs == 0 || r.GOMAXPROCS == gomaxprocs) &&
			len(r.Params) == len(params) && Contains(r.Params, params) {
			v, n = r.Value, n+1
		}
	}
	return v, n == 1
}

// Contains reports whether have holds every entry of want.
func Contains(have, want Params) bool {
	for k, w := range want {
		h, ok := have[k]
		hn, hNum := number(h)
		if min, isMin := w.(AtLeast); isMin {
			ok = ok && hNum && hn >= float64(min)
		} else if wn, wNum := number(w); wNum {
			ok = ok && hNum && hn == wn
		} else {
			ok = ok && h == w
		}
		if !ok {
			return false
		}
	}
	return true
}

func number(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	}
	return 0, false
}

// Validate checks the invariants every BENCH file must hold: a fingerprint,
// at least one row, every row's cell fully named with scalar params,
// gomaxprocs ≥ 1 and a finite value, and no two rows at the same cell and
// metric.
func (f *File) Validate() error {
	if m := f.Machine; m.NumCPU < 1 || m.GOOS == "" || m.GOARCH == "" || m.GoVersion == "" {
		return fmt.Errorf("incomplete machine fingerprint %+v", m)
	}
	if len(f.Rows) == 0 {
		return errors.New("no rows")
	}
	seen := map[string]bool{}
	for i, r := range f.Rows {
		for k, v := range r.Params {
			switch v.(type) {
			case string, bool, float64, int:
			default:
				return fmt.Errorf("rows[%d]: param %s = %v is not a string, bool or number", i, k, v)
			}
		}
		cell := fmt.Sprint(r.Experiment, " ", r.Arm, " ", r.Params, " g", r.GOMAXPROCS, " ", r.Metric)
		switch {
		case r.Experiment == "" || r.Arm == "" || r.Metric == "":
			return fmt.Errorf("rows[%d]: experiment, arm and metric are required", i)
		case r.GOMAXPROCS < 1 || r.Repeats < 1:
			return fmt.Errorf("rows[%d]: gomaxprocs %d and repeats %d must be ≥ 1", i, r.GOMAXPROCS, r.Repeats)
		case math.IsNaN(r.Value) || math.IsInf(r.Value, 0):
			return fmt.Errorf("rows[%d]: value %v is not finite", i, r.Value)
		case seen[cell]:
			return fmt.Errorf("rows[%d]: duplicate cell %s", i, cell)
		}
		seen[cell] = true
	}
	return nil
}

// Marshal renders f with one row per line.
func Marshal(f *File) ([]byte, error) {
	machine, _ := json.Marshal(f.Machine) // ints, strings and a bool: cannot fail
	config, err := json.Marshal(f.Config)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"machine\": %s,\n  \"config\": %s,\n  \"rows\": [", machine, config)
	for i, r := range f.Rows {
		row, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("rows[%d]: %w", i, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n    %s", row)
	}
	b.WriteString("\n  ]\n}\n")
	return b.Bytes(), nil
}

// Write validates f and writes it to path.
func Write(path string, f *File) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	b, err := Marshal(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return os.WriteFile(path, b, 0o644)
}

// Read parses and validates the file at path. Unknown fields are errors, so a
// stray top-level "gomaxprocs" or a misspelled row field cannot pass.
func Read(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
