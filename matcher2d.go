package pardict

import (
	"context"
	"fmt"

	"pardict/internal/alpha"
	"pardict/internal/dictnd"
	"pardict/internal/obs"
)

// cubeDict is the engine behind Matcher2D and Matcher3D: a dictnd
// dictionary of cube patterns over the configured alphabet.
type cubeDict struct {
	cfg *config
	enc *alpha.Encoder
	d   *dictnd.Dict
}

// newCubeDict encodes dim-dimensional cube patterns, each given as its
// side^dim bytes in row-major order, and preprocesses them in O(M) work.
func newCubeDict(dim int, patterns [][]byte, opts []Option) (cubeDict, error) {
	cfg := buildConfig(opts)
	enc, err := cfg.encoder()
	if err != nil {
		return cubeDict{}, err
	}
	encoded := make([][]int32, len(patterns))
	for i, p := range patterns {
		if encoded[i], err = enc.EncodePattern(p); err != nil {
			return cubeDict{}, err
		}
	}
	d, err := dictnd.Preprocess(cfg.newCtx(), dim, encoded)
	if err != nil {
		return cubeDict{}, err
	}
	return cubeDict{cfg: cfg, enc: enc, d: d}, nil
}

// MaxSide reports the largest pattern side.
func (m *cubeDict) MaxSide() int { return m.d.MaxSide() }

// PatternCount reports the number of patterns.
func (m *cubeDict) PatternCount() int { return m.d.PatternCount() }

// match scans a row-major text of the given shape under gctx; cancellation
// aborts the scan within one parallel phase and returns an error wrapping
// ErrCanceled and the context's cause.
func (m *cubeDict) match(gctx context.Context, engine string, text []byte, shape []int) (*dictnd.Result, Stats, error) {
	ctx := m.cfg.newCtxFor(gctx)
	enc := m.enc.Encode(text)
	var r *dictnd.Result
	var err error
	obs.Do(gctx, func(lctx context.Context) {
		ctx.SetLabelContext(lctx)
		r, err = m.d.Match(ctx, enc, shape)
	}, "engine", engine, "op", "match")
	if err != nil {
		return nil, Stats{}, err
	}
	if err := canceledErr(ctx); err != nil {
		return nil, Stats{}, err
	}
	return r, statsOf(ctx), nil
}

// appendRows appends rows to dst and reports whether each was w bytes long.
func appendRows(dst []byte, rows [][]byte, w int) ([]byte, bool) {
	for _, row := range rows {
		if len(row) != w {
			return dst, false
		}
		dst = append(dst, row...)
	}
	return dst, true
}

// Matcher2D is a preprocessed dictionary of square byte patterns of possibly
// different sides (§5, Theorem 6). Immutable; safe for concurrent Match2D.
type Matcher2D struct {
	cubeDict
}

// NewMatcher2D preprocesses square patterns (each [][]byte must be s rows of
// s bytes) in O(M) work.
func NewMatcher2D(patterns [][][]byte, opts ...Option) (*Matcher2D, error) {
	flat := make([][]byte, len(patterns))
	for i, p := range patterns {
		var ok bool
		if flat[i], ok = appendRows(nil, p, len(p)); !ok {
			return nil, dictnd.ErrNotCube
		}
	}
	cd, err := newCubeDict(2, flat, opts)
	if err != nil {
		return nil, err
	}
	return &Matcher2D{cd}, nil
}

// Matches2D is the per-cell result of Match2D.
type Matches2D struct {
	d     *dictnd.Dict
	r     *dictnd.Result
	cols  int
	stats Stats
}

// Match2D scans a rectangular text (rows of equal length) and reports, per
// cell, the largest pattern whose top-left corner matches there
// (Theorem 6: O(n·log m) work, O(log m) depth).
func (m *Matcher2D) Match2D(text [][]byte) (*Matches2D, error) {
	return m.Match2DContext(context.Background(), text)
}

// Match2DContext is Match2D under a context: cancellation aborts the scan
// within one parallel phase and returns an error wrapping ErrCanceled and
// the context's cause.
func (m *Matcher2D) Match2DContext(gctx context.Context, text [][]byte) (*Matches2D, error) {
	cols := 0
	if len(text) > 0 {
		cols = len(text[0])
	}
	flat, ok := appendRows(make([]byte, 0, len(text)*cols), text, cols)
	if !ok {
		return nil, dictnd.ErrRagged
	}
	r, stats, err := m.match(gctx, "2d", flat, []int{len(text), cols})
	if err != nil {
		return nil, err
	}
	return &Matches2D{d: m.d, r: r, cols: cols, stats: stats}, nil
}

// SchedulerStats snapshots the counters of the scheduler this matcher
// executes on; see Matcher.SchedulerStats.
func (m *Matcher2D) SchedulerStats() SchedulerStats {
	return schedulerStatsOf(m.cfg.schedulerPool())
}

// cell returns the flat index of (i, j). A column outside the text panics,
// as indexing a row would; a row outside it leaves the flat arrays.
func (r *Matches2D) cell(i, j int) int {
	if j < 0 || j >= r.cols {
		panic(fmt.Sprintf("pardict: column %d out of range [0, %d)", j, r.cols))
	}
	return i*r.cols + j
}

// Largest returns the index of the largest pattern cornered at (i, j) and
// whether any matches.
func (r *Matches2D) Largest(i, j int) (int, bool) {
	p := r.r.Pat[r.cell(i, j)]
	return int(p), p >= 0
}

// PrefixSide reports the side of the largest dictionary square-prefix
// cornered at (i, j) — the 2-D prefix-matching output.
func (r *Matches2D) PrefixSide(i, j int) int { return int(r.r.Side[r.cell(i, j)]) }

// All appends to dst the indices of every pattern cornered at (i, j),
// largest side first (output-sensitive all-matches expansion).
func (r *Matches2D) All(i, j int, dst []int) []int {
	for _, p := range r.d.AllMatches(r.r, r.cell(i, j), nil) {
		dst = append(dst, int(p))
	}
	return dst
}

// Stats reports the instrumented cost of the call.
func (r *Matches2D) Stats() Stats { return r.stats }

// Matcher3D matches a dictionary of cube patterns of (possibly) different
// sides — the d = 3 instance of the paper's fixed-d claim.
type Matcher3D struct {
	cubeDict
}

// NewMatcher3D preprocesses cube patterns (pattern[z][y][x]; each must be an
// s×s×s cube, sides may differ across patterns) in O(M) work.
func NewMatcher3D(patterns [][][][]byte, opts ...Option) (*Matcher3D, error) {
	flat := make([][]byte, len(patterns))
	for i, p := range patterns {
		for _, slice := range p {
			var ok bool
			if flat[i], ok = appendRows(flat[i], slice, len(p)); !ok || len(slice) != len(p) {
				return nil, dictnd.ErrNotCube
			}
		}
	}
	cd, err := newCubeDict(3, flat, opts)
	if err != nil {
		return nil, err
	}
	return &Matcher3D{cd}, nil
}

// Match3D scans a box-shaped text and returns, per cell, the index of the
// largest pattern whose corner matches there, or -1 (Theorem 6 extended to
// d = 3: O(n·log m) work).
func (m *Matcher3D) Match3D(text [][][]byte) ([][][]int32, error) {
	return m.Match3DContext(context.Background(), text)
}

// Match3DContext is Match3D under a context: cancellation aborts the scan
// within one parallel phase and returns an error wrapping ErrCanceled and
// the context's cause.
func (m *Matcher3D) Match3DContext(gctx context.Context, text [][][]byte) ([][][]int32, error) {
	yd, xd := 0, 0
	if len(text) > 0 && len(text[0]) > 0 {
		yd, xd = len(text[0]), len(text[0][0])
	}
	flat := make([]byte, 0, len(text)*yd*xd)
	for _, slice := range text {
		var ok bool
		if flat, ok = appendRows(flat, slice, xd); !ok || len(slice) != yd {
			return nil, dictnd.ErrRagged
		}
	}
	r, _, err := m.match(gctx, "3d", flat, []int{len(text), yd, xd})
	if err != nil {
		return nil, err
	}
	out := make([][][]int32, len(text))
	for z := range out {
		out[z] = make([][]int32, yd)
		for y := range out[z] {
			lo := (z*yd + y) * xd
			out[z][y] = r.Pat[lo : lo+xd : lo+xd]
		}
	}
	return out, nil
}
