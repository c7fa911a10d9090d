// Package match2d implements multi-dimensional pattern matching with optimal
// speedup (§1 item 5, §7 closing remark): square patterns of a common side m
// are matched in O(n + M) work and O(log m) time by two applications of the
// equal-length multi-pattern matcher (package multimatch), following the
// classical dimension-reduction of [KLP89] / Bird–Baker:
//
//  1. rows: every pattern row becomes an equal-length (m) dictionary; the
//     row matcher names, for each text cell, the pattern row matching there;
//  2. columns: each pattern becomes the length-m string of its row names; the
//     column matcher runs down the columns of the name grid.
//
// The same construction with pattern slices generalizes to any fixed d; the
// package provides d = 2, the only dimension a caller uses.
package match2d

import (
	"errors"

	"pardict/internal/multimatch"
	"pardict/internal/naming"
	"pardict/internal/pram"
)

// ErrNotSquare reports a pattern whose rows differ in length from its side,
// or patterns of differing sizes.
var ErrNotSquare = errors.New("match2d: patterns must be equal-size squares")

// Matcher matches a dictionary of equal-size m×m patterns. Immutable after
// New; safe for concurrent Match calls.
type Matcher struct {
	m    int
	np   int
	rows *multimatch.Matcher // dictionary of all pattern rows
	cols *multimatch.Matcher // dictionary of row-name strings, one per pattern
}

// New preprocesses equal-size square patterns in O(M) work.
func New(c *pram.Ctx, patterns [][][]int32) (*Matcher, error) {
	mm := &Matcher{np: len(patterns)}
	if mm.np == 0 {
		return mm, nil
	}
	mm.m = len(patterns[0])
	for _, p := range patterns {
		if len(p) != mm.m {
			return nil, ErrNotSquare
		}
		for _, row := range p {
			if len(row) != mm.m {
				return nil, ErrNotSquare
			}
		}
	}
	if mm.m == 0 {
		return nil, multimatch.ErrEmptyPattern
	}

	rowStrings := make([][]int32, 0, mm.np*mm.m)
	for _, p := range patterns {
		rowStrings = append(rowStrings, p...)
	}
	var err error
	mm.rows, err = multimatch.New(c, rowStrings)
	if err != nil {
		return nil, err
	}

	colStrings := make([][]int32, mm.np)
	c.For(mm.np, func(i int) {
		s := make([]int32, mm.m)
		for r := 0; r < mm.m; r++ {
			s[r] = mm.rows.PatternName(i*mm.m + r)
		}
		colStrings[i] = s
	})
	mm.cols, err = multimatch.New(c, colStrings)
	if err != nil {
		return nil, err
	}
	return mm, nil
}

// M reports the common pattern side length.
func (mm *Matcher) M() int { return mm.m }

// PatternCount reports the number of patterns.
func (mm *Matcher) PatternCount() int { return mm.np }

// Match returns a grid (same shape as text) with, per cell, the index of the
// pattern whose top-left corner matches there, or -1. Rows of text may have
// unequal lengths; cells outside a rectangular core simply never match.
func (mm *Matcher) Match(c *pram.Ctx, text [][]int32) [][]int32 {
	r := len(text)
	out := make([][]int32, r)
	c.For(r, func(i int) {
		out[i] = make([]int32, len(text[i]))
		for j := range out[i] {
			out[i][j] = -1
		}
	})
	if mm.np == 0 || mm.m == 0 || r < mm.m {
		return out
	}

	// Round 1: row matching. All rows are matched in one MatchNames call on
	// a None-separated concatenation (None never matches, so no match can
	// straddle a row boundary). nameGrid[i][j] = name of the pattern row
	// matching at (i,j), covering text[i][j..j+m-1].
	rowOff := make([]int, r+1)
	for i := 0; i < r; i++ {
		rowOff[i+1] = rowOff[i] + len(text[i]) + 1
	}
	c.AddWork(int64(r))
	rowConcat := make([]int32, rowOff[r])
	pram.Fill(c, rowConcat, naming.None)
	c.For(r, func(i int) {
		copy(rowConcat[rowOff[i]:], text[i])
	})
	rowNames := mm.rows.MatchNames(c, rowConcat)
	nameGrid := make([][]int32, r)
	c.For(r, func(i int) {
		nameGrid[i] = rowNames[rowOff[i] : rowOff[i]+len(text[i])]
	})

	// Round 2: column matching over the name grid. Columns are assembled as
	// one concatenated string with None separators, so a single MatchNames
	// call processes all columns (None never matches, so matches cannot
	// straddle a separator).
	cols := 0
	for i := 0; i < r; i++ {
		if len(nameGrid[i]) > cols {
			cols = len(nameGrid[i])
		}
	}
	concat := make([]int32, cols*(r+1))
	pram.Fill(c, concat, naming.None)
	c.For(cols, func(j int) {
		base := j * (r + 1)
		for i := 0; i < r; i++ {
			if j < len(nameGrid[i]) {
				concat[base+i] = nameGrid[i][j]
			}
		}
	})
	colMatch := mm.cols.Match(c, concat)
	c.For(cols, func(j int) {
		base := j * (r + 1)
		for i := 0; i+mm.m <= r; i++ {
			if p := colMatch[base+i]; p >= 0 && j < len(out[i]) {
				out[i][j] = p
			}
		}
	})
	return out
}
