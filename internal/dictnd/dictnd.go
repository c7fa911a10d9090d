// Package dictnd implements §5 of the paper for any fixed dimension d:
// dictionary matching over cube patterns of (possibly) different sides in
// O(log m) time, O(M) preprocessing work and O(n·log m) matching work
// (Theorem 6). The paper proves the theorem for d = 2 and calls the
// extension to any fixed d straightforward; nothing in the construction
// below depends on d except how many axes its loops run over. The public
// Matcher2D and Matcher3D run it with d = 2 and d = 3.
//
// Patterns, texts and results are flat row-major []int32: the last axis
// varies fastest, so a side-s pattern is its s^d cells and a text of shape
// (n_1, …, n_d) is n_1·…·n_d cells. Internally axis b counts from the last
// one (b = 0 is the row axis), so the subsets of axes are the bit masks
// m ∈ [0, 2^d) with bit b standing for axis b.
//
// Level k of the recursion works on the set S_k of cubes over level-k
// symbols (blocks of side 2^k of original characters):
//
//   - S'_k = S_k plus 2^d−2 stripped variants of every element, one per
//     nonempty proper axis subset m: drop the first slice along each axis
//     in m, truncated back to a cube. A candidate of odd side 2i+1 is
//     covered by the 2^d−1 side-2i cubes at offsets m ∈ {0,1}^d \ {1…1} —
//     the element's own prefix (m = 0) and a prefix of each variant — plus
//     the far-corner cell, the ⟨n_e, n_r, n_c, corner⟩ namestamp of §5
//     Step 4b for any d. A level keeps (2^d−1)/2^d of the previous level's
//     size, the geometric decay that keeps preprocessing at O(M).
//   - Every element of S'_k gets unified cube-prefix names: Lemma 1's prefix
//     naming applied along each axis in turn (rows, then squares over row
//     names, then cubes over square names, …). "Unified" means equal
//     (content, side) ⇒ equal name across elements and variants, which
//     collapses the paper's per-set case analysis into plain table lookups.
//   - S_{k+1} = S'_k shrunk by naming disjoint blocks of side 2 through d
//     pair tables, one axis at a time. The spawn side is implicit: the
//     level-k block grid holds the block name at every cell, and the 2^d
//     spawned texts of §5 Step 1 are its stride-2^k subsamplings.
//
// Unwinding, per cell τ and level k: the recursion (level k+1) supplies the
// largest even-side S'_k-prefix α(τ). The answer at level k is either the
// largest S_k-sub-prefix of α(τ) (lpS table) or the odd candidate of side
// 2i+1, checked with one namestamp of the 2^d−1 piece names (α(τ) and
// truncations of the neighbours' α values) and the far-corner symbol,
// through 2^d−1 chained candidate tables: O(1) lookups per cell per level
// for fixed d.
package dictnd

import (
	"errors"
	"fmt"

	"pardict/internal/flathash"
	"pardict/internal/naming"
	"pardict/internal/pram"
)

// Errors reported by Preprocess and Match.
var (
	ErrNotCube      = errors.New("dictnd: patterns must have the same side along every axis")
	ErrEmptyPattern = errors.New("dictnd: empty pattern")
	ErrDuplicate    = errors.New("dictnd: duplicate pattern")
	ErrRagged       = errors.New("dictnd: text must fill a box of its shape")
)

// Dict is a preprocessed d-dimensional dictionary. Immutable after
// Preprocess; safe for concurrent Match calls.
type Dict struct {
	dim    int
	levels []*level
	lpPat  []int32 // level-0 name -> largest pattern that is a sub-prefix
	// nextShort[p] = largest pattern that is a proper sub-prefix (smaller
	// corner cube) of pattern p, or -1: the §4.2-style chain that makes
	// all-matches output per cell output-sensitive.
	nextShort []int32
	maxSide   int
	np        int
}

// level holds the per-recursion-level tables (see package comment).
type level struct {
	// Block naming: pair[b] names two neighbouring blocks along axis b, each
	// spanning axes 0..b−1, so pair[0] joins two cells of a row and
	// pair[d−1] the two halves of a side-2 block.
	pair []*naming.Frozen

	// Unified cube-prefix machinery over S'_k.
	sideOf []int32        // name -> side
	trunc  *naming.Frozen // (name, smaller side) -> name of that sub-prefix
	lpS    []int32        // name -> name of the largest S_k-sub-prefix (or Empty)

	// Odd-candidate namestamp, staged: cand[t] maps (stamp, piece t+1) to
	// the next stamp, starting from piece 0; the last table maps (stamp,
	// corner) to the name of the (2i+1)-side S_k-prefix.
	cand []*naming.Frozen

	// mapUp[next-level name] = this-level name of the unshrunk
	// (doubled-side) prefix.
	mapUp []int32

	// Deferred mapUp fill: the shrunk elements (whose names the next level
	// assigns) paired with their sources in S'_k.
	pendingMap []*cube
	pendingSrc []*cube
}

// cube is one element of S'_k with its prefix names by side.
type cube struct {
	cells []int32 // side^d cells, row-major
	side  int
	pn    []int32 // pn[s-1] = name of the side-s prefix
	isS   bool    // true when the element is in S_k (not a stripped variant)
	pat   int32   // original pattern index when a level-0 S element, else -1
}

// namer hands out the names 0, 1, 2, … to pairs in first-seen order.
type namer struct {
	seen flathash.Map[int32]
}

func (n *namer) name(a, b int32) int32 {
	got, _ := n.seen.PutIfAbsent(naming.EncodePair(a, b), int32(n.seen.Len()))
	return got
}

// freeze builds each namer's table, pair -> name.
func freeze(c *pram.Ctx, ns []namer) []*naming.Frozen {
	fs := make([]*naming.Frozen, len(ns))
	for i := range ns {
		keys := make([]uint64, ns[i].seen.Len())
		vals := make([]int32, len(keys))
		ns[i].seen.Range(func(k uint64, v int32) bool {
			keys[v], vals[v] = k, v
			return true
		})
		fs[i] = naming.FreezeKeys(c, keys, vals, len(keys))
	}
	return fs
}

// MaxSide reports m, the largest pattern side.
func (d *Dict) MaxSide() int { return d.maxSide }

// PatternCount reports the number of patterns.
func (d *Dict) PatternCount() int { return d.np }

// Preprocess builds the dictionary from dim-dimensional cube patterns, each
// given as its side^dim cells in row-major order, in O(M) work.
func Preprocess(c *pram.Ctx, dim int, patterns [][]int32) (*Dict, error) {
	d := &Dict{dim: dim, np: len(patterns)}
	elems := make([]*cube, 0, len(patterns))
	seen := map[string]int{}
	for pi, p := range patterns {
		if len(p) == 0 {
			return nil, ErrEmptyPattern
		}
		side := 1
		for ipow(side+1, dim) <= len(p) {
			side++
		}
		if ipow(side, dim) != len(p) {
			return nil, ErrNotCube
		}
		// Equal lengths mean equal sides, so the cells alone are the key.
		k := cellKey(p)
		if prev, ok := seen[k]; ok {
			return nil, fmt.Errorf("%w: patterns %d and %d", ErrDuplicate, prev, pi)
		}
		seen[k] = pi
		if side > d.maxSide {
			d.maxSide = side
		}
		elems = append(elems, &cube{cells: p, side: side, isS: true, pat: int32(pi)})
	}
	if d.maxSide == 0 {
		return d, nil
	}

	var prev *level
	for len(elems) > 0 {
		lv, next := d.buildLevel(c, elems)
		d.levels = append(d.levels, lv)
		if prev != nil {
			fillMapUp(c, prev)
		}
		if len(d.levels) == 1 {
			d.buildPatternChain(c, lv, elems)
		}
		elems = next
		prev = lv
	}
	prev.pendingMap, prev.pendingSrc = nil, nil // last level shrinks to nothing
	return d, nil
}

func cellKey(p []int32) string {
	b := make([]byte, 0, 4*len(p))
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// fillMapUp binds the freshly named shrunk elements back to their sources:
// mapUp[δ_{k+1}(e”, s)] = δ'_k(e', 2s).
func fillMapUp(c *pram.Ctx, lv *level) {
	maxName := int32(-1)
	for _, e := range lv.pendingMap {
		for _, name := range e.pn {
			if name > maxName {
				maxName = name
			}
		}
	}
	lv.mapUp = make([]int32, maxName+1)
	var work int64
	for i, e := range lv.pendingMap {
		src := lv.pendingSrc[i]
		for s := 1; s <= e.side; s++ {
			lv.mapUp[e.pn[s-1]] = src.pn[2*s-1]
		}
		work += int64(e.side)
	}
	c.AddWork(work)
	c.AddDepth(1)
	lv.pendingMap, lv.pendingSrc = nil, nil
}

// buildPatternChain computes lpPat over the level-0 names: for every named
// cube content, the largest original pattern that is a sub-prefix (the
// "diagonal" resolution closing §5), and the nextShort chain. elems are the
// level-0 S elements, one per pattern.
func (d *Dict) buildPatternChain(c *pram.Ctx, lv *level, elems []*cube) {
	patAt := make([]int32, len(lv.sideOf))
	for i := range patAt {
		patAt[i] = -1
	}
	for _, e := range elems {
		patAt[e.pn[e.side-1]] = e.pat
	}
	d.lpPat = make([]int32, len(lv.sideOf))
	for i := range d.lpPat {
		d.lpPat[i] = -1
	}
	for _, e := range elems {
		carry := int32(-1)
		for _, name := range e.pn {
			if p := patAt[name]; p >= 0 {
				carry = p
			}
			d.lpPat[name] = carry
		}
	}
	d.nextShort = make([]int32, d.np)
	for _, e := range elems {
		d.nextShort[e.pat] = -1
		if e.side > 1 {
			d.nextShort[e.pat] = d.lpPat[e.pn[e.side-2]]
		}
	}
	c.AddWork(int64(2*len(lv.sideOf)) + int64(d.np))
	c.AddDepth(int64(log2i(d.maxSide) + 1))
}

// buildLevel constructs every table for one level from the S_k elements and
// returns the S_{k+1} elements.
func (d *Dict) buildLevel(c *pram.Ctx, sElems []*cube) (*level, []*cube) {
	lv := &level{}

	// S' = S plus the stripped variants of each element of side ≥ 2, in
	// mask order 1 … 2^d−2 after their element's predecessors' variants.
	nv := 1<<d.dim - 2
	all := make([]*cube, 0, (nv+1)*len(sElems))
	all = append(all, sElems...)
	for _, e := range sElems {
		if e.side < 2 {
			continue
		}
		st := strides(e.side, d.dim)
		corner := offsets(st, 1)
		t := e.side - 1
		for m := 1; m <= nv; m++ {
			cells := make([]int32, ipow(t, d.dim))
			for j := range cells {
				cells[j] = e.cells[corner[m]+at(j, t, 1, st)]
			}
			all = append(all, &cube{cells: cells, side: t, pat: -1})
		}
	}

	d.namePrefixes(c, lv, all)
	buildTrunc(c, lv, all)
	buildLpS(c, lv, all)
	d.buildCandidates(c, lv, sElems, all)
	next := d.shrink(c, lv, all)
	return lv, next
}

// namePrefixes assigns unified cube-prefix names to every element of S'
// (Lemma 1 along each axis in turn): a chain along each row names the row's
// prefixes; then, for axis b = 1 … d−1, the side-s prefix of every
// (b+1)-dimensional slice is named by a chain over its first s layers'
// side-s names from the axis before. Names are counter-allocated through
// one chain table per axis, so equal (content, side) ⇒ equal name across
// elements and variants.
func (d *Dict) namePrefixes(c *pram.Ctx, lv *level, all []*cube) {
	ns := make([]namer, d.dim)
	var work int64
	for _, e := range all {
		s := e.side
		// cur[o*s+x] names row o's prefix of length x+1.
		cur := make([]int32, len(e.cells))
		for o := 0; o < len(cur); o += s {
			prev := naming.Empty
			for x := 0; x < s; x++ {
				prev = ns[0].name(prev, e.cells[o+x])
				cur[o+x] = prev
			}
		}
		// Over axis b, cur[(o*s+y)*s+p] names layer y's side-(p+1) prefix
		// of slice o, and next[o*s+p] the slice's own side-(p+1) prefix.
		for b := 1; b < d.dim; b++ {
			next := make([]int32, len(cur)/s)
			for o := 0; o < len(next); o += s {
				for p := 0; p < s; p++ {
					prev := naming.Empty
					for y := 0; y <= p; y++ {
						prev = ns[b].name(prev, cur[(o+y)*s+p])
					}
					next[o+p] = prev
				}
			}
			cur = next
		}
		e.pn = cur
		work += int64(d.dim) * int64(len(e.cells))
	}
	lv.sideOf = make([]int32, ns[d.dim-1].seen.Len())
	for _, e := range all {
		for p, name := range e.pn {
			lv.sideOf[name] = int32(p + 1)
		}
	}
	c.AddWork(work)
	c.AddDepth(int64(log2i(maxSideOf(all)) + 1))
}

// buildTrunc fills trunc[(δ(e,b), a)] = δ(e,a) for a < b. A name fixes
// its content, so the first element carrying a name emits all its entries.
func buildTrunc(c *pram.Ctx, lv *level, all []*cube) {
	done := make([]bool, len(lv.sideOf))
	var keys []uint64
	var vals []int32
	var work int64
	for _, e := range all {
		for b := 2; b <= e.side; b++ {
			if done[e.pn[b-1]] {
				continue
			}
			done[e.pn[b-1]] = true
			for a := 1; a < b; a++ {
				keys = append(keys, naming.EncodePair(e.pn[b-1], int32(a)))
				vals = append(vals, e.pn[a-1])
			}
		}
		work += int64(e.side * e.side)
	}
	lv.trunc = naming.FreezeKeys(c, keys, vals, len(keys))
	c.AddWork(work)
	c.AddDepth(1)
}

// buildLpS computes, per name, the largest S_k-sub-prefix name.
func buildLpS(c *pram.Ctx, lv *level, all []*cube) {
	isS := make([]bool, len(lv.sideOf))
	for _, e := range all {
		if !e.isS {
			continue
		}
		for _, name := range e.pn {
			isS[name] = true
		}
	}
	lv.lpS = make([]int32, len(lv.sideOf))
	for i := range lv.lpS {
		lv.lpS[i] = naming.Empty
	}
	for _, e := range all {
		carry := naming.Empty
		for _, name := range e.pn {
			if isS[name] {
				carry = name
			}
			lv.lpS[name] = carry
		}
	}
	c.AddWork(int64(2 * len(lv.sideOf)))
	c.AddDepth(int64(log2i(maxSideOf(all)) + 1))
}

// buildCandidates stages, per S element and odd side 2i+1, the namestamp of
// its 2^d−1 side-2i pieces (Empty when i = 0) and far-corner symbol -> name
// of the (2i+1)-side S-prefix. An element's variants follow the S elements
// in `all`, in the order buildLevel appended them. The prefix's content
// fixes the pieces and the corner, so the last table takes one entry per
// prefix name.
func (d *Dict) buildCandidates(c *pram.Ctx, lv *level, sElems, all []*cube) {
	ns := make([]namer, 1<<d.dim-2)
	done := make([]bool, len(lv.sideOf))
	var lastKeys []uint64
	var lastVals []int32
	vi := len(sElems)
	var work int64
	for _, e := range sElems {
		var vars []*cube
		if e.side >= 2 {
			vars = all[vi : vi+len(ns)]
			vi += len(ns)
		}
		diag := offsets(strides(e.side, d.dim), 1)[1<<d.dim-1] // cell (1, …, 1)
		for l := 1; l <= e.side; l += 2 {
			twoI := l - 1
			stamp := naming.Empty
			if twoI > 0 {
				stamp = e.pn[twoI-1]
			}
			for t := range ns {
				piece := naming.Empty
				if twoI > 0 {
					piece = vars[t].pn[twoI-1]
				}
				stamp = ns[t].name(stamp, piece)
			}
			if name := e.pn[l-1]; !done[name] {
				done[name] = true
				lastKeys = append(lastKeys, naming.EncodePair(stamp, e.cells[(l-1)*diag]))
				lastVals = append(lastVals, name)
			}
			work += int64(len(ns) + 1)
		}
	}
	lv.cand = append(freeze(c, ns), naming.FreezeKeys(c, lastKeys, lastVals, len(lastKeys)))
	c.AddWork(work)
	c.AddDepth(1)
}

// shrink names the disjoint side-2 blocks of every S' element and returns
// the shrunk S_{k+1} elements, deferring mapUp.
func (d *Dict) shrink(c *pram.Ctx, lv *level, all []*cube) []*cube {
	ns := make([]namer, d.dim)
	v := make([]int32, 1<<d.dim)
	var next, src []*cube
	var work int64
	for _, e := range all {
		h := e.side / 2
		if h == 0 {
			continue
		}
		st := strides(e.side, d.dim)
		corner := offsets(st, 1)
		cells := make([]int32, ipow(h, d.dim))
		for j := range cells {
			base := at(j, h, 2, st)
			for m, o := range corner {
				v[m] = e.cells[base+o]
			}
			// As in spawnGrids: pair along axis 0, then 1, ….
			for b, n := 0, len(v)/2; n >= 1; b, n = b+1, n/2 {
				for i := 0; i < n; i++ {
					v[i] = ns[b].name(v[2*i], v[2*i+1])
				}
			}
			cells[j] = v[0]
		}
		next = append(next, &cube{cells: cells, side: h, isS: true, pat: -1})
		src = append(src, e)
		work += int64(len(e.cells))
	}
	lv.pair = freeze(c, ns)
	c.AddWork(work)
	c.AddDepth(1)

	// mapUp needs the next level's names, which are assigned when the next
	// level is built; stash the pairing for deferred fill.
	lv.pendingMap, lv.pendingSrc = next, src
	return next
}

// strides returns the cell distance along each axis of a side-s cube:
// s^b for axis b.
func strides(s, dim int) []int {
	st := make([]int, dim)
	for b, w := 0, 1; b < dim; b, w = b+1, w*s {
		st[b] = w
	}
	return st
}

// offsets returns, for every axis subset m, the cell distance of the offset
// g along each axis in m: off[m] = g·Σ_{b∈m} st[b].
func offsets(st []int, g int) []int {
	off := make([]int, 1<<len(st))
	for m := range off {
		for b, s := range st {
			if m>>b&1 == 1 {
				off[m] += g * s
			}
		}
	}
	return off
}

// at returns the offset, under strides st, of cell j of a side-t grid
// whose cells lie step apart along every axis.
func at(j, t, step int, st []int) int {
	i := 0
	for _, s := range st {
		i += j % t * step * s
		j /= t
	}
	return i
}

func ipow(x, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= x
	}
	return p
}

func maxSideOf(all []*cube) int {
	m := 1
	for _, e := range all {
		if e.side > m {
			m = e.side
		}
	}
	return m
}

func log2i(x int) int {
	b := 0
	for 1<<b < x {
		b++
	}
	return b
}
