package dictnd

import (
	"math"

	"pardict/internal/naming"
	"pardict/internal/pram"
)

// Result holds the per-cell output of d-dimensional dictionary matching,
// each array flat and row-major over the text's shape.
type Result struct {
	// Side[i] is the side of the largest dictionary cube-prefix whose
	// corner matches at cell i.
	Side []int32
	// Name[i] is that prefix's unified name (naming.Empty when Side is 0).
	Name []int32
	// Pat[i] is the index of the largest full pattern matching at cell i,
	// or -1.
	Pat []int32
}

// box is a text's shape, axis 0 (the last, fastest-varying one) first:
// ext[b] cells along axis b, neighbours along it st[b] cells apart.
type box struct {
	ext, st []int
	n       int
}

func newBox(shape []int) box {
	bx := box{ext: make([]int, len(shape)), st: make([]int, len(shape)), n: 1}
	for b := range shape {
		bx.ext[b] = shape[len(shape)-1-b]
		bx.st[b] = bx.n
		bx.n *= bx.ext[b]
	}
	return bx
}

// fill returns the box's cells set to v, written as one phase over the
// first (outermost) axis and charged one unit per index of it.
func (bx box) fill(c *pram.Ctx, v int32) []int32 {
	out := make([]int32, bx.n)
	b := len(bx.ext) - 1
	c.For(bx.ext[b], func(i int) {
		slab := out[i*bx.st[b] : (i+1)*bx.st[b]]
		for j := range slab {
			slab[j] = v
		}
	})
	return out
}

// forLines runs body on every line of the box — the ext[0] cells that
// share their coordinates on every other axis — as one parallel phase
// charged one unit of work per cell. body gets the line's first cell; its
// room, the least distance from the line to the box's far end along the
// other axes (an offset of room or more along any of them leaves the box);
// and scratch space for 2^(d−1) lines, owned by the calling worker.
func (bx box) forLines(c *pram.Ctx, body func(lo, room int, scratch []int32)) {
	lines := bx.n / bx.ext[0]
	c.ForChunk(lines, func(lo, hi int) {
		scratch := make([]int32, 1<<(len(bx.ext)-1)*bx.ext[0])
		for l := lo; l < hi; l++ {
			room := math.MaxInt
			for b, q := 1, l; b < len(bx.ext); b++ {
				room = min(room, bx.ext[b]-q%bx.ext[b])
				q /= bx.ext[b]
			}
			body(l*bx.ext[0], room, scratch)
		}
	})
	c.AddWork(int64(bx.n - lines))
}

// Match runs dictionary matching on a text of the given shape, one extent
// per axis with the last axis varying fastest, and len(text) their product
// (Theorem 6: O(n·log m) work, O(log m) depth).
func (d *Dict) Match(c *pram.Ctx, text []int32, shape []int) (*Result, error) {
	if len(shape) != d.dim {
		return nil, ErrRagged
	}
	bx := newBox(shape)
	if bx.n != len(text) {
		return nil, ErrRagged
	}
	r := &Result{Side: bx.fill(c, 0), Name: bx.fill(c, naming.Empty), Pat: bx.fill(c, -1)}
	if bx.n == 0 || d.maxSide == 0 {
		return r, nil
	}

	grids := d.spawnGrids(c, text, bx)
	d.unwind(c, grids, r, bx)

	bx.forLines(c, func(lo, _ int, _ []int32) {
		for i := lo; i < lo+bx.ext[0]; i++ {
			if name := r.Name[i]; name != naming.Empty {
				r.Pat[i] = d.lpPat[name]
			}
		}
	})
	return r, nil
}

// spawnGrids computes the level-k block-name grid at every cell: grids[k][i]
// names the text block of side 2^k cornered at cell i, or naming.None.
func (d *Dict) spawnGrids(c *pram.Ctx, text []int32, bx box) [][]int32 {
	grids := make([][]int32, len(d.levels))
	grids[0] = text
	for k := 1; k < len(d.levels); k++ {
		if c.Canceled() {
			break
		}
		lv := d.levels[k-1]
		g := 1 << uint(k-1)
		off := offsets(bx.st, g)
		prev := grids[k-1]
		cur := make([]int32, bx.n)
		bx.forLines(c, func(lo, room int, h []int32) {
			// The blocks cornered at cells lim… of the line run off the text.
			n0, lim := bx.ext[0], max(bx.ext[0]-g, 0)
			if room <= g {
				lim = 0
			}
			for x := lim; x < n0; x++ {
				cur[lo+x] = naming.None
			}
			if lim == 0 {
				return
			}
			// A block's cells lie on 2^(d−1) lines, line j at off[2j]. Stage
			// 0 pairs neighbours along axis 0 on each of them; stage b pairs
			// the halves along axis b, which the stages before left as
			// neighbouring rows of h.
			for j := 0; j < len(off)/2; j++ {
				base := lo + off[2*j]
				pairRows(lv.pair[0], h[j*n0:j*n0+lim], prev[base:], prev[base+g:])
			}
			for b, n := 1, len(off)/4; n >= 1; b, n = b+1, n/2 {
				for j := 0; j < n; j++ {
					pairRows(lv.pair[b], h[j*n0:j*n0+lim], h[2*j*n0:], h[(2*j+1)*n0:])
				}
			}
			copy(cur[lo:lo+lim], h[:lim])
		})
		grids[k] = cur
	}
	return grids
}

// pairRows sets dst[x] to tab's name for the pair (a[x], b[x]), or to
// naming.None when either is None or the pair is no dictionary block. dst
// may be a.
func pairRows(tab *naming.Frozen, dst, a, b []int32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for x := range dst {
		v := naming.None
		if a[x] != naming.None && b[x] != naming.None {
			v, _ = tab.Get(naming.EncodePair(a[x], b[x]))
		}
		dst[x] = v
	}
}

// unwind descends the levels; entering level k, r.Side/r.Name hold the
// largest S_{k+1}-prefix per cell (level-(k+1) units/names) and leave with
// the largest S_k-prefix.
func (d *Dict) unwind(c *pram.Ctx, grids [][]int32, r *Result, bx box) {
	// Each level reads only the level above's sides and names, so two pairs
	// of arrays take turns.
	side, name := make([]int32, bx.n), make([]int32, bx.n)
	for k := len(d.levels) - 1; k >= 0; k-- {
		if c.Canceled() {
			break
		}
		lv := d.levels[k]
		g := 1 << uint(k)
		nb := offsets(bx.st, g)
		grid := grids[k]
		bx.forLines(c, func(lo, room int, _ []int32) {
			for x := 0; x < bx.ext[0]; x++ {
				side[lo+x], name[lo+x] = lv.extendCell(grid, r, lo+x, min(room, bx.ext[0]-x), nb, g)
			}
		})
		r.Side, r.Name, side, name = side, name, r.Side, r.Name
	}
	// Sides are now in level-0 units = original characters.
}

// extendCell implements the Step 4b case analysis for cell i, an offset of
// room or more from which leaves the text along some axis; nb[m] is the
// cell distance of the neighbour g away along each axis in m.
func (lv *level) extendCell(grid []int32, r *Result, i, room int, nb []int, g int) (int32, int32) {
	twoI := 2 * int(r.Side[i])
	alpha := naming.Empty
	if twoI > 0 {
		alpha = lv.mapUp[r.Name[i]]
	}

	// Default: largest S_k-sub-prefix of α (Case 1 / the "α stands" case).
	bestSide, bestName := int32(0), naming.Empty
	if alpha != naming.Empty {
		if lp := lv.lpS[alpha]; lp != naming.Empty {
			bestName = lp
			bestSide = lv.sideOf[lp]
		}
	}

	// Odd candidate of side 2i+1 (Case 2). Its far corner must lie in the
	// text; then so does every neighbour below, which is at most g ≤ 2i·g
	// away along each axis.
	if twoI*g >= room {
		return bestSide, bestName
	}
	corner := grid[i+twoI*nb[len(nb)-1]]
	if corner == naming.None {
		return bestSide, bestName
	}
	stamp := alpha
	last := len(lv.cand) - 1
	for t, tab := range lv.cand[:last] {
		piece, ok := naming.Empty, true
		if twoI > 0 {
			piece, ok = lv.alphaTrunc(r, i+nb[t+1], twoI)
		}
		if ok {
			stamp, ok = tab.Get(naming.EncodePair(stamp, piece))
		}
		if !ok {
			return bestSide, bestName
		}
	}
	if v, ok := lv.cand[last].Get(naming.EncodePair(stamp, corner)); ok {
		return int32(twoI + 1), v
	}
	return bestSide, bestName
}

// alphaTrunc returns the unified name of the side-twoI cube cornered at
// neighbour cell i, derived by truncating that cell's α value; ok is false
// when no such S'-prefix matches there.
func (lv *level) alphaTrunc(r *Result, i, twoI int) (int32, bool) {
	side := 2 * int(r.Side[i])
	if side < twoI {
		return naming.Empty, false
	}
	name := lv.mapUp[r.Name[i]]
	if side == twoI {
		return name, true
	}
	return lv.trunc.Get(naming.EncodePair(name, int32(twoI)))
}

// AllMatches appends to dst every pattern whose corner matches at cell i of
// a Result, largest side first (output-sensitive expansion via the
// sub-prefix chain).
func (d *Dict) AllMatches(r *Result, i int, dst []int32) []int32 {
	for p := r.Pat[i]; p >= 0; p = d.nextShort[p] {
		dst = append(dst, p)
	}
	return dst
}
