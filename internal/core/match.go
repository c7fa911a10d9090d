package core

import (
	"math"
	"math/bits"
	"sync"

	"pardict/internal/naming"
	"pardict/internal/pram"
)

// Result holds the per-position output of static dictionary matching on one
// text (§4: Step 1 prefix-matching plus Step 2 longest-pattern resolution).
type Result struct {
	// Len[j] is the length of the longest dictionary prefix matching at j.
	// Empty on a filtered match (see Match), like Name.
	Len []int32
	// Name[j] is that prefix's name (naming.Empty when Len[j] == 0).
	Name []int32
	// Pat[j] is the index of the longest pattern matching at j, or -1.
	Pat []int32
}

// Release returns the result's arrays to the slab pools. The caller must not
// use r (or any slice read from it) afterwards. Optional: unreleased results
// are ordinary garbage.
func (r *Result) Release() {
	pram.ReleaseInt32(r.Len)
	pram.ReleaseInt32(r.Name)
	pram.ReleaseInt32(r.Pat)
	r.Len, r.Name, r.Pat = nil, nil, nil
}

// matchState is the pooled per-match scratch of the hot scan path. Its phase
// bodies are closures created ONCE (in newMatchState, bound to the state
// pointer) and reused for every match the state serves, so a warmed match
// performs no per-phase closure allocations; the per-phase parameters travel
// through the state's fields, which is safe because phases of one match are
// sequential.
type matchState struct {
	d    *Dict
	r    *Result
	n    int
	syms [][]int32

	// Per-phase parameters (set immediately before the phase that reads them).
	half      int            // spawn: 2^(k-1)
	step      int            // unwind: 2^k
	up        *naming.Frozen // spawn: shrink table of the current level
	down      *naming.Frozen // unwind: Extend-Right table of the current level
	prev, cur []int32        // spawn: source and destination symbol arrays
	level     []int32        // unwind: symbol array of the current level

	initFn, patFn, spawnFn, unwindFn, finalFn func(lo, hi int)
}

func newMatchState() *matchState {
	ms := &matchState{syms: make([][]int32, 0, 32)}
	ms.initFn = func(lo, hi int) {
		r := ms.r
		for j := lo; j < hi; j++ {
			r.Name[j] = naming.Empty
			r.Len[j] = 0
		}
	}
	ms.patFn = func(lo, hi int) {
		pat := ms.r.Pat
		for j := lo; j < hi; j++ {
			pat[j] = -1
		}
	}
	ms.spawnFn = func(lo, hi int) {
		n, half := ms.n, ms.half
		prev, cur, up := ms.prev, ms.cur, ms.up
		for j := lo; j < hi; j++ {
			if j+2*half > n {
				cur[j] = naming.None
				continue
			}
			a, b := prev[j], prev[j+half]
			if a == naming.None || b == naming.None {
				cur[j] = naming.None
				continue
			}
			cur[j] = up.Lookup(naming.EncodePair(a, b))
		}
	}
	ms.unwindFn = func(lo, hi int) {
		n, step := ms.n, ms.step
		r, level, down := ms.r, ms.level, ms.down
		for j := lo; j < hi; j++ {
			l := int(r.Len[j])
			pos := j + l
			if pos+step > n {
				continue
			}
			b := level[pos]
			if b == naming.None {
				continue
			}
			if v, ok := down.Get(naming.EncodePair(r.Name[j], b)); ok {
				r.Len[j] = int32(l + step)
				r.Name[j] = v
			}
		}
	}
	ms.finalFn = func(lo, hi int) {
		r, lp := ms.r, ms.d.lp
		for j := lo; j < hi; j++ {
			if name := r.Name[j]; name != naming.Empty {
				r.Pat[j] = lp[name]
			}
		}
	}
	return ms
}

var msPool = sync.Pool{New: func() any { return newMatchState() }}

func acquireState(d *Dict, r *Result, text []int32) *matchState {
	ms := msPool.Get().(*matchState)
	ms.d, ms.r, ms.n = d, r, len(text)
	if cap(ms.syms) < d.levels {
		ms.syms = make([][]int32, d.levels)
	}
	ms.syms = ms.syms[:d.levels]
	for k := range ms.syms {
		ms.syms[k] = nil
	}
	if d.levels > 0 {
		ms.syms[0] = text
	}
	return ms
}

// release returns the level arrays (except level 0, which aliases the
// caller's text) to the slab pools and the state to its pool.
func (ms *matchState) release() {
	for k := 1; k < len(ms.syms); k++ {
		pram.ReleaseInt32(ms.syms[k])
		ms.syms[k] = nil
	}
	if len(ms.syms) > 0 {
		ms.syms[0] = nil
	}
	ms.d, ms.r = nil, nil
	ms.up, ms.down = nil, nil
	ms.prev, ms.cur, ms.level = nil, nil, nil
	msPool.Put(ms)
}

// spawn computes the level-k symbol arrays (the spawn half of
// shrink-and-spawn): syms[k][j] names T[j .. j+2^k−1], or naming.None when
// that substring does not occur block-aligned in any pattern.
func (ms *matchState) spawn(c *pram.Ctx) {
	d, n := ms.d, ms.n
	for k := 1; k < d.levels; k++ {
		if c.Canceled() {
			break
		}
		c.LabelLevel(k) // attribute this level's phase in CPU profiles
		ms.prev = ms.syms[k-1]
		ms.cur = pram.ResizeInt32(ms.syms[k], n)
		ms.syms[k] = ms.cur
		ms.half = 1 << uint(k-1)
		ms.up = d.up[k]
		c.ForChunk(n, ms.spawnFn)
	}
}

// unwind performs the Extend-Right cascade (§4.1 Step 3): descending the
// levels, each position's match grows by 2^k or stays, via one down[k]
// lookup. The §4.1 guarantee — if no shrunk prefix of length t+1 matches, no
// original prefix of length 2t+2 matches — makes the single probe per level
// sufficient. Each position's state is independent: a position whose Len
// reaches the text end is passed over at every level without a probe.
func (ms *matchState) unwind(c *pram.Ctx) {
	d, n := ms.d, ms.n
	for k := d.levels - 1; k >= 0; k-- {
		if c.Canceled() {
			break
		}
		c.LabelLevel(k) // attribute this level's phase in CPU profiles
		ms.step = 1 << uint(k)
		ms.down = d.down[k]
		ms.level = ms.syms[k]
		c.ForChunk(n, ms.unwindFn)
	}
}

// Match finds, for every text position, the longest dictionary prefix and
// the longest pattern beginning there (Theorem 1/3 text processing:
// O(n·log m) work, O(log m) depth on the instrumented counters). It never
// consults the prefilter; MatchBytesInto is the filtered match.
func (d *Dict) Match(c *pram.Ctx, text []int32) *Result {
	r := &Result{}
	d.MatchInto(c, text, r)
	return r
}

// MatchInto is Match writing into r, reusing r's arrays when their capacity
// suffices — together with the pooled internal scratch, the allocation-free
// steady-state entry point.
func (d *Dict) MatchInto(c *pram.Ctx, text []int32, r *Result) {
	d.cascade(c, text, r, nil)
}

// MatchBytesInto is the filtered match over the raw text, which the encoder
// given to EnablePrefilter or EnablePrefilterWide maps to symbols; call one
// of them first. Pat is exact and Len and Name come back empty (see
// matchScreened), which is why the public API withholds prefix lengths on
// filtered matchers. Counted Work/Depth equal MatchInto's on the encoded
// text.
func (d *Dict) MatchBytesInto(c *pram.Ctx, text []byte, r *Result) {
	if d.filter == nil || len(text) == 0 {
		d.cascadeBytes(c, text, r, nil)
	} else {
		d.matchScreened(c, text, r)
	}
	r.Len, r.Name = r.Len[:0], r.Name[:0]
}

// cascade runs the whole match over text into r: Fill(Name) with Len's
// zeroing, Fill(Pat), the spawn and unwind levels and the final pattern
// resolution — (2L+2)·n work at depth 2L+2, L = Levels. A non-nil init
// replaces the Len/Name initialisation.
func (d *Dict) cascade(c *pram.Ctx, text []int32, r *Result, init func(lo, hi int)) {
	n := len(text)
	r.Len = pram.ResizeInt32(r.Len, n)
	r.Name = pram.ResizeInt32(r.Name, n)
	r.Pat = pram.ResizeInt32(r.Pat, n)
	ms := acquireState(d, r, text)
	defer ms.release()
	if init == nil {
		init = ms.initFn
	}
	c.ForChunk(n, init)
	c.ForChunk(n, ms.patFn)
	if n == 0 || d.maxLen == 0 {
		return
	}
	ms.spawn(c)
	ms.unwind(c)
	c.ForChunk(n, ms.finalFn)
}

// cascadeBytes is cascade over the raw text, encoded whole into a pooled
// buffer that is released once the cascade is done.
func (d *Dict) cascadeBytes(c *pram.Ctx, text []byte, r *Result, init func(lo, hi int)) {
	sp := c.Trace().StartSpan("encode", int64(len(text)))
	enc := d.enc.EncodeInto(pram.AcquireInt32(len(text)), text)
	sp.End()
	d.cascade(c, enc, r, init)
	pram.ReleaseInt32(enc)
}

// filterState is the pooled scratch of a filtered match, its bodies bound
// once like matchState's.
type filterState struct {
	d     *Dict
	r     *Result
	text  []byte
	cand  []uint64 // survivor bits: bit j%64 of cand[j/64]
	grain int      // words per chunk of the screen phase
	parts []screenPart
	win   Windows
	res   Result // the window pass's outputs over the window buffer

	screenFn, parkFn func(lo, hi int)
	passFn           func(c *pram.Ctx, buf []byte) (pat, plen []int32)
}

// screenPart is what one chunk of the screen phase found: its survivor
// runs, merged as Windows.Keep merges them, and their position count.
type screenPart struct {
	win   Windows
	alive int
}

var fsPool = sync.Pool{New: func() any {
	fs := &filterState{}
	fs.screenFn = func(wlo, whi int) {
		f, text, cand := fs.d.filter, fs.text, fs.cand
		if fs.d.filterWide {
			f.ScanBytesWide(text, cand, wlo, whi)
		} else {
			f.ScanBytes(text, cand, wlo, whi)
		}
		fillNone(fs.r.Pat[wlo<<6 : min(whi<<6, len(text))])
		p := &fs.parts[wlo/fs.grain]
		alive := 0
		for w := wlo; w < whi; w++ {
			word := cand[w]
			for j := w << 6; word != 0; {
				z := bits.TrailingZeros64(word)
				word >>= uint(z)
				k := bits.TrailingZeros64(^word) // the run of survivors at j+z
				j += z
				p.win.Keep(j, j+k)
				alive += k
				word >>= uint(k)
				j += k
			}
		}
		p.alive = alive
	}
	fs.parkFn = func(lo, hi int) {
		r, cand, n := fs.r, fs.cand, len(fs.text)
		for j := lo; j < hi; j++ {
			r.Name[j] = naming.Empty
			r.Len[j] = 0
			if cand[j>>6]&(1<<uint(j&63)) == 0 {
				r.Len[j] = int32(n - j) // parked at the text end
			}
		}
	}
	fs.passFn = func(c *pram.Ctx, buf []byte) ([]int32, []int32) {
		fs.d.cascadeBytes(c, buf, &fs.res, nil)
		return fs.res.Pat, nil
	}
	return fs
}}

// matchScreened is the filtered match. One pooled phase, traced as
// "prefilter", screens the raw text, fills Pat with −1 and lists each
// chunk's survivor runs; a short serial pass merges the chunks' lists into
// the windows. Then one cascade runs over the survivors' windows (see
// Windows), cut from the raw text and encoded alone. Positions outside every
// window get no match and no cascade work, exact because the screen is
// one-sided. When the windows would cover more than half the text, copying
// them costs more than it saves, so the cascade runs over the whole text,
// encoded into a pooled buffer, with every screened position parked at the
// text end, where no unwind level probes a table for it (past 2^31
// positions the parked Len would overflow). Counted Work/Depth equal the
// unfiltered match's (2L+2)·n at depth 2L+2: the whole-text cascade charges
// that, and the window path tops up the window pass's (2L+2)·w. The screen
// and the −1 fill of Pat are uncounted.
func (d *Dict) matchScreened(c *pram.Ctx, text []byte, r *Result) {
	n := len(text)
	nw := (n + 63) >> 6
	fs := fsPool.Get().(*filterState)
	fs.d, fs.r, fs.text = d, r, text
	fs.cand = pram.AcquireUint64(nw)
	defer fs.release()
	r.Pat = pram.ResizeInt32(r.Pat, n)
	var chunks int
	fs.grain, chunks = c.Chunks(nw)
	if cap(fs.parts) < chunks {
		fs.parts = make([]screenPart, chunks)
	}
	fs.parts = fs.parts[:chunks]
	for i := range fs.parts {
		fs.parts[i].win.Reset(d.maxLen)
		fs.parts[i].alive = 0
	}
	c.ForChunkUncounted("prefilter", nw, fs.screenFn)

	fs.win.Reset(d.maxLen)
	alive := 0
	for i := range fs.parts {
		p := &fs.parts[i]
		for k := 0; k < len(p.win.runs); k += 2 {
			fs.win.Keep(p.win.runs[k], p.win.runs[k+1])
		}
		alive += p.alive
	}
	c.NotePrefilter(int64(n), int64(n-alive))

	if w := fs.win.Scanned(n); 2*w > n && n <= math.MaxInt32 {
		d.cascadeBytes(c, text, r, fs.parkFn)
	} else {
		phases := int64(2*d.levels + 2)
		c.AddWork(phases * int64(n-w))
		if w == 0 {
			c.AddDepth(phases)
		}
		fs.win.Scan(c, text, fs.passFn, r.Pat, nil)
	}
}

func (fs *filterState) release() {
	pram.ReleaseUint64(fs.cand)
	fs.res.Release()
	fs.d, fs.r, fs.text, fs.cand = nil, nil, nil, nil
	fsPool.Put(fs)
}

// fillNone sets s to -1 at memmove speed: one store, then doubling copies.
func fillNone(s []int32) {
	for k := copy(s, []int32{-1}); k < len(s); k *= 2 {
		copy(s[k:], s[:k])
	}
}

// SpawnText computes the level-k symbol arrays for the text: syms[k][j]
// names T[j .. j+2^k−1] under the dictionary's naming function, or
// naming.None when that substring does not occur block-aligned in any
// pattern. This is the spawn half of shrink-and-spawn: the level-k spawned
// copies of §3.1 are the stride-2^k subsequences of syms[k]. The returned
// arrays are the caller's to keep (they are not pooled).
func (d *Dict) SpawnText(c *pram.Ctx, text []int32) [][]int32 {
	ms := acquireState(d, nil, text)
	ms.spawn(c)
	syms := make([][]int32, len(ms.syms))
	copy(syms, ms.syms)
	// Detach the level arrays from the pool: the caller owns them now.
	for k := range ms.syms {
		ms.syms[k] = nil
	}
	ms.syms = ms.syms[:0]
	ms.d, ms.r = nil, nil
	ms.up, ms.prev, ms.cur = nil, nil, nil
	msPool.Put(ms)
	return syms
}

// MatchLongestPrefix runs only Step 1 (static prefix-matching, Theorem 1):
// the longest dictionary prefix per position, without pattern resolution.
// It never consults the prefilter: prefix-matching output is exact at every
// position regardless of configuration.
func (d *Dict) MatchLongestPrefix(c *pram.Ctx, text []int32) *Result {
	n := len(text)
	r := &Result{Len: pram.AcquireInt32(n), Name: pram.AcquireInt32(n)}
	ms := acquireState(d, r, text)
	defer ms.release()
	c.ForChunk(n, ms.initFn)
	if n == 0 || d.maxLen == 0 {
		return r
	}
	ms.spawn(c)
	ms.unwind(c)
	return r
}

// AllMatches appends to dst the indices of every pattern matching at
// position j of a Result, longest first, and returns the extended slice
// (output-sensitive all-matches expansion; see DESIGN.md §2 on interval
// allocation).
func (d *Dict) AllMatches(r *Result, j int, dst []int32) []int32 {
	for p := r.Pat[j]; p >= 0; p = d.nextShort[p] {
		dst = append(dst, p)
	}
	return dst
}
