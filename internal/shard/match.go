package shard

import (
	"sync"

	"pardict/internal/core"
	"pardict/internal/pram"
	"pardict/internal/trace"
)

// shardHit is one shard's per-position output, expressed against its pinned
// snapshot: lens[j] is the longest live pattern length matching at j (0 if
// none), refs[j] locates it — ≥0 is an index into snapshot.baseEnt, ≤-2
// encodes the overlay add index -(ref+2), -1 is no match.
//
// A clean hit (overlay empty: no pending adds, no pending deletes) skips the
// refs/lens translation entirely — the base engine's Pat array IS the answer,
// read through snapshot.baseLen. That is the steady state after reconcile, so
// fully-reconciled shards pay zero overlay cost per scan.
type shardHit struct {
	sn    *snapshot
	clean bool         // base-only snapshot: read h.base.Pat/sn.baseLen directly
	refs  []int32      // nil when clean
	lens  []int32      // nil when clean
	base  *core.Result // retained for AllAt chain walks (nil when base empty)
}

// lenRefAt returns the per-position longest live length and ref for either
// representation.
func (h *shardHit) lenRefAt(j int) (int32, int32) {
	if h.clean {
		if p := h.base.Pat[j]; p >= 0 {
			return h.sn.baseLen[p], p
		}
		return 0, -1
	}
	return h.lens[j], h.refs[j]
}

// Result is the merged scatter-gather output for one text: per position the
// longest live pattern across every shard, plus enough retained state to
// expand all matches on demand.
type Result struct {
	// Len[j] is the length of the longest live pattern matching at j (0 none).
	Len []int32
	// ID[j] is that pattern's stable id, or -1.
	ID []int32
	// ref[j]/shard[j] locate the winning entry for PatternAt.
	ref   []int32
	shard []int32

	hits []shardHit
	enc  []int32

	Work  int64
	Depth int64
}

// Match scatter-gathers the text across every shard: each shard's snapshot is
// pinned up front (one tight window, so the scan observes a consistent cut of
// completed writes), matched concurrently on its own execution context from
// mk, and the per-position longest matches are merged. Per-shard, overlay and
// merge spans go to tr (a nil tr records nothing); the contexts from mk carry
// their own trace wiring for phase spans, and tr names the coarser structure
// a trace viewer groups them under. The returned context is non-nil only when
// matching was canceled mid-flight (its Err/Cause carry the cancellation);
// the Result is nil in that case.
func (t *Set) Match(mk func() *pram.Ctx, enc []int32, tr *trace.T) (*Result, *pram.Ctx) {
	shards := *t.shards.Load()
	n := len(enc)

	// Pin phase: grab every shard's snapshot on the caller's goroutine before
	// any matching starts. This is the linearization point of the scan.
	snaps := make([]*snapshot, len(shards))
	for i, s := range shards {
		snaps[i] = s.pin()
	}
	defer func() {
		for i := range shards {
			shards[i].unpin(snaps[i])
		}
	}()

	// Scatter: one task per non-empty shard, each on its own Ctx so Work and
	// Depth compose as Σ work / max depth, matching the paper's model for
	// independent parallel subcomputations.
	hits := make([]shardHit, len(shards))
	ctxs := make([]*pram.Ctx, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		sn := snaps[i]
		if (sn.base == nil || sn.base.PatternCount() == 0) && len(sn.adds) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sn *snapshot) {
			defer wg.Done()
			sp := tr.StartSpan("shard", int64(i))
			c := mk()
			ctxs[i] = c
			hits[i] = matchSnapshot(c, sn, enc, tr, i)
			sp.End()
		}(i, sn)
	}
	wg.Wait()

	var work, depth int64
	for _, c := range ctxs {
		if c == nil {
			continue
		}
		if c.Canceled() {
			return nil, c
		}
		work += c.Work()
		if d := c.Depth(); d > depth {
			depth = d
		}
	}

	// Gather: per-position S-way longest-match merge on its own context.
	msp := tr.StartSpan("merge", int64(n))
	mc := mk()
	r := &Result{
		Len:   make([]int32, n),
		ID:    make([]int32, n),
		ref:   make([]int32, n),
		shard: make([]int32, n),
		hits:  hits,
		enc:   enc,
	}
	mc.ForChunk(n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			bestLen, bestRef, bestShard := int32(0), int32(-1), int32(-1)
			for si := range hits {
				h := &hits[si]
				if h.sn == nil {
					continue
				}
				if l, ref := h.lenRefAt(j); l > bestLen {
					bestLen, bestRef, bestShard = l, ref, int32(si)
				}
			}
			r.Len[j] = bestLen
			r.ref[j] = bestRef
			r.shard[j] = bestShard
			if bestShard >= 0 {
				r.ID[j] = entryAt(hits[bestShard].sn, bestRef).ID
			} else {
				r.ID[j] = -1
			}
		}
	})
	// The merge inspects S candidates per position; ForChunk charged n.
	if len(hits) > 1 {
		mc.AddWork(int64(n) * int64(len(hits)-1))
	}
	msp.End()
	if mc.Canceled() {
		return nil, mc
	}
	r.Work = work + mc.Work()
	r.Depth = depth + mc.Depth()
	return r, nil
}

// entryAt resolves a ref (base index or encoded add index) to its Entry.
func entryAt(sn *snapshot, ref int32) Entry {
	if ref >= 0 {
		return sn.baseEnt[ref]
	}
	return sn.adds[-(ref + 2)]
}

// matchSnapshot matches the text against one immutable snapshot: the compiled
// base engine (Θ(n·log m_shard) work, Theorem 1/3), a per-position
// longest-live filter over the base result (deleted patterns skipped via the
// NextShorter chain), and a brute overlay pass for pending inserts — bounded
// by the reconciliation trigger, so the surcharge never exceeds a constant
// fraction of the base cost in steady state.
func matchSnapshot(c *pram.Ctx, sn *snapshot, enc []int32, tr *trace.T, si int) shardHit {
	n := len(enc)

	// Fast path: a clean snapshot (no pending adds or deletes — the steady
	// state after reconcile) needs no translation pass and no refs/lens
	// allocation; the base result is served as-is at frozen-engine speed.
	if sn.base != nil && sn.base.PatternCount() > 0 && len(sn.adds) == 0 && len(sn.delBase) == 0 {
		bsp := tr.StartSpan("shard.base", int64(si))
		h := shardHit{sn: sn, clean: true}
		h.base = sn.base.Match(c, enc)
		bsp.End()
		return h
	}

	h := shardHit{sn: sn, refs: make([]int32, n), lens: make([]int32, n)}
	for j := range h.refs {
		h.refs[j] = -1
	}

	if sn.base != nil && sn.base.PatternCount() > 0 {
		bsp := tr.StartSpan("shard.base", int64(si))
		h.base = sn.base.Match(c, enc)
		bsp.End()
		if c.Canceled() {
			return h
		}
		if len(sn.delBase) == 0 {
			c.ForChunk(n, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					if p := h.base.Pat[j]; p >= 0 {
						h.refs[j] = p
						h.lens[j] = int32(len(sn.baseEnt[p].Enc))
					}
				}
			})
		} else {
			// Walk each position's longest-first chain to the first pattern
			// not pending deletion.
			c.ForChunk(n, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					for p := h.base.Pat[j]; p >= 0; p = sn.base.NextShorter(p) {
						if !sn.delBase[p] {
							h.refs[j] = p
							h.lens[j] = int32(len(sn.baseEnt[p].Enc))
							break
						}
					}
				}
			})
		}
		if c.Canceled() {
			return h
		}
	}

	if len(sn.adds) > 0 {
		osp := tr.StartSpan("shard.overlay", int64(si))
		adds, order := sn.adds, sn.addsDesc
		c.ForChunk(n, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				for _, ai := range order {
					p := adds[ai].Enc
					L := int32(len(p))
					if L <= h.lens[j] {
						break // only shorter candidates remain
					}
					if j+int(L) > n {
						continue
					}
					if symEqual(enc[j:j+int(L)], p) {
						h.refs[j] = -(ai + 2)
						h.lens[j] = L
						break
					}
				}
			}
		})
		// Charge the extra candidates beyond the one unit/position ForChunk
		// already counted, keeping the overlay surcharge visible in Work.
		if len(adds) > 1 {
			c.AddWork(int64(n) * int64(len(adds)-1))
		}
		osp.EndArg(int64(len(adds)))
	}
	return h
}

func symEqual(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Hit is one pattern occurrence reported by AllAt.
type Hit struct {
	ID  int32
	Raw []byte
	Len int32
}

// AllAt appends to dst every live pattern matching at position j, longest
// first (live patterns are distinct, so lengths strictly decrease), and
// returns the extended slice. It walks each shard's retained base chain
// (skipping pending deletions) plus the overlay adds.
func (r *Result) AllAt(j int, dst []Hit) []Hit {
	start := len(dst)
	for si := range r.hits {
		h := &r.hits[si]
		if h.sn == nil {
			continue
		}
		sn := h.sn
		if h.base != nil {
			for p := h.base.Pat[j]; p >= 0; p = sn.base.NextShorter(p) {
				if !sn.delBase[p] {
					e := sn.baseEnt[p]
					dst = append(dst, Hit{ID: e.ID, Raw: e.Raw, Len: int32(len(e.Enc))})
				}
			}
		}
		for _, ai := range sn.addsDesc {
			p := sn.adds[ai].Enc
			if j+len(p) <= len(r.enc) && symEqual(r.enc[j:j+len(p)], p) {
				e := sn.adds[ai]
				dst = append(dst, Hit{ID: e.ID, Raw: e.Raw, Len: int32(len(e.Enc))})
			}
		}
	}
	out := dst[start:]
	// Cross-shard merge: lengths are unique across live patterns, so a simple
	// insertion sort by descending length yields the longest-first order.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Len > out[k-1].Len; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return dst
}
