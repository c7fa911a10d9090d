package pardict

import (
	"context"
	"sync"

	"pardict/internal/core"
	"pardict/internal/lz"
	"pardict/internal/obs"
	"pardict/internal/pram"
)

// MatchCompressed matches directly over an LZ-factorized text and returns
// exactly what Match(ct.Decode()) would: per position, the longest pattern
// starting there. The engine only scans the factorization's "relevant
// windows" — literal phrases and the last MaxLen-1 positions of copy phrases,
// merged and scanned with MaxLen-1 lookahead — and every position strictly
// interior to a copy phrase is resolved by occurrence translation from the
// phrase's source interval, one array read instead of an automaton
// traversal. On redundant inputs the counted engine work therefore scales
// with the compressed size plus output, not the decoded length; on
// incompressible inputs the windows merge into one whole-text scan and the
// cost degenerates to Match plus the (linear, memcpy-speed) decode.
func (m *Matcher) MatchCompressed(ct *CompressedText) *Matches {
	r, _ := m.MatchCompressedContext(context.Background(), ct)
	return r
}

// MatchCompressedContext is MatchCompressed under a context, with the same
// cancellation contract as MatchContext: cancellation aborts within one
// parallel phase, no partial result is returned, and the shared scheduler
// survives.
func (m *Matcher) MatchCompressedContext(gctx context.Context, ct *CompressedText) (*Matches, error) {
	ctx := m.cfg.newCtxFor(gctx)
	out := &Matches{}
	obs.Do(gctx, func(lctx context.Context) {
		ctx.SetLabelContext(lctx)
		m.matchCompressedOn(ctx, out, ct.t)
	}, "engine", m.engine.String(), "op", "matchcompressed")
	if err := canceledErr(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeBufs pools the decoded-text scratch of matchCompressedOn.
var decodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// matchCompressedOn is the compressed-domain core: decode, scan only the
// windows with the configured engine (encoding just those), then translate
// copy interiors. Correctness rests on the window-local property (see
// core.Windows): the answer at p depends on T[p : p+W) alone, W = MaxLen. A
// position p strictly interior to a copy phrase [s, e) — meaning p ≤ e-W —
// has its whole window inside the phrase, so T[p : p+W) equals T[q : q+W) at
// q = p-(s-src), and its answer is a copy of q's. Since s-src ≥ 1, q < p, a
// single left-to-right translation pass finds q already final (scanned, or
// translated earlier). Every other position is kept in a window.
func (m *Matcher) matchCompressedOn(ctx *pram.Ctx, out *Matches, t *lz.Text) {
	out.m = m
	n := t.Len()

	// Decode (one counted linear phase: honest accounting of the only
	// full-length pass the compressed tier keeps); the windows are cut from
	// the decoded bytes, and only they are encoded.
	bufp := decodeBufs.Get().(*[]byte)
	if cap(*bufp) < n {
		*bufp = make([]byte, n)
	}
	text := (*bufp)[:n]
	ctx.Phase(int64(n), func() { t.DecodeInto(text) })

	// Result buffers live in out.res for every engine so Matches.Release
	// returns them to the slab pools.
	if out.res == nil {
		out.res = &core.Result{}
	}
	out.res.Pat = pram.ResizeInt32(out.res.Pat, n)
	out.pat, out.plen = out.res.Pat, nil
	if m.engine == EngineGeneral && !m.filtered {
		out.res.Len = pram.ResizeInt32(out.res.Len, n)
		out.plen = out.res.Len
	}

	// Scan the windows (see core.Windows): whole literal phrases and the last
	// W-1 positions of copy phrases, in one engine pass.
	W := max(m.maxLen, 1)
	var win core.Windows
	win.Reset(W)
	for i := 0; i < t.Phrases(); i++ {
		s, e := t.PhraseBounds(i)
		if t.PhraseSrc(i) >= 0 {
			s = max(s, e-(W-1))
		}
		win.Keep(s, e)
	}
	seg := &core.Result{}
	win.Scan(ctx, text, func(c *pram.Ctx, buf []byte) ([]int32, []int32) {
		return m.engineMatch(c, buf, &out.enc, seg)
	}, out.pat, out.plen)
	seg.Release()
	if obs.Enabled() {
		lz.WindowsScanned.Add(int64(win.Len()))
		lz.WindowBytes.Add(int64(win.Scanned(n)))
	}

	// Translate copy-phrase interiors left to right. This is the
	// output-resolution pass the compressed tier substitutes for scanning;
	// it is charged as one counted phase of its true (compressed-size-
	// proportional) work.
	if !ctx.Canceled() {
		translated := 0
		for i := 0; i < t.Phrases(); i++ {
			src := t.PhraseSrc(i)
			if src < 0 {
				continue
			}
			s, e := t.PhraseBounds(i)
			delta := s - src
			for p := s; p <= e-W; p++ {
				out.pat[p] = out.pat[p-delta]
			}
			if out.plen != nil {
				for p := s; p <= e-W; p++ {
					out.plen[p] = out.plen[p-delta]
				}
			}
			if e-W >= s {
				translated += e - W - s + 1
			}
		}
		ctx.AddWork(int64(translated))
		ctx.AddDepth(1)
		if obs.Enabled() {
			lz.InteriorTranslated.Add(int64(translated))
			lz.BytesSkipped.Add(int64(n - win.Kept()))
		}
	}

	decodeBufs.Put(bufp)
	out.stats = statsOf(ctx)
}
