package pardict

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"pardict/internal/alpha"
	"pardict/internal/core"
	"pardict/internal/multimatch"
	"pardict/internal/obs"
	"pardict/internal/pram"
	"pardict/internal/smallalpha"
	"pardict/internal/streamcore"
)

// Matcher is a preprocessed static dictionary. It is immutable and safe for
// concurrent Match calls.
type Matcher struct {
	cfg      *config
	enc      *alpha.Encoder
	engine   Engine
	patterns [][]byte
	encoded  [][]int32
	maxLen   int
	total    int

	general *core.Dict
	small   *smallalpha.Matcher
	binary  *smallalpha.BinaryMatcher
	equal   *multimatch.Matcher

	// filtered reports that the general engine's bit-parallel prefilter is
	// active (WithPrefilter). Filtered matchers withhold PrefixLen: the
	// prefilter screens positions where no pattern can start, which keeps
	// pattern output exact but leaves prefix lengths uncomputed.
	filtered bool

	// Proper-prefix chain for all-matches expansion: nextShorter[p] = the
	// longest pattern that is a proper prefix of pattern p, or -1.
	nextShorter []int32

	// Resumable streaming core (Stream/MatchReader/StreamServer), compiled
	// lazily on first use so block-only matchers never pay for it. Immutable
	// once built; shared by every session over this matcher.
	streamOnce sync.Once
	stream     *streamcore.Core

	buildStats Stats
}

// streamCore returns the shared streaming core, compiling it on first use.
func (m *Matcher) streamCore() *streamcore.Core {
	m.streamOnce.Do(func() {
		c, err := streamcore.NewCore(m.encoded, m.enc)
		if err != nil {
			// Unreachable: NewMatcher already rejected empty patterns, the
			// only failure the streaming core can report.
			panic(fmt.Sprintf("pardict: stream core: %v", err))
		}
		m.stream = c
	})
	return m.stream
}

// NewMatcher preprocesses the dictionary (Theorem 3: O(M) work, O(log m)
// depth). Patterns must be non-empty and distinct.
func NewMatcher(patterns [][]byte, opts ...Option) (*Matcher, error) {
	cfg := buildConfig(opts)
	enc, err := cfg.encoder()
	if err != nil {
		return nil, err
	}
	m := &Matcher{cfg: cfg, enc: enc, engine: cfg.engine}
	m.patterns = make([][]byte, len(patterns))
	m.encoded = make([][]int32, len(patterns))
	equalLen := true
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, core.ErrEmptyPattern
		}
		m.patterns[i] = append([]byte(nil), p...)
		e, err := enc.EncodePattern(p)
		if err != nil {
			return nil, err
		}
		m.encoded[i] = e
		if len(p) > m.maxLen {
			m.maxLen = len(p)
		}
		m.total += len(p)
		if len(p) != len(patterns[0]) {
			equalLen = false
		}
	}

	if m.engine == EngineAuto {
		if equalLen && len(patterns) > 0 {
			m.engine = EngineEqualLength
		} else {
			m.engine = EngineGeneral
		}
	}

	ctx := cfg.newCtx()
	obs.Do(nil, func(lctx context.Context) {
		ctx.SetLabelContext(lctx)
		switch m.engine {
		case EngineGeneral:
			m.general, err = core.Preprocess(ctx, m.encoded)
		case EngineSmallAlphabet:
			l := cfg.collapse
			if cfg.binary {
				bits := alpha.BitsFor(enc.Size())
				if l == 0 {
					l = autoCollapseBinary(m.maxLen, bits)
				}
				m.binary, err = smallalpha.NewBinary(ctx, m.encoded, enc.Size(), l)
			} else {
				if l == 0 {
					l = autoCollapse(m.maxLen, enc.Size())
				}
				m.small, err = smallalpha.New(ctx, m.encoded, enc.Size(), l)
			}
		case EngineEqualLength:
			if !equalLen {
				err = multimatch.ErrUnequalLengths
				return
			}
			m.equal, err = multimatch.New(ctx, m.encoded)
		default:
			err = fmt.Errorf("pardict: unknown engine %v", m.engine)
		}
	}, "engine", m.engine.String(), "op", "build")
	if err != nil {
		return nil, err
	}
	if m.general != nil {
		// Preprocess already rejected duplicates and holds the chain.
		m.nextShorter = make([]int32, len(m.encoded))
		for i := range m.nextShorter {
			m.nextShorter[i] = m.general.NextShorter(int32(i))
		}
	} else if m.nextShorter, err = prefixChain(m.encoded); err != nil {
		return nil, err
	}
	m.applyPrefilter()
	m.buildStats = statsOf(ctx)
	return m, nil
}

// autoPrefilterRate is the estimated-pass-rate ceiling below which
// PrefilterAuto keeps the filter: above it, the screen would admit too many
// positions to pay for its scan.
const autoPrefilterRate = 0.25

// applyPrefilter installs the prefilter on the general engine per the
// configured mode. Prefiltering is an execution-layer optimization: it never
// changes the counted Work/Depth of a match (the screen runs in uncounted
// phases) and never changes Longest/All/FindAll output; it does withhold
// PrefixLen (see Matcher.filtered).
func (m *Matcher) applyPrefilter() {
	if m.general == nil || m.cfg.prefilter == PrefilterOff {
		return
	}
	if m.cfg.prefilter == prefilterScalar {
		m.general.EnablePrefilter(m.enc)
	} else {
		m.general.EnablePrefilterWide(m.enc)
	}
	if m.cfg.prefilter == PrefilterAuto {
		if _, rate := m.general.Filtered(); rate > autoPrefilterRate {
			m.general.DisablePrefilter()
			return
		}
	}
	m.filtered = true
}

// prefixChain returns the proper-prefix chain of §4.2 — for each pattern, the
// longest other pattern that is a proper prefix of it, or -1 — and rejects
// duplicate patterns. It sorts pattern indices lexicographically (equal
// patterns by index), so every proper prefix of a pattern sorts before it
// and prefixes every pattern in between. One pass over that order keeps a
// stack of the patterns that are prefixes of the previous one: those no
// longer than the longest common prefix with the current pattern are
// exactly its prefixes, and the longest is its chain link. An equal pattern
// on the stack is a duplicate. The witness is the one an insertion-order scan
// reports: among duplicated patterns, the one whose second occurrence comes
// earliest, paired with its first occurrence.
func prefixChain(encoded [][]int32) ([]int32, error) {
	n := len(encoded)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := slices.Compare(encoded[a], encoded[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	chain := make([]int32, n)
	var stack []int32
	var dup *core.DuplicateError
	for s, i := range idx {
		p := encoded[i]
		common := 0
		if s > 0 {
			prev := encoded[idx[s-1]]
			for common < len(prev) && common < len(p) && prev[common] == p[common] {
				common++
			}
		}
		for len(stack) > 0 && len(encoded[stack[len(stack)-1]]) > common {
			stack = stack[:len(stack)-1]
		}
		chain[i] = -1
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if len(encoded[top]) == len(p) {
				if dup == nil || int(i) < dup.Second {
					dup = &core.DuplicateError{First: int(top), Second: int(i)}
				}
				continue
			}
			chain[i] = top
		}
		stack = append(stack, i)
	}
	if dup != nil {
		return nil, dup
	}
	return chain, nil
}

// Engine reports the engine actually in use.
func (m *Matcher) Engine() Engine { return m.engine }

// PatternCount reports the number of patterns.
func (m *Matcher) PatternCount() int { return len(m.patterns) }

// Pattern returns pattern i.
func (m *Matcher) Pattern(i int) []byte { return m.patterns[i] }

// MaxLen reports m, the longest pattern length.
func (m *Matcher) MaxLen() int { return m.maxLen }

// Size reports M, the total pattern size.
func (m *Matcher) Size() int { return m.total }

// BuildStats reports the instrumented preprocessing cost.
func (m *Matcher) BuildStats() Stats { return m.buildStats }

// Matches is the per-position result of one Match call. A Matches may be
// reused across calls via Matcher.MatchInto and returned to the buffer pools
// with Release; both are optional (an abandoned Matches is ordinary garbage).
type Matches struct {
	m     *Matcher
	res   *core.Result // general engine: owns the pat/plen storage
	pat   []int32
	plen  []int32 // longest dictionary-prefix length (general engine, unfiltered)
	enc   []int32 // reusable text-encoding buffer of unfiltered matchers (MatchInto steady state)
	stats Stats
}

// Release returns the Matches' pooled buffers for reuse by later matches.
// The caller must not use r (or any value read from it) afterwards.
func (r *Matches) Release() {
	if r.res != nil {
		r.res.Release()
		r.res = nil
	}
	pram.ReleaseInt32(r.enc)
	r.pat, r.plen, r.enc = nil, nil, nil
}

// Match scans text and reports, per position, the longest pattern starting
// there (Theorem 1/3 matching: O(n·log m) work — or the engine's improved
// bound — at O(log m) depth). It is MatchContext under a context that is
// never canceled.
func (m *Matcher) Match(text []byte) *Matches {
	r, _ := m.MatchContext(context.Background(), text)
	return r
}

// MatchContext is Match under a context: cancellation (or deadline expiry)
// aborts the scan within one parallel phase and returns an error wrapping
// both ErrCanceled and the context's cause; no partial result is returned.
// The underlying scheduler is shared and survives cancellation, so concurrent
// matches on the same pool are unaffected.
func (m *Matcher) MatchContext(gctx context.Context, text []byte) (*Matches, error) {
	ctx := m.cfg.newCtxFor(gctx)
	out := &Matches{}
	obs.Do(gctx, func(lctx context.Context) {
		ctx.SetLabelContext(lctx)
		m.matchOn(ctx, out, text)
	}, "engine", m.engine.String(), "op", "match")
	if err := canceledErr(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// SchedulerStats snapshots the counters of the scheduler this matcher
// executes on (the shared pool of its configured parallelism, or the
// WithPool-supplied one). Matchers on the same pool share these counters.
func (m *Matcher) SchedulerStats() SchedulerStats {
	return schedulerStatsOf(m.cfg.schedulerPool())
}

// matchOn runs the configured engine over text on an already-bound execution
// context, writing into out and reusing out's pooled buffers when their
// capacity suffices. The result is only meaningful if ctx was not canceled.
func (m *Matcher) matchOn(ctx *pram.Ctx, out *Matches, text []byte) {
	out.m = m
	if out.res == nil {
		out.res = &core.Result{}
	}
	out.pat, out.plen = m.engineMatch(ctx, text, &out.enc, out.res)
	out.stats = statsOf(ctx)
}

// engineMatch runs the configured engine over text, the general engine
// writing into res. It returns the longest pattern per position, and the
// longest prefix length per position on the unfiltered general engine (nil
// elsewhere: a filtered match computes none). A filtered matcher hands the
// raw text to the general engine, which screens the bytes and encodes only
// what its cascade scans; every other matcher encodes the whole text into
// *enc first.
func (m *Matcher) engineMatch(ctx *pram.Ctx, text []byte, enc *[]int32, res *core.Result) (pat, plen []int32) {
	if m.filtered {
		m.general.MatchBytesInto(ctx, text, res)
		return res.Pat, nil
	}
	esp := ctx.Trace().StartSpan("encode", int64(len(text)))
	*enc = m.enc.EncodeInto(pram.ResizeInt32(*enc, len(text)), text)
	esp.End()
	switch m.engine {
	case EngineGeneral:
		m.general.MatchInto(ctx, *enc, res)
		return res.Pat, res.Len
	case EngineSmallAlphabet:
		if m.binary != nil {
			return m.binary.Match(ctx, *enc), nil
		}
		return m.small.Match(ctx, *enc), nil
	default:
		return m.equal.Match(ctx, *enc), nil
	}
}

// MatchInto is Match writing into dst (which may be nil or a Matches from an
// earlier call), reusing dst's buffers so a warmed matcher performs zero heap
// allocations per call — the steady-state hot-path entry point. It skips the
// observability wrapper and context plumbing of MatchContext; use those
// entry points when tracing or cancellation matter. Returns dst.
func (m *Matcher) MatchInto(dst *Matches, text []byte) *Matches {
	if dst == nil {
		dst = &Matches{}
	}
	ctx := pram.GetCtx(m.cfg.schedulerPool())
	m.matchOn(ctx, dst, text)
	pram.PutCtx(ctx)
	return dst
}

// batchInflight bounds how many texts of one MatchBatch call are matched
// concurrently. Pipelining a few texts keeps the pool busy across the
// low-parallelism tails of each text's phase cascade without running the
// whole batch's memory footprint at once.
const batchInflight = 4

// MatchBatch scans every text and returns the per-text results, in order.
// All texts execute on the matcher's one scheduler (the shared pool, or the
// WithPool-supplied one), pipelined a few texts at a time so phase barriers
// of one text overlap useful work from the next. Cancellation aborts the
// whole batch: the first error is returned and no partial results.
func (m *Matcher) MatchBatch(gctx context.Context, texts [][]byte) ([]*Matches, error) {
	return matchBatch(texts, func(t []byte) (*Matches, error) {
		ctx := m.cfg.newCtxFor(gctx)
		r := &Matches{}
		obs.Do(gctx, func(lctx context.Context) {
			ctx.SetLabelContext(lctx)
			m.matchOn(ctx, r, t)
		}, "engine", m.engine.String(), "op", "batch")
		if err := canceledErr(ctx); err != nil {
			return nil, err
		}
		return r, nil
	})
}

// matchBatch runs match on every text, at most batchInflight at a time, and
// returns the results in order. The first error wins: it is returned with
// no partial results, and texts not yet started when it lands are skipped.
func matchBatch[R any](texts [][]byte, match func([]byte) (R, error)) ([]R, error) {
	out := make([]R, len(texts))
	if len(texts) == 0 {
		return out, nil
	}
	sem := make(chan struct{}, min(batchInflight, len(texts)))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, t := range texts {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, t []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := match(t)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			out[i] = r
		}(i, t)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Len reports the text length the matches cover.
func (r *Matches) Len() int { return len(r.pat) }

// Longest returns the index of the longest pattern starting at position i,
// and whether any pattern matches there.
func (r *Matches) Longest(i int) (int, bool) {
	p := r.pat[i]
	return int(p), p >= 0
}

// All appends to dst the indices of every pattern starting at position i,
// longest first (output-sensitive; see §2 of the paper on output formats).
func (r *Matches) All(i int, dst []int) []int {
	for p := r.pat[i]; p >= 0; p = r.m.nextShorter[p] {
		dst = append(dst, int(p))
	}
	return dst
}

// Count returns the number of positions with at least one match.
func (r *Matches) Count() int {
	n := 0
	for _, p := range r.pat {
		if p >= 0 {
			n++
		}
	}
	return n
}

// PrefixLen reports the length of the longest dictionary prefix starting at
// position i — the Step 1 prefix-matching output (Theorem 1). It is
// available on the general engine without a prefilter; other engines, and
// prefiltered matchers (which compute no prefix lengths at screened
// positions), report ok = false.
func (r *Matches) PrefixLen(i int) (int, bool) {
	if r.plen == nil {
		return 0, false
	}
	return int(r.plen[i]), true
}

// Stats reports the instrumented cost of the Match call that produced r.
func (r *Matches) Stats() Stats { return r.stats }

// Occurrence is one pattern occurrence reported by FindAll.
type Occurrence struct {
	Pos     int // text position where the pattern starts
	Pattern int // pattern index
}

// FindAll returns every occurrence of every pattern in text, ordered by
// position and, within a position, by decreasing pattern length. The slice
// is output-sensitive (§2's all-matches format).
func (m *Matcher) FindAll(text []byte) []Occurrence {
	r := m.Match(text)
	var out []Occurrence
	var buf []int
	for i := 0; i < r.Len(); i++ {
		buf = r.All(i, buf[:0])
		for _, p := range buf {
			out = append(out, Occurrence{Pos: i, Pattern: p})
		}
	}
	return out
}

// Contains reports whether any pattern occurs in text.
func (m *Matcher) Contains(text []byte) bool {
	r := m.Match(text)
	for _, p := range r.pat {
		if p >= 0 {
			return true
		}
	}
	return false
}
