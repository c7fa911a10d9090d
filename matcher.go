package pardict

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"pardict/internal/alpha"
	"pardict/internal/core"
	"pardict/internal/multimatch"
	"pardict/internal/obs"
	"pardict/internal/pram"
	"pardict/internal/smallalpha"
	"pardict/internal/streamcore"
	"pardict/internal/trie"
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
	// pattern output exact but makes prefix lengths lower bounds.
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
			if err == nil {
				err = rejectDuplicates(m.encoded)
			}
		default:
			err = fmt.Errorf("pardict: unknown engine %v", m.engine)
		}
	}, "engine", m.engine.String(), "op", "build")
	if err != nil {
		return nil, err
	}
	if err := m.buildChain(); err != nil {
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
		m.general.EnablePrefilter()
	} else {
		m.general.EnablePrefilterWide()
	}
	if m.cfg.prefilter == PrefilterAuto {
		if _, rate := m.general.Filtered(); rate > autoPrefilterRate {
			m.general.DisablePrefilter()
			return
		}
	}
	m.filtered = true
}

// rejectDuplicates enforces pattern distinctness for engines that would
// otherwise silently collapse duplicates. It sorts pattern indices
// lexicographically and compares neighbours — no per-pattern key
// materialization — and reports the same witness the old map scan did: among
// the first duplicated pattern (by smallest earliest index), its two lowest
// indices.
func rejectDuplicates(encoded [][]int32) error {
	n := len(encoded)
	if n < 2 {
		return nil
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := encoded[idx[a]], encoded[idx[b]]
		for k := 0; k < len(pa) && k < len(pb); k++ {
			if pa[k] != pb[k] {
				return pa[k] < pb[k]
			}
		}
		if len(pa) != len(pb) {
			return len(pa) < len(pb)
		}
		return idx[a] < idx[b] // stabilize equal groups by index
	})
	var dup *core.DuplicateError
	for s := 0; s < n; {
		e := s + 1
		for e < n && equalPats(encoded[idx[s]], encoded[idx[e]]) {
			e++
		}
		if e-s > 1 {
			// Group is index-sorted (comparator tie-break). The insertion-order
			// map scan reported the earliest second occurrence across all
			// patterns, paired with that pattern's first index — so pick the
			// group whose second-smallest index is minimal.
			first, second := int(idx[s]), int(idx[s+1])
			if dup == nil || second < dup.Second {
				dup = &core.DuplicateError{First: first, Second: second}
			}
		}
		s = e
	}
	if dup != nil {
		return dup
	}
	return nil
}

func equalPats(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// buildChain computes the proper-prefix pattern chain with a trie, reading
// the chain back through the sealed CSR view (the NMA array is computed once
// at seal time).
func (m *Matcher) buildChain() error {
	tr := trie.New()
	ends := make([]int32, len(m.encoded))
	for i, p := range m.encoded {
		node, _ := tr.Insert(p)
		if !tr.Mark(node, int32(i)) {
			return &core.DuplicateError{First: int(tr.PatternAt(node)), Second: i}
		}
		ends[i] = node
	}
	sealed := tr.Seal()
	m.nextShorter = make([]int32, len(m.encoded))
	for i, node := range ends {
		parent := sealed.Parent(node)
		if parent == trie.None {
			m.nextShorter[i] = -1
			continue
		}
		if up := sealed.NearestMarked(parent); up != trie.None {
			m.nextShorter[i] = sealed.PatternAt(up)
		} else {
			m.nextShorter[i] = -1
		}
	}
	return nil
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
	enc   []int32 // reusable text-encoding buffer (MatchInto steady state)
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
	if cap(out.enc) < len(text) {
		pram.ReleaseInt32(out.enc)
		out.enc = pram.AcquireInt32(len(text))
	}
	out.enc = m.enc.EncodeInto(out.enc, text)
	enc := out.enc
	switch m.engine {
	case EngineGeneral:
		if out.res == nil {
			out.res = &core.Result{}
		}
		m.general.MatchInto(ctx, enc, out.res)
		out.pat = out.res.Pat
		if m.filtered {
			out.plen = nil // filtered prefix lengths are lower bounds; withhold
		} else {
			out.plen = out.res.Len
		}
	case EngineSmallAlphabet:
		if m.binary != nil {
			out.pat = m.binary.Match(ctx, enc)
		} else {
			out.pat = m.small.Match(ctx, enc)
		}
	case EngineEqualLength:
		out.pat = m.equal.Match(ctx, enc)
	}
	out.stats = statsOf(ctx)
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
	out := make([]*Matches, len(texts))
	if len(texts) == 0 {
		return out, nil
	}
	inflight := batchInflight
	if inflight > len(texts) {
		inflight = len(texts)
	}
	sem := make(chan struct{}, inflight)
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
			ctx := m.cfg.newCtxFor(gctx)
			r := &Matches{}
			obs.Do(gctx, func(lctx context.Context) {
				ctx.SetLabelContext(lctx)
				m.matchOn(ctx, r, t)
			}, "engine", m.engine.String(), "op", "batch")
			if err := canceledErr(ctx); err != nil {
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
// prefiltered matchers (whose screened positions make prefix lengths lower
// bounds), report ok = false.
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
