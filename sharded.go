package pardict

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"

	"pardict/internal/alpha"
	"pardict/internal/obs"
	"pardict/internal/pram"
	"pardict/internal/shard"
	"pardict/internal/trace"
)

// Errors returned by ShardedMatcher mutations.
var (
	// ErrDuplicatePattern reports an Insert of a pattern already live.
	ErrDuplicatePattern = errors.New("pardict: pattern already in dictionary")
	// ErrPatternNotFound reports a Delete of a pattern not live.
	ErrPatternNotFound = errors.New("pardict: pattern not in dictionary")
	// ErrMatcherClosed reports an operation on a closed ShardedMatcher.
	ErrMatcherClosed = errors.New("pardict: matcher closed")
)

// shardErr translates the internal subsystem's sentinels to the public ones.
func shardErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, shard.ErrDuplicate):
		return ErrDuplicatePattern
	case errors.Is(err, shard.ErrNotFound):
		return ErrPatternNotFound
	case errors.Is(err, shard.ErrClosed):
		return ErrMatcherClosed
	case errors.Is(err, shard.ErrEmptyPattern):
		return fmt.Errorf("pardict: %w", err)
	}
	return err
}

// ShardedMatcher is the serving-oriented dictionary: the pattern set is
// partitioned across S shards, each holding an immutable Theorem 1–3 engine
// snapshot published through an atomic pointer (RCU). Scans pin the current
// snapshots, scatter one task per shard across the scheduler, and merge the
// per-position longest matches; they never take a lock and never block on
// writers. Insert and Delete are cheap log appends, visible to every
// subsequent scan immediately; a background reconciler folds the logs into
// fresh per-shard engine builds off the hot path and swaps them in.
//
// All methods are safe for concurrent use from any number of goroutines.
// Close releases the background reconciler; the matcher rejects mutations
// afterwards but remains scannable.
type ShardedMatcher struct {
	cfg *config
	enc *alpha.Encoder
	set *shard.Set
}

// defaultShards picks the partition count: 2×GOMAXPROCS capped at 32.
func defaultShards() int {
	s := 2 * runtime.GOMAXPROCS(0)
	if s > 32 {
		s = 32
	}
	if s < 1 {
		s = 1
	}
	return s
}

// NewShardedMatcher returns an empty sharded dictionary. Use WithShards to
// set the partition count, WithAlphabet/WithParallelism/WithPool as on the
// other matcher kinds. Patterns are loaded with Insert, Reload, or
// ReloadSaved. Call Close when done to stop the background reconciler.
func NewShardedMatcher(opts ...Option) (*ShardedMatcher, error) {
	cfg := buildConfig(opts)
	enc, err := cfg.encoder()
	if err != nil {
		return nil, err
	}
	nShards := cfg.shards
	if nShards <= 0 {
		nShards = defaultShards()
	}
	m := &ShardedMatcher{cfg: cfg, enc: enc}
	// Rebuild contexts carry the reconcile label so CPU profiles separate
	// background compile cost from serving cost.
	m.set = shard.New(nShards, func() *pram.Ctx {
		ctx := cfg.newCtx()
		obs.Do(nil, ctx.SetLabelContext, "engine", "sharded", "op", "reconcile")
		return ctx
	})
	if cfg.writePhase != WritePhaseJoined {
		m.set.SetWritePhaseMode(int32(cfg.writePhase))
	}
	return m, nil
}

// SetWritePhase changes the mutation-coordination mode at runtime (see
// WithWritePhase). Switching to WritePhaseJoined drains the per-core private
// logs before returning, so every previously accepted write is visible;
// switching to WritePhaseSplit routes subsequent mutations to the private
// logs; WritePhaseAuto hands the decision to the coordinator.
func (m *ShardedMatcher) SetWritePhase(p WritePhase) {
	m.set.SetWritePhaseMode(int32(p))
}

// WritePhaseNow reports the requested mode and the phase currently operating
// (they differ only under WritePhaseAuto, where the coordinator moves between
// "joined" and "split" with load).
func (m *ShardedMatcher) WritePhaseNow() (mode, phase string) {
	st := m.set.Stats()
	return st.WriteMode, st.WritePhase
}

// Flush synchronously merges any split-phase writes still sitting in the
// per-core private logs into the serving snapshots. A Match that starts after
// Flush returns observes every mutation that completed before it was called.
// Cheap no-op in the joined phase or when the logs are empty.
func (m *ShardedMatcher) Flush() { m.set.Flush() }

// Shards reports the partition count S.
func (m *ShardedMatcher) Shards() int { return m.set.Shards() }

// Insert adds pattern p and returns its id: an O(1) amortized log append —
// the engine rebuild it eventually triggers runs off the hot path. In the
// joined phase (the default) the pattern is visible to every Match call that
// starts after Insert returns. In the split phase (WithWritePhase) the append
// is lock-free, visibility lags by the merge period, and inserting a
// duplicate is a silent no-op instead of ErrDuplicatePattern.
func (m *ShardedMatcher) Insert(p []byte) (PatternID, error) {
	e, err := m.enc.EncodePattern(p)
	if err != nil {
		return 0, err
	}
	id, err := m.set.Insert(p, e)
	return PatternID(id), shardErr(err)
}

// Delete removes pattern p (by content). In the joined phase (the default)
// the removal is visible to every Match call that starts after Delete
// returns. In the split phase the append is lock-free, visibility lags by the
// merge period, and deleting an absent pattern is a silent no-op instead of
// ErrPatternNotFound.
func (m *ShardedMatcher) Delete(p []byte) error {
	e, err := m.enc.EncodePattern(p)
	if err != nil {
		return err
	}
	return shardErr(m.set.Delete(p, e))
}

// Has reports whether p is currently live.
func (m *ShardedMatcher) Has(p []byte) bool { return m.set.Has(p) }

// LivePatterns returns a copy of every live pattern, in unspecified order —
// a consistent-per-shard freeze of the current set, suitable for compiling an
// immutable Matcher (e.g. a streaming-tier snapshot) from the online
// dictionary.
func (m *ShardedMatcher) LivePatterns() [][]byte { return m.set.Export() }

// Len reports the number of live patterns.
func (m *ShardedMatcher) Len() int { return m.set.Stats().Patterns }

// Size reports M, the total size of live patterns.
func (m *ShardedMatcher) Size() int { return m.set.Stats().Bytes }

// MaxLen reports the high-water longest live pattern length.
func (m *ShardedMatcher) MaxLen() int { return m.set.Stats().MaxLen }

// Reload atomically replaces the whole dictionary with patterns: fresh shard
// engines are compiled off-line and swapped in with a single pointer store.
// Scans in flight finish against the old dictionary; scans starting after
// Reload returns see exactly the new one. On error the old dictionary is
// untouched.
func (m *ShardedMatcher) Reload(patterns [][]byte) error {
	raws := make([][]byte, len(patterns))
	encs := make([][]int32, len(patterns))
	for i, p := range patterns {
		e, err := m.enc.EncodePattern(p)
		if err != nil {
			return err
		}
		raws[i], encs[i] = p, e
	}
	return shardErr(m.set.Replace(raws, encs))
}

// ReloadSaved is Reload from the pattern list of a Save-format stream: the
// body is fully read and checksum-verified before any state changes, so a
// corrupt or truncated stream fails closed with the old dictionary intact.
// The stream's alphabet is not used; the sharded matcher keeps its own.
func (m *ShardedMatcher) ReloadSaved(r io.Reader) error {
	_, patterns, err := readSaved(r)
	if err != nil {
		return err
	}
	return m.Reload(patterns)
}

// Reconcile synchronously folds every shard's pending log into its compiled
// base. Normal operation never needs it (the background reconciler does this
// off the hot path); it exists for deterministic tests and for operators who
// want a known-compiled state before a traffic spike.
func (m *ShardedMatcher) Reconcile() { m.set.Reconcile() }

// Close stops the background reconciler. Mutations return ErrMatcherClosed
// afterwards; scans keep working against the final state.
func (m *ShardedMatcher) Close() { m.set.Close() }

// ShardStats is a point-in-time summary of a ShardedMatcher.
type ShardStats struct {
	Shards   int // partition count S
	Patterns int // live patterns
	Size     int // Σ live pattern bytes
	MaxLen   int // high-water longest live pattern

	PendingOps   int    // log records awaiting reconciliation, all shards
	PendingBytes int    // Σ encoded length over those records
	Epoch        uint64 // max shard epoch (snapshot generations survived)

	SnapshotSwaps   int64 // snapshot publishes by rebuilds and Reload
	Rebuilds        int64 // background engine recompiles completed
	RebuildErrors   int64
	PinnedSnapshots int64 // scans currently holding shard snapshots

	// ReconcileWork/Depth is the PRAM cost of background engine rebuilds —
	// kept separate from scan Stats so the Theorem 1–3 per-scan accounting
	// stays comparable to the static engines.
	ReconcileWork  int64
	ReconcileDepth int64

	// Phase reconciliation (WithWritePhase).
	WritePhase      string // operating phase: "joined" | "split"
	WriteMode       string // requested mode: "joined" | "auto" | "split"
	PhaseSwitches   int64  // joined↔split transitions
	JoinedWrites    int64  // mutations through the locked shard path
	SplitWrites     int64  // mutations through the private logs
	SplitPendingOps int64  // private-log ops not yet merged
	Merges          int64  // private-log merge passes
	MergedOps       int64  // ops folded in by those passes
}

// Stats summarizes the matcher's current sharding state.
func (m *ShardedMatcher) Stats() ShardStats {
	st := m.set.Stats()
	return ShardStats{
		Shards:          st.Shards,
		Patterns:        st.Patterns,
		Size:            st.Bytes,
		MaxLen:          st.MaxLen,
		PendingOps:      st.PendingOps,
		PendingBytes:    st.PendingBytes,
		Epoch:           st.Epoch,
		SnapshotSwaps:   st.SnapshotSwaps,
		Rebuilds:        st.Rebuilds,
		RebuildErrors:   st.RebuildErrors,
		PinnedSnapshots: st.PinnedSnapshots,
		ReconcileWork:   st.ReconcileWork,
		ReconcileDepth:  st.ReconcileDepth,
		WritePhase:      st.WritePhase,
		WriteMode:       st.WriteMode,
		PhaseSwitches:   st.PhaseSwitches,
		JoinedWrites:    st.JoinedWrites,
		SplitWrites:     st.SplitWrites,
		SplitPendingOps: st.SplitPendingOps,
		Merges:          st.Merges,
		MergedOps:       st.MergedOps,
	}
}

// SchedulerStats snapshots the counters of the scheduler this matcher
// executes on; see Matcher.SchedulerStats.
func (m *ShardedMatcher) SchedulerStats() SchedulerStats {
	return schedulerStatsOf(m.cfg.schedulerPool())
}

// ShardedMatches is the per-position result of a sharded Match: the longest
// live pattern per position, merged across shards, with aggregated PRAM cost
// (Σ work over shard tasks and merge; max shard depth plus merge depth).
type ShardedMatches struct {
	r     *shard.Result
	stats Stats
}

// Match scans text against the live dictionary. It is MatchContext under a
// context that is never canceled.
func (m *ShardedMatcher) Match(text []byte) *ShardedMatches {
	r, _ := m.MatchContext(context.Background(), text)
	return r
}

// MatchContext scans text: every shard snapshot is pinned up front (so the
// scan observes all writes completed before it started), the shards are
// matched concurrently on the matcher's scheduler, and per-position longest
// matches are merged. The scan never blocks on writers or on the background
// reconciler. Cancellation aborts within one parallel phase and returns an
// error wrapping ErrCanceled and the context's cause.
func (m *ShardedMatcher) MatchContext(gctx context.Context, text []byte) (*ShardedMatches, error) {
	tr := trace.FromContext(gctx)
	esp := tr.StartSpan("encode", int64(len(text)))
	enc := m.enc.Encode(text)
	esp.End()
	var r *shard.Result
	var canceled *pram.Ctx
	obs.Do(gctx, func(lctx context.Context) {
		r, canceled = m.set.Match(func() *pram.Ctx {
			ctx := m.cfg.newCtxFor(gctx)
			ctx.SetLabelContext(lctx)
			return ctx
		}, enc, tr)
	}, "engine", "sharded", "op", "match")
	if canceled != nil {
		if err := canceledErr(canceled); err != nil {
			return nil, err
		}
	}
	return &ShardedMatches{
		r:     r,
		stats: Stats{Work: r.Work, Depth: r.Depth, Procs: m.cfg.schedulerPool().Procs()},
	}, nil
}

// MatchBatch scans every text and returns the per-text results, in order,
// pipelined a few texts at a time on the matcher's scheduler (see
// Matcher.MatchBatch). Each text observes the dictionary as of its own scan
// start. Cancellation aborts the whole batch.
func (m *ShardedMatcher) MatchBatch(gctx context.Context, texts [][]byte) ([]*ShardedMatches, error) {
	return matchBatch(texts, func(t []byte) (*ShardedMatches, error) {
		return m.MatchContext(gctx, t)
	})
}

// Len reports the text length the matches cover.
func (r *ShardedMatches) Len() int { return len(r.r.Len) }

// Longest returns the id of the longest live pattern starting at position i,
// and whether any pattern matches there.
func (r *ShardedMatches) Longest(i int) (PatternID, bool) {
	if r.r.Len[i] == 0 {
		return 0, false
	}
	return PatternID(r.r.ID[i]), true
}

// MatchLen reports the length of the longest live pattern starting at
// position i (0 when none).
func (r *ShardedMatches) MatchLen(i int) int { return int(r.r.Len[i]) }

// Count returns the number of positions with at least one match.
func (r *ShardedMatches) Count() int {
	n := 0
	for _, l := range r.r.Len {
		if l > 0 {
			n++
		}
	}
	return n
}

// ShardedHit is one pattern occurrence reported by AllAt.
type ShardedHit struct {
	ID      PatternID
	Pattern []byte
}

// AllAt appends to dst every live pattern starting at position i, longest
// first, and returns the extended slice.
func (r *ShardedMatches) AllAt(i int, dst []ShardedHit) []ShardedHit {
	hits := r.r.AllAt(i, nil)
	for _, h := range hits {
		dst = append(dst, ShardedHit{ID: PatternID(h.ID), Pattern: h.Raw})
	}
	return dst
}

// Stats reports the aggregated instrumented cost of the Match call.
func (r *ShardedMatches) Stats() Stats { return r.stats }
