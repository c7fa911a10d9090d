// Package shard is the sharded snapshot-serving subsystem: a dictionary
// partitioned across S shards (by a hash of the raw pattern bytes), each shard
// holding an immutable static-engine snapshot published through an atomic
// pointer. Readers never take a lock: a scan Loads every shard's current
// snapshot, pins it with a per-snapshot refcount (the RCU read-side), matches
// the text against each shard concurrently, and merges the per-position
// longest matches.
//
// Writes (Insert/Delete) append to a per-shard mutation log and publish a new
// snapshot value that shares the shard's compiled base and carries the log as
// an overlay, so completed writes are visible to every subsequent scan without
// waiting for a rebuild. A background reconciler batches the log and rebuilds
// only the affected shard's compiled base off the hot path — triggered,
// table-doubling style, once the log outgrows a fraction of the shard's size —
// then atomically swaps the fresh snapshot in. Matching therefore keeps the
// static engine's Θ(n·log m) per-shard cost (plus a small bounded overlay
// surcharge), while updates land in O(1) log appends amortized against
// per-shard rebuild work. Every write — joined, merged from the split phase's
// private logs, or replayed onto a freshly compiled base — changes the live
// state through one method (apply) and reaches readers through another
// (publish).
//
// Linearizability: a completed Insert/Delete has published its snapshot before
// returning, and a scan pins every shard's snapshot before matching, so every
// write that completed before the scan began is observed. Writes racing the
// scan are observed atomically per shard (a snapshot is immutable), though not
// necessarily across shards — the scan sees, per shard, a prefix of that
// shard's serialized write history.
package shard

import (
	"bytes"
	"errors"
	"hash/fnv"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pardict/internal/core"
	"pardict/internal/obs"
	"pardict/internal/pram"
)

// Errors returned by dictionary mutations.
var (
	ErrEmptyPattern = errors.New("shard: empty pattern")
	ErrDuplicate    = errors.New("shard: pattern already in dictionary")
	ErrNotFound     = errors.New("shard: pattern not in dictionary")
	ErrClosed       = errors.New("shard: matcher closed")
)

// Process-wide observability for the subsystem (rendered by dictserve
// /metrics). Counters aggregate across every Set in the process; per-Set
// figures come from Set.Stats.
var (
	metSwaps         obs.Counter
	metRebuilds      obs.Counter
	metRebuildErrs   obs.Counter
	metPinned        obs.Gauge
	metRebuildNs     = obs.NewHistogram(obs.ExpBounds(100_000, 4, 12))
	metJoinedWrites  obs.Counter
	metSplitWrites   obs.Counter
	metMerges        obs.Counter
	metMergedOps     obs.Counter
	metPhaseSwitches obs.Counter
	metMergeNs       = obs.NewHistogram(obs.ExpBounds(10_000, 4, 12))
)

// Metrics is a snapshot of the process-wide shard counters.
type Metrics struct {
	SnapshotSwaps int64
	Rebuilds      int64
	RebuildErrors int64
	Pinned        int64
	RebuildNs     obs.HistSnapshot
	JoinedWrites  int64
	SplitWrites   int64
	Merges        int64
	MergedOps     int64
	PhaseSwitches int64
	MergeNs       obs.HistSnapshot
}

// GlobalMetrics snapshots the process-wide shard observability state.
func GlobalMetrics() Metrics {
	return Metrics{
		SnapshotSwaps: metSwaps.Load(),
		Rebuilds:      metRebuilds.Load(),
		RebuildErrors: metRebuildErrs.Load(),
		Pinned:        metPinned.Load(),
		RebuildNs:     metRebuildNs.Snapshot(),
		JoinedWrites:  metJoinedWrites.Load(),
		SplitWrites:   metSplitWrites.Load(),
		Merges:        metMerges.Load(),
		MergedOps:     metMergedOps.Load(),
		PhaseSwitches: metPhaseSwitches.Load(),
		MergeNs:       metMergeNs.Snapshot(),
	}
}

// Entry is one live pattern: its stable id, the raw bytes (hashing, output),
// and the encoded symbols the engines match on. Entries are immutable once
// created and shared freely between snapshots.
type Entry struct {
	ID  int32
	Raw []byte
	Enc []int32
}

// op is one mutation-log record.
type op struct {
	del bool
	e   Entry
}

// snapshot is the immutable published state of one shard: a compiled static
// base plus the pending overlay (inserts not yet compiled in, base indices
// pending deletion). Readers pin it, use it, unpin it; nothing in it is ever
// mutated after publication. Only publish builds one.
type snapshot struct {
	base     *core.Dict     // compiled general engine over baseEnt (nil ⇔ no base patterns)
	baseEnt  []Entry        // base patterns, index-aligned with base's pattern ids
	baseLen  []int32        // encoded length per base entry (shared across derived snapshots)
	adds     []Entry        // pending inserts, arrival order
	addsDesc []int32        // indices into adds, longest pattern first (tie: arrival)
	delBase  map[int32]bool // base indices pending deletion

	epoch uint64       // incremented per base recompile
	pins  atomic.Int64 // readers currently inside a scan of this snapshot
}

// Shard is one partition: the published snapshot plus the writer-side state
// (live-set index, mutation log, base content index) guarded by mu. Readers
// touch only snap.
type Shard struct {
	set *Set
	mu  sync.Mutex

	snap atomic.Pointer[snapshot]

	liveID    map[string]int32 // content → id for every live pattern
	baseIdx   map[string]int32 // content → index in the current compiled base
	pending   []op             // mutation log since the current base
	pendBytes int              // Σ encoded length over pending
	baseBytes int              // Σ encoded length of base entries
	liveBytes int              // Σ encoded length of live patterns
	maxLen    int              // high-water longest live pattern since last compile

	queued  atomic.Bool // enqueued for reconciliation
	retired atomic.Bool // replaced wholesale; reconciler skips it

	// rebuildMu serializes whole rebuilds of this shard (the background
	// reconciler racing a synchronous Reconcile): a rebuild's capture and
	// swap phases must see a consistent pending log.
	rebuildMu sync.Mutex
}

// pin loads the shard's current snapshot and takes a read-side reference.
// The reference is observational (Go's GC keeps the snapshot alive); it feeds
// the pinned gauge and lets tests assert reader presence during stalls.
func (s *Shard) pin() *snapshot {
	sn := s.snap.Load()
	sn.pins.Add(1)
	metPinned.Add(1)
	s.set.pinned.Add(1)
	return sn
}

func (s *Shard) unpin(sn *snapshot) {
	sn.pins.Add(-1)
	metPinned.Add(-1)
	s.set.pinned.Add(-1)
}

// Rebuild-trigger thresholds (table-doubling style: amortize each base
// recompile against the log that forced it). A shard reconciles once its log
// holds at least minPendingBytes AND at least a quarter of the compiled base,
// or unconditionally once the log reaches maxPendingOps records (bounding the
// per-scan overlay surcharge for tiny patterns).
const (
	defaultMinPendingBytes = 512
	defaultMaxPendingOps   = 128
)

// Set is the sharded dictionary: the shard array (swapped wholesale by
// Replace), the global id allocator, and the background reconciler.
type Set struct {
	newCtx func() *pram.Ctx // execution contexts for rebuilds and Replace

	shards atomic.Pointer[[]*Shard]
	wmu    sync.RWMutex // writers hold R; Replace holds W

	nextID atomic.Int32

	rebuildCh chan *Shard
	quit      chan struct{}
	wg        sync.WaitGroup
	closed    atomic.Bool

	gate atomic.Pointer[func()] // test hook: invoked mid-rebuild, off every lock

	minPendingBytes int
	maxPendingOps   int

	// Phase reconciliation (see phase.go). phaseMu is the epoch barrier:
	// every mutation holds it for read across its whole critical section, so
	// a phase transition or log capture (which take it for write) observes no
	// in-flight writer. mergeMu serializes merges, transitions, Replace and
	// Close against each other; it is always acquired before phaseMu.
	phase    atomic.Int32 // phaseJoined | phaseSplit (current operating phase)
	mode     atomic.Int32 // ModeJoined | ModeAuto | ModeSplit (requested policy)
	phaseMu  sync.RWMutex
	mergeMu  sync.Mutex
	wlogs    []wlogSlot // per-core private logs, split phase only
	slotMask uint32
	slotCtr  atomic.Uint32
	wseq     atomic.Uint64 // global mutation sequence: last writer wins at merge
	policy   atomic.Pointer[PhasePolicy]

	// Per-set counters (the process-wide ones live at package level).
	swaps         atomic.Int64
	rebuilds      atomic.Int64
	rebuildErrs   atomic.Int64
	reconWork     atomic.Int64
	reconDepth    atomic.Int64
	pinned        atomic.Int64
	joinedWrites  atomic.Int64
	splitWrites   atomic.Int64
	splitLogged   atomic.Int64 // split ops appended but not yet merged
	merges        atomic.Int64
	mergedOps     atomic.Int64
	phaseSwitches atomic.Int64
}

// New returns an empty sharded dictionary with nShards partitions. newCtx
// supplies execution contexts for background rebuilds (it must be safe to
// call from any goroutine). Close must be called to stop the reconciler.
func New(nShards int, newCtx func() *pram.Ctx) *Set {
	if nShards < 1 {
		nShards = 1
	}
	t := &Set{
		newCtx:          newCtx,
		rebuildCh:       make(chan *Shard, 256),
		quit:            make(chan struct{}),
		minPendingBytes: defaultMinPendingBytes,
		maxPendingOps:   defaultMaxPendingOps,
	}
	shards := make([]*Shard, nShards)
	for i := range shards {
		shards[i] = t.freshShard(nil, nil)
	}
	t.shards.Store(&shards)
	t.initPhase()
	t.wg.Add(2)
	go t.reconciler()
	go t.phaseLoop()
	return t
}

// freshShard builds a shard whose base is compiled from ents (nil for empty).
// Only called where no reader can see the shard yet.
func (t *Set) freshShard(ents []Entry, base *core.Dict) *Shard {
	s := &Shard{
		set:     t,
		liveID:  make(map[string]int32, len(ents)),
		baseIdx: make(map[string]int32, len(ents)),
	}
	lens := make([]int32, len(ents))
	for i, e := range ents {
		s.liveID[string(e.Raw)] = e.ID
		s.baseIdx[string(e.Raw)] = int32(i)
		s.baseBytes += len(e.Enc)
		s.maxLen = max(s.maxLen, len(e.Enc))
		lens[i] = int32(len(e.Enc))
	}
	s.liveBytes = s.baseBytes
	t.publish(s, &snapshot{base: base, baseEnt: ents, baseLen: lens}, nil)
	return s
}

// SetRebuildThresholds overrides the reconciliation trigger (test hook).
func (t *Set) SetRebuildThresholds(minBytes, maxOps int) {
	t.minPendingBytes = minBytes
	t.maxPendingOps = maxOps
}

// SetGate installs fn to be called in the middle of every rebuild, while no
// lock is held (test hook: stall the reconciler and prove readers don't care).
func (t *Set) SetGate(fn func()) {
	if fn == nil {
		t.gate.Store(nil)
		return
	}
	t.gate.Store(&fn)
}

// Shards reports the partition count.
func (t *Set) Shards() int { return len(*t.shards.Load()) }

// ShardOf routes a pattern to its partition by FNV-1a over the raw bytes.
// Exported so adversarial tests and benchmarks can construct key sets that
// collide on one shard.
func ShardOf(raw []byte, n int) int {
	h := fnv.New32a()
	h.Write(raw)
	return int(h.Sum32() % uint32(n))
}

// Insert adds a live pattern and returns its id. In the joined phase this is
// an O(1) log append plus an O(pending) overlay refresh under the shard lock,
// published atomically — visible to every scan that starts after Insert
// returns. In the split phase it is a lock-striped append to a private log
// (no shard lock, no overlay refresh, no duplicate check): the coordinator
// merges last-writer-wins within the staleness bound, and a duplicate insert
// resolves to a no-op at merge rather than ErrDuplicate here. The compile
// cost is paid later, amortized, by the reconciler either way.
func (t *Set) Insert(raw []byte, enc []int32) (int32, error) {
	return t.write(op{e: Entry{ID: -1, Raw: raw, Enc: enc}})
}

// Delete removes a live pattern (by content), with Insert's costs and
// visibility in either phase. In the split phase deleting an absent pattern
// resolves to a no-op at merge rather than ErrNotFound here.
func (t *Set) Delete(raw []byte, enc []int32) error {
	_, err := t.write(op{del: true, e: Entry{ID: -1, Raw: raw, Enc: enc}})
	return err
}

// write is Insert and Delete: in the split phase an append to a private log,
// in the joined phase writeJoined.
func (t *Set) write(o op) (int32, error) {
	if len(o.e.Enc) == 0 {
		return 0, ErrEmptyPattern
	}
	t.phaseMu.RLock()
	defer t.phaseMu.RUnlock()
	// The closed check lives inside the barrier: Close flushes the private
	// logs under the write side, so a split append that saw closed==false
	// is always captured by that final flush, never lost.
	if t.closed.Load() {
		return 0, ErrClosed
	}
	o.e.Raw = append([]byte(nil), o.e.Raw...)
	if t.phase.Load() == phaseSplit {
		if !o.del {
			o.e.ID = t.nextID.Add(1) - 1
		}
		t.logSplit(splitOp{seq: t.wseq.Add(1), op: o})
		return o.e.ID, nil
	}
	return t.writeJoined(o)
}

// writeJoined is apply then publish under the owning shard's lock, with
// ErrDuplicate and ErrNotFound for the writes apply refuses. It is a function
// of its own so that both it and write keep open-coded defers, which the
// split phase's append is short enough to notice. Caller holds phaseMu.R.
func (t *Set) writeJoined(o op) (int32, error) {
	t.joinedWrites.Add(1)
	metJoinedWrites.Inc()
	t.wmu.RLock()
	defer t.wmu.RUnlock()
	shards := *t.shards.Load()
	s := shards[ShardOf(o.e.Raw, len(shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.apply(o)
	switch {
	case !ok && o.del:
		return 0, ErrNotFound
	case !ok:
		return 0, ErrDuplicate
	}
	t.publish(s, s.snap.Load(), []op{o})
	return o.e.ID, nil
}

// apply is the one place a mutation changes a shard's live index, pending log
// and byte counts. It reports false, changing nothing, for an insert of a
// live pattern or a delete of an absent one; an applied insert without an id
// (ID < 0) takes the next one. Called with s.mu held; the caller publishes
// the applied ops.
func (s *Shard) apply(o op) (op, bool) {
	if _, live := s.liveID[string(o.e.Raw)]; live != o.del {
		return o, false
	}
	if o.del {
		delete(s.liveID, string(o.e.Raw))
		s.liveBytes -= len(o.e.Enc)
	} else {
		if o.e.ID < 0 {
			o.e.ID = s.set.nextID.Add(1) - 1
		}
		s.liveID[string(o.e.Raw)] = o.e.ID
		s.liveBytes += len(o.e.Enc)
	}
	s.pending = append(s.pending, o)
	s.pendBytes += len(o.e.Enc)
	return o, true
}

// publish is the one place a snapshot is built. It folds ops, already
// applied to the live index, onto from's overlay copy-on-write, stores the
// result and re-checks the rebuild trigger. Inserts append past from's adds:
// writers are serialized under mu, and a slot beyond an older snapshot's len
// is never read through that snapshot. A delete marks its base entry while
// that one is live, else drops its pending insert; the first delete of the
// batch to edit delBase or adds copies it. addsDesc is sorted once. Called
// with s.mu held (or before the shard is visible), s.baseIdx indexing from's
// base.
func (t *Set) publish(s *Shard, from *snapshot, ops []op) {
	ns := &snapshot{
		base: from.base, baseEnt: from.baseEnt, baseLen: from.baseLen,
		adds: from.adds, delBase: from.delBase, epoch: from.epoch,
	}
	addsCopied, delCopied := false, false
	for _, o := range ops {
		if !o.del {
			ns.adds = append(ns.adds, o.e)
			s.maxLen = max(s.maxLen, len(o.e.Enc))
		} else if bi, inBase := s.baseIdx[string(o.e.Raw)]; inBase && !ns.delBase[bi] {
			if !delCopied {
				del := make(map[int32]bool, len(ns.delBase)+1)
				maps.Copy(del, ns.delBase)
				ns.delBase, delCopied = del, true
			}
			ns.delBase[bi] = true
		} else {
			i := slices.IndexFunc(ns.adds, func(a Entry) bool { return bytes.Equal(a.Raw, o.e.Raw) })
			if !addsCopied {
				ns.adds, addsCopied = append(make([]Entry, 0, len(ns.adds)), ns.adds...), true
			}
			ns.adds = slices.Delete(ns.adds, i, i+1)
		}
	}
	ns.addsDesc = make([]int32, len(ns.adds))
	for i := range ns.addsDesc {
		ns.addsDesc[i] = int32(i)
	}
	slices.SortStableFunc(ns.addsDesc, func(a, b int32) int {
		return len(ns.adds[b].Enc) - len(ns.adds[a].Enc)
	})
	s.snap.Store(ns)
	t.maybeSchedule(s)
}

// Export returns a copy of every live pattern's raw bytes, in unspecified
// order. It locks each shard in turn, so the result is per-shard consistent:
// a write completed before Export began is included, a write racing it is
// included or not atomically. Used to freeze the live set into an immutable
// engine (e.g. a streaming snapshot) without replaying the mutation history.
// Split-phase writes still sitting in private logs are flushed first so the
// export honors the same completed-write guarantee in either phase.
func (t *Set) Export() [][]byte {
	t.Flush()
	t.wmu.RLock()
	defer t.wmu.RUnlock()
	var out [][]byte
	for _, s := range *t.shards.Load() {
		s.mu.Lock()
		for key := range s.liveID {
			out = append(out, []byte(key))
		}
		s.mu.Unlock()
	}
	return out
}

// Has reports whether the pattern is live. In the split phase the answer may
// lag private-log appends by the staleness bound (call Flush first for a
// merged view).
func (t *Set) Has(raw []byte) bool {
	t.wmu.RLock()
	defer t.wmu.RUnlock()
	shards := *t.shards.Load()
	s := shards[ShardOf(raw, len(shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.liveID[string(raw)]
	return ok
}

// maybeSchedule enqueues the shard for reconciliation once its log crosses
// the amortization threshold. Called with the shard's mu held.
func (t *Set) maybeSchedule(s *Shard) {
	trigger := len(s.pending) >= t.maxPendingOps ||
		(s.pendBytes >= t.minPendingBytes && 4*s.pendBytes >= s.baseBytes)
	if !trigger {
		return
	}
	if s.queued.Swap(true) {
		return // already queued or being rebuilt
	}
	select {
	case t.rebuildCh <- s:
	default:
		// Channel full: back off; the next write re-triggers.
		s.queued.Store(false)
	}
}

// reconciler is the background goroutine that drains rebuild requests.
func (t *Set) reconciler() {
	defer t.wg.Done()
	for {
		select {
		case <-t.quit:
			return
		case s := <-t.rebuildCh:
			t.rebuild(s)
		}
	}
}

// Reconcile synchronously compiles every shard's pending log into its base
// (test and admin hook; the steady-state path is the background reconciler).
// Split-phase private logs are flushed first so nothing is left behind.
func (t *Set) Reconcile() {
	t.Flush()
	for _, s := range *t.shards.Load() {
		s.mu.Lock()
		dirty := len(s.pending) > 0
		s.mu.Unlock()
		if dirty {
			t.rebuild(s)
		}
	}
}

// rebuild compiles a shard's effective pattern set into a fresh base and
// swaps it in. Readers are never blocked: they keep pinning the old snapshot
// until the single atomic Store. Writers are blocked only for the two short
// critical sections (capture and swap), never for the compile itself.
func (t *Set) rebuild(s *Shard) {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	if s.retired.Load() {
		s.queued.Store(false)
		return
	}
	t0 := time.Now()

	// Capture: the snapshot to fold and how much of the log it covers.
	s.mu.Lock()
	sn := s.snap.Load()
	k, kBytes := len(s.pending), s.pendBytes
	s.mu.Unlock()

	if gate := t.gate.Load(); gate != nil {
		(*gate)()
	}

	// Compile off the hot path. The snapshot is immutable, so reading it
	// outside the lock is safe.
	eff := make([]Entry, 0, len(sn.baseEnt)+len(sn.adds))
	for i, e := range sn.baseEnt {
		if !sn.delBase[int32(i)] {
			eff = append(eff, e)
		}
	}
	eff = append(eff, sn.adds...)
	encs := make([][]int32, len(eff))
	effLen := make([]int32, len(eff))
	newIdx := make(map[string]int32, len(eff))
	baseBytes := 0
	for i, e := range eff {
		encs[i] = e.Enc
		effLen[i] = int32(len(e.Enc))
		newIdx[string(e.Raw)] = int32(i)
		baseBytes += len(e.Enc)
	}
	c := t.newCtx()
	base, err := core.Preprocess(c, encs)
	if err != nil {
		// Cannot happen for a log validated at write time; count and retreat
		// (the old snapshot stays live and correct via its overlay).
		t.rebuildErrs.Add(1)
		metRebuildErrs.Inc()
		s.queued.Store(false)
		return
	}

	// Swap: publish the new base with the log records that arrived during
	// the compile folded onto it. One pointer store; readers never wait. The
	// trigger is re-checked there, since the compile may have raced a burst
	// of writes large enough to warrant another pass immediately.
	s.mu.Lock()
	s.pending = append([]op(nil), s.pending[k:]...)
	s.pendBytes -= kBytes
	s.baseIdx = newIdx
	s.baseBytes = baseBytes
	s.maxLen = base.MaxLen()
	s.queued.Store(false)
	t.publish(s, &snapshot{base: base, baseEnt: eff, baseLen: effLen, epoch: sn.epoch + 1}, s.pending)
	s.mu.Unlock()

	t.swaps.Add(1)
	t.rebuilds.Add(1)
	metSwaps.Inc()
	metRebuilds.Inc()
	metRebuildNs.Observe(time.Since(t0).Nanoseconds())
	t.reconWork.Add(c.Work())
	t.reconDepth.Add(c.Depth())
}

// Replace atomically substitutes the whole dictionary: every pattern set is
// compiled into fresh shards off-line, then the shard array is swapped in one
// store. Scans in flight finish against the old shards; scans starting after
// Replace returns see exactly the new dictionary. Entries must be distinct by
// content and non-empty (enforced here); ids are freshly assigned.
func (t *Set) Replace(raws [][]byte, encs [][]int32) error {
	if t.closed.Load() {
		return ErrClosed
	}
	// Serialize against merges and transitions, and fold any split-phase
	// private logs into the old world first; writes logged during the compile
	// below raced Replace and merge onto the new shards afterwards, which the
	// racing-write contract allows.
	t.mergeMu.Lock()
	defer t.mergeMu.Unlock()
	t.flushLocked()
	nShards := t.Shards()
	buckets := make([][]Entry, nShards)
	seen := make(map[string]bool, len(raws))
	for i := range raws {
		if len(encs[i]) == 0 {
			return ErrEmptyPattern
		}
		key := string(raws[i])
		if seen[key] {
			return ErrDuplicate
		}
		seen[key] = true
		id := t.nextID.Add(1) - 1
		si := ShardOf(raws[i], nShards)
		buckets[si] = append(buckets[si], Entry{ID: id, Raw: append([]byte(nil), raws[i]...), Enc: encs[i]})
	}

	// Compile every shard's base off-line, in parallel.
	shards := make([]*Shard, nShards)
	errs := make([]error, nShards)
	var wg sync.WaitGroup
	for si := 0; si < nShards; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			ents := buckets[si]
			pats := make([][]int32, len(ents))
			for i := range ents {
				pats[i] = ents[i].Enc
			}
			base, err := core.Preprocess(t.newCtx(), pats)
			if err != nil {
				errs[si] = err
				return
			}
			shards[si] = t.freshShard(ents, base)
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	t.wmu.Lock()
	old := *t.shards.Load()
	for _, s := range old {
		s.retired.Store(true)
	}
	t.shards.Store(&shards)
	t.wmu.Unlock()
	t.swaps.Add(int64(nShards))
	metSwaps.Add(int64(nShards))
	return nil
}

// Close stops the reconciler and the phase coordinator. In-flight scans
// finish normally; mutations after Close return ErrClosed. Split-phase writes
// that completed before Close are flushed into the shards — the closed flag
// flips under the same barrier the writers hold for read, so no accepted
// write is lost.
func (t *Set) Close() {
	t.mergeMu.Lock()
	t.phaseMu.Lock()
	if t.closed.Swap(true) {
		t.phaseMu.Unlock()
		t.mergeMu.Unlock()
		return
	}
	t.applyCaptured(t.captureLocked())
	t.phase.Store(phaseJoined)
	t.phaseMu.Unlock()
	t.mergeMu.Unlock()
	close(t.quit)
	t.wg.Wait()
}

// Stats is a point-in-time summary of the set.
type Stats struct {
	Shards          int
	Patterns        int    // live patterns
	Bytes           int    // Σ encoded length of live patterns
	MaxLen          int    // high-water longest live pattern
	PendingOps      int    // log records awaiting reconciliation, all shards
	PendingBytes    int    // Σ encoded length over those records
	Epoch           uint64 // max shard epoch (base recompiles survived)
	SnapshotSwaps   int64  // snapshot publishes by rebuild/Replace
	Rebuilds        int64  // background base recompiles
	RebuildErrors   int64
	ReconcileWork   int64 // PRAM work spent compiling bases off the hot path
	ReconcileDepth  int64
	PinnedSnapshots int64 // readers currently inside a scan

	// Phase reconciliation (see phase.go).
	WritePhase      string // current operating phase: "joined" | "split"
	WriteMode       string // requested policy: "joined" | "auto" | "split"
	PhaseSwitches   int64  // joined↔split transitions
	JoinedWrites    int64  // mutations that took the locked shard path
	SplitWrites     int64  // mutations appended to private logs
	SplitPendingOps int64  // private-log ops not yet merged
	Merges          int64  // private-log merge passes
	MergedOps       int64  // ops folded in by those passes
}

// Stats sums the per-shard state under each shard's writer lock (cheap: no
// reader or reconciler interaction beyond the mutex).
func (t *Set) Stats() Stats {
	shards := *t.shards.Load()
	st := Stats{
		Shards:          len(shards),
		SnapshotSwaps:   t.swaps.Load(),
		Rebuilds:        t.rebuilds.Load(),
		RebuildErrors:   t.rebuildErrs.Load(),
		ReconcileWork:   t.reconWork.Load(),
		ReconcileDepth:  t.reconDepth.Load(),
		PinnedSnapshots: t.pinned.Load(),
		WritePhase:      phaseName(t.phase.Load()),
		WriteMode:       modeName(t.mode.Load()),
		PhaseSwitches:   t.phaseSwitches.Load(),
		JoinedWrites:    t.joinedWrites.Load(),
		SplitWrites:     t.splitWrites.Load(),
		SplitPendingOps: t.splitLogged.Load(),
		Merges:          t.merges.Load(),
		MergedOps:       t.mergedOps.Load(),
	}
	for _, s := range shards {
		s.mu.Lock()
		st.Patterns += len(s.liveID)
		st.Bytes += s.liveBytes
		st.MaxLen = max(st.MaxLen, s.maxLen)
		st.PendingOps += len(s.pending)
		st.PendingBytes += s.pendBytes
		st.Epoch = max(st.Epoch, s.snap.Load().epoch)
		s.mu.Unlock()
	}
	return st
}
