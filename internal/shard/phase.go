// Phase-reconciled write path (Doppel-style, cf. ddtxn): a Set runs in one of
// two phases. In the joined phase every mutation takes the owning shard's
// lock, appends to its log, and republishes the overlay snapshot — reads see
// the write the moment the call returns. In the split phase mutations bypass
// every shared lock: each writer appends {seq, op} to one of a small array of
// cache-padded private log slots (round-robin, so even a single hot key
// spreads across slots), stamped from one global atomic sequence. Insert and
// Delete are commutative up to last-writer-wins per pattern, so the logs need
// no coordination; a coordinator goroutine periodically captures every slot
// under an epoch barrier, collapses the batch LWW by content, and applies the
// survivors through the joined phase's own apply and publish, in one batched
// critical section per shard. Readers are never blocked in either phase; in
// the split phase they see the last merged state, so visibility lags by at
// most the merge period plus one apply (the staleness bound).
//
// The epoch barrier is phaseMu: writers hold it for read across their whole
// operation, transitions and captures take it for write. Taking the write
// side therefore drains every in-flight writer, which makes a captured batch
// closed under the global sequence — no op outside the capture can order
// between two ops inside it, so sorting by seq and keeping each key's last op
// is exactly the serialization a locked execution would have produced.
package shard

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// procsHint sizes the private-log array to the scheduler's parallelism.
func procsHint() int { return runtime.GOMAXPROCS(0) }

// Operating phases (internal) and requested modes. The mode constants mirror
// pardict.WritePhase ordering: Joined=0, Auto=1, Split=2.
const (
	phaseJoined int32 = iota
	phaseSplit
)

const (
	ModeJoined int32 = iota
	ModeAuto
	ModeSplit
)

func phaseName(p int32) string {
	if p == phaseSplit {
		return "split"
	}
	return "joined"
}

func modeName(m int32) string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeSplit:
		return "split"
	}
	return "joined"
}

// PhasePolicy tunes the coordinator. Zero fields take defaults.
type PhasePolicy struct {
	// MergeEvery is the split-phase merge period — the staleness bound on
	// reads (plus one apply).
	MergeEvery time.Duration
	// DecideEvery is how often Auto mode re-evaluates the write rate.
	DecideEvery time.Duration
	// EnterPerSec: Auto flips joined→split when the mutation rate sustains
	// above this.
	EnterPerSec float64
	// ExitPerSec: Auto flips split→joined when the rate falls below this.
	ExitPerSec float64
}

// DefaultPhasePolicy returns the production coordinator tuning.
func DefaultPhasePolicy() PhasePolicy {
	return PhasePolicy{
		MergeEvery:  2 * time.Millisecond,
		DecideEvery: 20 * time.Millisecond,
		EnterPerSec: 20000,
		ExitPerSec:  2000,
	}
}

func (p PhasePolicy) withDefaults() PhasePolicy {
	d := DefaultPhasePolicy()
	if p.MergeEvery <= 0 {
		p.MergeEvery = d.MergeEvery
	}
	if p.DecideEvery <= 0 {
		p.DecideEvery = d.DecideEvery
	}
	if p.EnterPerSec <= 0 {
		p.EnterPerSec = d.EnterPerSec
	}
	if p.ExitPerSec <= 0 {
		p.ExitPerSec = d.ExitPerSec
	}
	return p
}

// splitOp is one private-log record. seq totally orders records across slots;
// at merge the highest seq per pattern content wins.
type splitOp struct {
	seq uint64
	op
}

// wlogSlot is one private log. Padded out to its own cache lines so slots
// written by different cores do not false-share.
type wlogSlot struct {
	mu  sync.Mutex
	ops []splitOp
	_   [96]byte
}

const (
	minLogSlots = 4
	maxLogSlots = 64
)

// initPhase sizes the private-log array (power of two ≥ min(procs, cap)) and
// installs the default policy. Called once from New before any writer exists.
func (t *Set) initPhase() {
	n := minLogSlots
	for n < procsHint() && n < maxLogSlots {
		n <<= 1
	}
	t.wlogs = make([]wlogSlot, n)
	t.slotMask = uint32(n - 1)
	pol := DefaultPhasePolicy()
	t.policy.Store(&pol)
}

// SetPhasePolicy replaces the coordinator tuning (zero fields take defaults).
// Safe at any time; the next coordinator tick observes it.
func (t *Set) SetPhasePolicy(p PhasePolicy) {
	pol := p.withDefaults()
	t.policy.Store(&pol)
}

// PhaseNow reports the current operating phase ("joined" or "split").
func (t *Set) PhaseNow() string { return phaseName(t.phase.Load()) }

// SetWritePhaseMode switches the requested mode and, for the forced modes,
// transitions synchronously: when it returns with ModeJoined the private logs
// have been drained and every prior write is visible; with ModeSplit new
// writes go to the private logs. ModeAuto leaves the current phase in place
// and lets the coordinator decide from the observed write rate.
func (t *Set) SetWritePhaseMode(mode int32) {
	if mode != ModeAuto && mode != ModeSplit {
		mode = ModeJoined
	}
	t.mergeMu.Lock()
	defer t.mergeMu.Unlock()
	t.mode.Store(mode)
	if t.closed.Load() {
		return
	}
	switch mode {
	case ModeJoined:
		if t.phase.Load() == phaseSplit {
			t.exitSplitLocked()
		}
	case ModeSplit:
		if t.phase.Load() == phaseJoined {
			t.enterSplitLocked()
		}
	}
}

// logSplit appends one record to a private slot. Round-robin slot choice —
// rather than hashing the key — keeps an adversarial single-key storm spread
// across every slot. Caller holds phaseMu.R.
func (t *Set) logSplit(o splitOp) {
	slot := &t.wlogs[t.slotCtr.Add(1)&t.slotMask]
	slot.mu.Lock()
	slot.ops = append(slot.ops, o)
	slot.mu.Unlock()
	t.splitLogged.Add(1)
	t.splitWrites.Add(1)
	metSplitWrites.Inc()
}

// enterSplitLocked flips joined→split. Caller holds mergeMu. The barrier
// drains in-flight joined writers so no mutation straddles the transition.
func (t *Set) enterSplitLocked() {
	t.phaseMu.Lock()
	t.phase.Store(phaseSplit)
	t.phaseMu.Unlock()
	t.phaseSwitches.Add(1)
	metPhaseSwitches.Inc()
}

// exitSplitLocked drains the private logs and flips split→joined, entirely
// under the barrier: a writer that observes the joined phase is ordered after
// every split write has landed, preserving per-goroutine program order across
// the transition.
func (t *Set) exitSplitLocked() {
	t.phaseMu.Lock()
	t.applyCaptured(t.captureLocked())
	t.phase.Store(phaseJoined)
	t.phaseMu.Unlock()
	t.phaseSwitches.Add(1)
	metPhaseSwitches.Inc()
}

// Flush synchronously merges every private-log record accepted so far into
// the shard overlays (a cheap no-op when the logs are empty). The phase does
// not change. Reads issued after Flush returns observe every write that
// completed before it was called, regardless of phase.
func (t *Set) Flush() {
	t.mergeMu.Lock()
	defer t.mergeMu.Unlock()
	t.flushLocked()
}

// flushLocked is Flush under a held mergeMu.
func (t *Set) flushLocked() {
	t.phaseMu.Lock()
	t.applyCaptured(t.captureLocked())
	t.phaseMu.Unlock()
}

// captureLocked swaps out every slot's record slice. Caller holds phaseMu.W,
// so no append is in flight and the batch is closed under the sequence.
func (t *Set) captureLocked() []splitOp {
	var all []splitOp
	for i := range t.wlogs {
		s := &t.wlogs[i]
		s.mu.Lock()
		if len(s.ops) > 0 {
			all = append(all, s.ops...)
			s.ops = nil
		}
		s.mu.Unlock()
	}
	t.splitLogged.Add(-int64(len(all)))
	return all
}

// applyCaptured folds one captured batch into the shards: sort by the global
// sequence, keep each pattern's final op (last writer wins — an earlier
// insert shadowed by a delete, or vice versa, never needs to touch a shard),
// bucket by shard, and apply each bucket in a single locked critical section
// that publishes one snapshot. Ops apply refuses (a duplicate insert, an
// absent delete) are the split phase's silent upserts. Caller holds mergeMu;
// holding phaseMu too is allowed but not required.
func (t *Set) applyCaptured(batch []splitOp) {
	if len(batch) == 0 {
		return
	}
	t0 := time.Now()
	sort.Slice(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
	shards := *t.shards.Load()
	final := make(map[string]int, len(batch)) // content → index in its bucket
	buckets := make([][]op, len(shards))
	for _, o := range batch {
		si := ShardOf(o.e.Raw, len(shards))
		if i, ok := final[string(o.e.Raw)]; ok {
			buckets[si][i] = o.op
			continue
		}
		final[string(o.e.Raw)] = len(buckets[si])
		buckets[si] = append(buckets[si], o.op)
	}
	for si, ops := range buckets {
		if len(ops) == 0 {
			continue
		}
		s := shards[si]
		s.mu.Lock()
		applied := ops[:0]
		for _, o := range ops {
			if o, ok := s.apply(o); ok {
				applied = append(applied, o)
			}
		}
		if len(applied) > 0 {
			t.publish(s, s.snap.Load(), applied)
		}
		s.mu.Unlock()
	}

	t.merges.Add(1)
	t.mergedOps.Add(int64(len(batch)))
	metMerges.Inc()
	metMergedOps.Add(int64(len(batch)))
	metMergeNs.Observe(time.Since(t0).Nanoseconds())
}

// phaseLoop is the coordinator goroutine: it merges the private logs every
// MergeEvery while any records are pending, and in Auto mode moves between
// phases from the observed mutation rate.
func (t *Set) phaseLoop() {
	defer t.wg.Done()
	pol := *t.policy.Load()
	tick := time.NewTicker(pol.MergeEvery)
	defer tick.Stop()
	lastDecide := time.Now()
	var lastWrites int64
	for {
		select {
		case <-t.quit:
			return
		case <-tick.C:
		}
		if t.splitLogged.Load() > 0 {
			t.mergeMu.Lock()
			t.phaseMu.Lock()
			batch := t.captureLocked()
			// Apply outside the barrier: writers keep streaming into the
			// fresh slots while the captured batch folds in.
			t.phaseMu.Unlock()
			t.applyCaptured(batch)
			t.mergeMu.Unlock()
		}
		if np := *t.policy.Load(); np.MergeEvery != pol.MergeEvery {
			tick.Reset(np.MergeEvery)
		}
		pol = *t.policy.Load()
		if t.mode.Load() == ModeAuto {
			if since := time.Since(lastDecide); since >= pol.DecideEvery {
				w := t.joinedWrites.Load() + t.splitWrites.Load()
				rate := float64(w-lastWrites) / since.Seconds()
				lastWrites, lastDecide = w, time.Now()
				t.autoAdjust(rate, pol)
			}
		}
	}
}

// autoAdjust moves between phases in Auto mode. Re-checks mode and phase
// under mergeMu so a concurrent SetWritePhaseMode wins.
func (t *Set) autoAdjust(rate float64, pol PhasePolicy) {
	switch t.phase.Load() {
	case phaseJoined:
		if rate >= pol.EnterPerSec {
			t.mergeMu.Lock()
			if t.mode.Load() == ModeAuto && t.phase.Load() == phaseJoined && !t.closed.Load() {
				t.enterSplitLocked()
			}
			t.mergeMu.Unlock()
		}
	case phaseSplit:
		if rate < pol.ExitPerSec {
			t.mergeMu.Lock()
			if t.mode.Load() == ModeAuto && t.phase.Load() == phaseSplit && !t.closed.Load() {
				t.exitSplitLocked()
			}
			t.mergeMu.Unlock()
		}
	}
}
