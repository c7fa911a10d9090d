package pram

import (
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"pardict/internal/obs"
)

// Pool is a persistent work-stealing scheduler for bulk-synchronous parallel
// phases. A Pool owns procs−1 long-lived worker goroutines (the goroutine
// that submits a phase is the procs-th participant); workers park on a
// condition variable between phases instead of being respawned per phase, so
// the per-phase cost is a wake plus chunk claims rather than procs goroutine
// creations — the difference BenchmarkPhaseOverhead measures.
//
// A phase's index range is split into per-participant spans of grain-aligned
// chunks. Each participant drains its own span with an atomic cursor and,
// when dry, steals chunks from the other spans. The phase barrier is an
// atomic count of outstanding chunks: the participant that retires the last
// chunk closes the phase's done channel, which is the only thing the
// submitter waits on (no per-phase WaitGroup, no goroutine join).
//
// Several phases may be in flight at once (e.g. Matcher.MatchBatch pipelines
// texts over one Pool); workers drain whichever phases are active.
//
// Pools are safe for concurrent submission from any number of goroutines,
// including from within a phase body (nested phases cannot deadlock: chunk
// claims never block, so a nested submitter can always finish its own phase
// single-handedly).
type Pool struct {
	procs int

	mu     sync.Mutex
	cond   *sync.Cond
	active []*phase // phases that may still have unclaimed chunks
	closed bool

	// Scheduler observability (see PoolStats). The atomic counters are
	// updated off the mutex: once per phase by the submitter, once per
	// participant per phase on the way out of participate (aggregated
	// locally first, so per-chunk claims stay counter-free). The queue and
	// park fields piggyback on sections that already hold mu. All updates
	// are gated on obs.Enabled at phase (or park) granularity.
	phases   atomic.Int64 // parallel phases issued, counted or not
	pooled   atomic.Int64 // phases fanned out to the worker pool
	chunks   atomic.Int64 // chunks executed by pooled phases
	steals   atomic.Int64 // chunks claimed outside the claimant's own span
	grainSum atomic.Int64 // sum of chosen grains, one sample per phase
	parks    int64        // worker park events (under mu)
	unparks  int64        // worker wake events (under mu)
	queueSum int64        // sum of active-phase counts sampled at submit (under mu)
	queueMax int64        // peak active-phase count at submit (under mu)

	// Prefilter effectiveness counters (see Ctx.NotePrefilter): positions
	// screened by the bit-parallel prefilter and the subset it proved unable
	// to start any match, letting the cascade skip them. These are scheduler
	// statistics, deliberately outside the Work/Depth model — the counted
	// Work/Depth of a filtered match is byte-identical to the unfiltered one.
	prefScanned atomic.Int64
	prefSkipped atomic.Int64

	// Per-slot chunk counts (slot 0 aggregates submitting goroutines, slot
	// w ≥ 1 the w-th pool worker), flushed alongside the aggregate counters
	// on the way out of participate — once per participant per phase, so the
	// claim path stays counter-free. Padded so concurrent flushes from
	// different slots do not share a cache line. The spread across slots is
	// the scheduler's load-balance figure (see WorkerChunks); the scaling
	// experiment (benchtab E18) reports it per GOMAXPROCS level.
	slotChunks []paddedCount

	// phasePool recycles phase descriptors (including their span arrays) so
	// steady-state submission allocates nothing. See phase.reset for why
	// recycling is safe with straggling participants.
	phasePool sync.Pool
}

// paddedCount is an atomic counter alone on its cache line.
type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

// PoolStats is a point-in-time snapshot of a Pool's scheduler counters. All
// fields are cumulative since the pool was created; consumers take deltas.
// Phases counts every parallel phase issued through a Ctx on this pool
// (including short ones executed inline by the submitter); PooledPhases the
// subset fanned out to the workers. GrainSum accumulates one chosen-grain
// sample per phase, so GrainSum/Phases is the mean grain. QueueSum/QueueMax
// sample the number of concurrently active phases at each submit — the
// scheduler's queue occupancy under MatchBatch-style pipelining.
// PrefilterScanned/PrefilterSkipped count text positions screened by the
// bit-parallel prefilter and the subset skipped by the cascade; they are
// execution statistics with no Work/Depth counterpart.
type PoolStats struct {
	Phases           int64
	PooledPhases     int64
	Chunks           int64
	Steals           int64
	Parks            int64
	Unparks          int64
	GrainSum         int64
	QueueSum         int64
	QueueMax         int64
	PrefilterScanned int64
	PrefilterSkipped int64
}

// Stats snapshots the pool's scheduler counters. It is cheap enough to call
// per scrape (a handful of atomic loads plus one mutex acquisition) and safe
// at any time, including while phases are in flight.
func (p *Pool) Stats() PoolStats {
	s := PoolStats{
		Phases:           p.phases.Load(),
		PooledPhases:     p.pooled.Load(),
		Chunks:           p.chunks.Load(),
		Steals:           p.steals.Load(),
		GrainSum:         p.grainSum.Load(),
		PrefilterScanned: p.prefScanned.Load(),
		PrefilterSkipped: p.prefSkipped.Load(),
	}
	p.mu.Lock()
	s.Parks = p.parks
	s.Unparks = p.unparks
	s.QueueSum = p.queueSum
	s.QueueMax = p.queueMax
	p.mu.Unlock()
	return s
}

// WorkerChunks snapshots the cumulative chunks retired by each pool slot:
// index 0 aggregates every submitting goroutine, index w ≥ 1 the w-th
// long-lived worker. Entries sum to Stats().Chunks. Like the other scheduler
// counters the slots only advance while the observability layer is enabled;
// they live outside PoolStats so the snapshot struct stays comparable.
//
// The spread across slots is the pool's load-balance figure: under work
// stealing a healthy pool retires chunks roughly evenly, while a
// near-serialized phase mix concentrates them on slot 0.
func (p *Pool) WorkerChunks() []int64 {
	out := make([]int64, len(p.slotChunks))
	for i := range p.slotChunks {
		out[i] = p.slotChunks[i].n.Load()
	}
	return out
}

// NewPool returns a pool of the given width; procs <= 0 selects
// runtime.GOMAXPROCS(0). The pool starts procs−1 parked workers immediately.
// Pools returned by NewPool should be Closed when no longer needed; the
// process-wide pools returned by Shared live forever.
func NewPool(procs int) *Pool {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	p := &Pool{procs: procs}
	p.cond = sync.NewCond(&p.mu)
	p.slotChunks = make([]paddedCount, procs)
	for w := 1; w < procs; w++ {
		go p.worker(w)
	}
	return p
}

// Procs reports the pool width (maximum concurrent participants per phase).
func (p *Pool) Procs() int { return p.procs }

// Close parks the pool permanently: workers exit once the active phases
// drain. Phases must not be submitted after Close (they would execute on the
// submitter alone). Shared pools are never closed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

var (
	sharedMu sync.Mutex
	sharedPs = map[int]*Pool{}
)

// Shared returns the process-wide pool of the given width, creating it on
// first use. procs <= 0 selects runtime.GOMAXPROCS(0). Shared pools persist
// for the life of the process (their workers park between phases), so every
// Ctx of the same width reuses one warm scheduler instead of tearing worker
// sets up and down per match.
func Shared(procs int) *Pool {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if p, ok := sharedPs[procs]; ok {
		return p
	}
	p := NewPool(procs)
	sharedPs[procs] = p
	return p
}

// grainFor picks the chunk size for an n-element phase: about four chunks
// per participant for load balance, floored so per-chunk claim overhead stays
// amortized. The floor adapts to the pool width — the historic fixed floor of
// 64 serialized any phase with n < 64·procs onto a handful of workers, which
// is exactly the short-dependent-phase regime the paper's O(log m)-depth
// algorithms live in.
func (p *Pool) grainFor(n int) int {
	g := n / (4 * p.procs)
	floor := 256 / p.procs
	if floor > 64 {
		floor = 64
	}
	if floor < 8 {
		floor = 8
	}
	if g < floor {
		g = floor
	}
	return g
}

// phase is one submitted bulk-parallel step. Phases are recycled through
// Pool.phasePool; see getPhase for the publication ordering that makes reuse
// safe against straggling participants.
type phase struct {
	n     int
	grain int
	body  func(lo, hi int)
	track bool                // obs was enabled at submit; participants flush counters
	owner atomic.Pointer[Ctx] // polled for cancellation at chunk granularity

	// traced marks a submission whose Ctx carries a request trace; then
	// participants bump tsteals inline per stolen chunk (unlike the pool-wide
	// counters, which are flushed after the barrier and so could not be read
	// back per phase). Every tsteals.Add precedes that participant's last
	// chunk retirement, so the submitter's post-barrier load observes all of
	// them; tracing off costs one predictable branch per steal.
	traced  bool
	tsteals atomic.Int64

	// spans always has length Pool.procs (fixed at first use, never resliced,
	// so stale readers can iterate it without synchronization); a submission
	// using fewer slots leaves the surplus spans empty (hi = 0).
	spans     []span
	remaining atomic.Int64 // chunks not yet retired; 0 ⇒ barrier reached

	// Barrier: the participant retiring the last chunk sets done under mu and
	// broadcasts. A mutex/cond pair is used instead of a channel so the phase
	// object (and thus the barrier) is reusable without reallocation.
	mu   sync.Mutex
	cv   *sync.Cond
	done bool
}

// span is one participant's contiguous run of chunks, in chunk-index units
// (chunk i covers elements [i*grain, (i+1)*grain)). The cursor is advanced
// by CAS both by its owner and by thieves, so "deque" and "steal" are the
// same O(1) claim; padding keeps concurrently-claimed cursors off one cache
// line.
//
// hi is atomic purely for phase recycling: it is the publication flag of a
// reinitialized span (zeroed first, stored last). claim loads next before
// hi, so the only way a claim can succeed is by observing a fully published
// epoch: a post-barrier straggler either sees hi of its own epoch (dry —
// the barrier implies every cursor reached its bound) or hi = 0 mid-reinit
// (dry), or the new epoch's hi, in which case the seq-cst ordering makes
// every plain reinit write visible and the CAS makes it a legitimate
// participant of the new submission.
type span struct {
	next atomic.Int64
	hi   atomic.Int64
	_    [48]byte
}

// claim takes the next chunk of the span, returning its chunk index or -1
// when the span is dry.
func (s *span) claim() int64 {
	for {
		cur := s.next.Load()
		if cur >= s.hi.Load() {
			return -1
		}
		if s.next.CompareAndSwap(cur, cur+1) {
			return cur
		}
	}
}

// getPhase takes a recycled phase descriptor (or makes one) and
// reinitializes it for a new submission. Ordering matters — a straggler from
// the phase's previous use may still probe its spans: every span's hi is
// zeroed first (making all claims fail), the plain fields and cursors are
// set next, and each hi is stored last. Stragglers perform no writes without
// a successful claim, and a successful claim implies they observed the new
// hi and therefore every reinit write before it.
func (p *Pool) getPhase(c *Ctx, n, grain, chunks, slots int, body func(lo, hi int)) *phase {
	ph, _ := p.phasePool.Get().(*phase)
	if ph == nil {
		ph = &phase{spans: make([]span, p.procs)}
		ph.cv = sync.NewCond(&ph.mu)
	} else {
		for s := range ph.spans {
			ph.spans[s].hi.Store(0)
		}
	}
	ph.n, ph.grain, ph.body = n, grain, body
	ph.track = obs.Enabled()
	ph.traced = c.tr != nil
	ph.tsteals.Store(0)
	ph.done = false
	ph.owner.Store(c)
	ph.remaining.Store(int64(chunks))
	per, extra := chunks/slots, chunks%slots
	c0 := 0
	for s := 0; s < slots; s++ {
		cnt := per
		if s < extra {
			cnt++
		}
		ph.spans[s].next.Store(int64(c0))
		ph.spans[s].hi.Store(int64(c0 + cnt))
		c0 += cnt
	}
	return ph
}

// run executes body over [0, n) as one phase on the pool, with the submitter
// participating. It returns once every chunk has been retired, reporting how
// many chunks were stolen when the submission is traced (0 otherwise). Chunk
// starts are always multiples of grain (ExclusiveScan indexes per-chunk
// partials by lo/grain).
func (p *Pool) run(c *Ctx, n, grain int, body func(lo, hi int)) int64 {
	chunks := (n + grain - 1) / grain
	slots := p.procs
	if slots > chunks {
		slots = chunks
	}
	ph := p.getPhase(c, n, grain, chunks, slots, body)
	if ph.track {
		p.pooled.Add(1)
	}

	if slots > 1 {
		p.mu.Lock()
		p.active = append(p.active, ph)
		if ph.track {
			occ := int64(len(p.active))
			p.queueSum += occ
			if occ > p.queueMax {
				p.queueMax = occ
			}
		}
		p.mu.Unlock()
		for s := 1; s < slots; s++ {
			p.cond.Signal()
		}
	}
	p.participate(ph, 0)
	ph.mu.Lock()
	for !ph.done {
		ph.cv.Wait()
	}
	ph.mu.Unlock()
	var steals int64
	if ph.traced {
		steals = ph.tsteals.Load()
	}
	// Barrier reached: every body call has returned, so dropping the closure
	// and owner references here cannot race with a participant (post-barrier
	// stragglers can only probe span cursors, which stay dry until reuse).
	ph.body = nil
	ph.owner.Store(nil)
	p.phasePool.Put(ph)
	return steals
}

// participate claims and runs chunks of ph until none remain claimable,
// preferring the slot-th span and stealing from the rest. It detaches the
// phase from the active list on the way out, so parked workers never respin
// on a drained phase. Until a claim succeeds, only the span cursors are
// touched (the plain phase fields may belong to a recycled submission; a
// successful claim establishes the happens-before edge that makes them
// safe to read — see span).
func (p *Pool) participate(ph *phase, slot int) {
	ns := len(ph.spans)
	own := slot % ns
	// Chunk and steal counts are aggregated locally and flushed with two
	// atomic adds on the way out, so the per-chunk claim path carries no
	// shared-counter traffic. track is snapshotted at the first successful
	// claim (the flush itself runs after the barrier, when ph may already be
	// reinitialized for another submission).
	var chunks, steals int64
	track := false
	defer func() {
		if chunks > 0 && track {
			p.chunks.Add(chunks)
			p.steals.Add(steals)
			p.slotChunks[own].n.Add(chunks)
		}
	}()
	for {
		stolen := false
		ci := ph.spans[own].claim()
		for d := 1; ci < 0 && d < ns; d++ {
			ci = ph.spans[(own+d)%ns].claim()
			stolen = ci >= 0
		}
		if ci < 0 {
			p.detach(ph)
			return
		}
		if chunks == 0 {
			track = ph.track
		}
		chunks++
		if stolen {
			steals++
			if ph.traced {
				ph.tsteals.Add(1)
			}
		}
		lo := int(ci) * ph.grain
		hi := lo + ph.grain
		if hi > ph.n {
			hi = ph.n
		}
		// Cancellation is polled per chunk: a canceled phase drains its
		// remaining chunks without executing them, so the barrier is still
		// reached and the submitter unblocks within O(grain) element work.
		if !ph.owner.Load().Canceled() {
			ph.body(lo, hi)
		}
		if ph.remaining.Add(-1) == 0 {
			ph.mu.Lock()
			ph.done = true
			ph.mu.Unlock()
			ph.cv.Broadcast()
		}
	}
}

// detach removes ph from the active list once a participant finds it dry. A
// straggler from a previous submission can in principle detach a phase that
// was just resubmitted (it observed the empty mid-reinit spans); that only
// costs the new submission its helpers — the submitter always participates
// and completes the phase alone, so the barrier is still reached.
func (p *Pool) detach(ph *phase) {
	p.mu.Lock()
	for i, a := range p.active {
		if a == ph {
			last := len(p.active) - 1
			p.active[i] = p.active[last]
			p.active[last] = nil
			p.active = p.active[:last]
			break
		}
	}
	p.mu.Unlock()
}

// worker is the long-lived loop of one pool goroutine: park until phases are
// active, help drain one, repeat.
func (p *Pool) worker(id int) {
	for {
		p.mu.Lock()
		for !p.closed && len(p.active) == 0 {
			if obs.Enabled() {
				p.parks++
			}
			p.cond.Wait()
			if obs.Enabled() {
				p.unparks++
			}
		}
		if len(p.active) == 0 { // closed and drained
			p.mu.Unlock()
			return
		}
		ph := p.active[id%len(p.active)]
		p.mu.Unlock()
		// Inherit the submitter's pprof labels (engine, cascade level) so
		// profiles attribute worker time to the operation being helped.
		// Labels are only ever set when obs is enabled; a worker keeps its
		// last labels while parked, which costs no CPU samples. The owner
		// pointer may belong to a recycled submission or be nil (phase parked
		// in the free list) — labels are advisory, so any snapshot is fine.
		if owner := ph.owner.Load(); owner != nil {
			if lp := owner.labelCtx.Load(); lp != nil {
				pprof.SetGoroutineLabels(*lp)
			}
		}
		p.participate(ph, id)
	}
}

// SpawnForChunk is the pre-pool executor: it spawns a fresh goroutine set
// for the single phase and joins them on a WaitGroup, with the historic
// fixed grain floor of 64. It is retained as the baseline that
// BenchmarkPhaseOverhead and cmd/benchtab's scheduler experiment compare the
// persistent pool against; engines no longer use it.
func SpawnForChunk(procs, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	grain := n / (4 * procs)
	if grain < 64 {
		grain = 64
	}
	if n <= grain || procs == 1 {
		body(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := procs
	if max := (n + grain - 1) / grain; workers > max {
		workers = max
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}
