// Package pram provides a work-depth parallel execution engine that stands in
// for the arbitrary CRCW PRAM of Muthukrishnan & Palem (SPAA 1993).
//
// The paper's algorithms consist entirely of bulk-synchronous phases: every
// PRAM step applies a uniform operation to each element of an array. This
// package executes such phases on a persistent work-stealing worker pool
// (Pool) and instruments them with two counters that reproduce the quantities
// the paper's theorems bound:
//
//   - Work:  the total number of element operations executed, summed over all
//     phases (the PRAM "processors × time" product).
//   - Depth: the number of dependent parallel phases (the PRAM parallel time,
//     up to constant factors per phase).
//
// The counters are charged per phase regardless of how the pool schedules the
// chunks (and regardless of cancellation), so Work/Depth figures depend only
// on the algorithm, never on grain sizes or pool width.
//
// A Ctx additionally carries a context.Context that is polled at chunk
// granularity: cancelling it makes every running and subsequent phase drain
// without executing bodies, so an algorithm checking Ctx.Err between phases
// aborts within one phase of the cancellation. All entry points are safe for
// use from a single algorithm goroutine; the engine itself fans work out
// internally, and independent Ctxs may share one Pool concurrently.
package pram

import (
	"context"
	"errors"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"pardict/internal/obs"
	"pardict/internal/trace"
)

// ErrCanceled is reported by Ctx.Err once the context carried by the Ctx has
// been canceled; every parallel phase issued afterwards is an accounting
// no-op.
var ErrCanceled = errors.New("pram: execution canceled")

// Ctx carries the scheduler, the cancellation context, and the
// instrumentation counters for one algorithm execution. The zero value is not
// usable; call New or NewCtx.
type Ctx struct {
	pool     *Pool
	gctx     context.Context
	done     <-chan struct{} // gctx.Done(), cached (nil when not cancelable)
	canceled atomic.Bool     // sticky: set on first observation of gctx cancellation

	work  atomic.Int64
	depth atomic.Int64

	// labelCtx carries the pprof-labeled context of the operation this Ctx
	// executes (engine=…, level=…), set by the engine wrappers via
	// SetLabelContext and refined per cascade level via LabelLevel. Pool
	// workers re-apply it so profiles attribute their chunk time to the
	// operation; nil (the default, and always when obs is disabled) makes
	// labeling a single pointer-load no-op.
	labelCtx atomic.Pointer[context.Context]

	// tr, when non-nil, is the sampled request trace this execution records
	// phase spans into, set once by the engine wrappers (piggybacking on the
	// same per-operation plumbing as labelCtx) before any phase is submitted.
	// Nil — the default, and always on the MatchInto hot path — makes every
	// trace hook a single nil check, keeping the traced-off execution
	// byte-identical in Work/Depth and allocation-free.
	tr *trace.T
}

// New returns a Ctx that runs parallel phases on the process-wide shared pool
// of width procs (procs <= 0 selects runtime.GOMAXPROCS(0)) and is never
// canceled. It is the compatibility constructor; cancelable executions use
// NewCtx.
func New(procs int) *Ctx {
	return NewCtx(nil, Shared(procs))
}

// NewCtx returns a Ctx bound to the given context and pool. A nil gctx means
// "never canceled"; a nil pool selects the shared GOMAXPROCS-wide pool.
func NewCtx(gctx context.Context, pool *Pool) *Ctx {
	if pool == nil {
		pool = Shared(0)
	}
	c := &Ctx{pool: pool, gctx: gctx}
	if gctx != nil {
		c.done = gctx.Done()
	}
	return c
}

// Pool returns the scheduler this context submits phases to.
func (c *Ctx) Pool() *Pool { return c.pool }

// SetLabelContext records a pprof-labeled context for this execution. Pool
// workers helping its phases apply the labels to themselves, so CPU profiles
// attribute their time alongside the submitter's. Engines call this once per
// operation with the context produced by obs.Do; passing a context with no
// labels is harmless.
func (c *Ctx) SetLabelContext(lctx context.Context) {
	if lctx == nil {
		return
	}
	c.labelCtx.Store(&lctx)
}

// LabelLevel refines the execution's pprof labels with the current cascade
// level (the k of the paper's O(log m) shrink-and-spawn levels) so profiles
// split engine time per level. It is a no-op unless SetLabelContext was
// called (i.e. obs is enabled and the engine opted in); then it relabels the
// calling goroutine and the phases submitted afterwards.
func (c *Ctx) LabelLevel(k int) {
	lp := c.labelCtx.Load()
	if lp == nil {
		return
	}
	lctx := pprof.WithLabels(*lp, pprof.Labels("level", obs.LevelString(k)))
	c.labelCtx.Store(&lctx)
	pprof.SetGoroutineLabels(lctx)
}

// SetTrace attaches a sampled request trace: every phase this Ctx fans out
// afterwards records a "phase" span (element count, chunks stolen) into it.
// Must be called before phases are submitted (it is a plain store read by the
// submitting goroutine); a nil trace — the default — disables recording.
func (c *Ctx) SetTrace(t *trace.T) { c.tr = t }

// Trace returns the trace attached via SetTrace, or nil.
func (c *Ctx) Trace() *trace.T { return c.tr }

// Procs reports the worker-pool width this context fans out to.
func (c *Ctx) Procs() int { return c.pool.procs }

// Canceled reports whether the context carried by c has been canceled. It is
// cheap (one atomic load plus, until cancellation is first observed, one
// non-blocking channel poll) and is the check the pool performs per chunk;
// engines use it to break out of sequential glue between phases. The result
// is sticky: once true, always true.
func (c *Ctx) Canceled() bool {
	if c.canceled.Load() {
		return true
	}
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		c.canceled.Store(true)
		return true
	default:
		return false
	}
}

// Err returns ErrCanceled once the context carried by c has been canceled,
// else nil. Engines check it between dependent phases to abort early.
func (c *Ctx) Err() error {
	if c.Canceled() {
		return ErrCanceled
	}
	return nil
}

// Cause returns the underlying context error (context.Canceled or
// context.DeadlineExceeded) after cancellation, else nil.
func (c *Ctx) Cause() error {
	if c.gctx == nil {
		return nil
	}
	return c.gctx.Err()
}

// Work returns the accumulated work counter (element operations).
func (c *Ctx) Work() int64 { return c.work.Load() }

// Depth returns the accumulated depth counter (dependent parallel phases).
func (c *Ctx) Depth() int64 { return c.depth.Load() }

// ResetStats zeroes the work and depth counters.
func (c *Ctx) ResetStats() {
	c.work.Store(0)
	c.depth.Store(0)
}

// AddWork charges n units of work without running anything. Algorithms use it
// for bookkeeping done outside a parallel phase (e.g. table construction via
// a library call).
func (c *Ctx) AddWork(n int64) { c.work.Add(n) }

// AddDepth charges d units of depth without running anything.
func (c *Ctx) AddDepth(d int64) { c.depth.Add(d) }

// For runs body(i) for every i in [0, n) as one parallel phase, charging n
// work and 1 depth. The body must not depend on iteration order and must not
// write to data read by other iterations of the same phase (the CRCW
// concurrent writes used by the paper are expressed with atomics or
// last-writer-wins stores by the caller).
func (c *Ctx) For(n int, body func(i int)) {
	c.ForChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForEach is For for phases of few, expensive iterations: every index is its
// own chunk, so a phase of a handful of heavy bodies spreads over every
// participant and ends within one body of balance, where For's grain would
// run up to a grain of them back to back on one participant.
func (c *Ctx) ForEach(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	c.work.Add(int64(n))
	c.depth.Add(1)
	c.forChunks("phase", n, 1, func(i, _ int) { body(i) })
}

// ForChunk runs body(lo, hi) over a partition of [0, n) as one parallel
// phase, charging n work and 1 depth. It is the loop-blocked variant of For
// for bodies that benefit from chunk-local state. Chunk starts are always
// multiples of the phase grain. Once the Ctx is canceled the phase is an
// accounting no-op (charges are made, bodies are not run).
func (c *Ctx) ForChunk(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	c.work.Add(int64(n))
	c.depth.Add(1)
	c.ForChunkUncounted("phase", n, body)
}

// ForChunkUncounted runs body(lo, hi) over a partition of [0, n) as one
// parallel phase that charges NO work and NO depth, recording a trace span
// called name. It exists for execution-layer passes outside the counted
// algorithm — the prefilter screen ("prefilter") and a filtered match's
// window pass and fill ("phase"), whose unfiltered cost the match charges
// itself — so the Work/Depth figures of a filtered match stay byte-identical
// to the unfiltered one. Scheduling, chunking, cancellation and the
// scheduler statistics behave exactly like ForChunk.
func (c *Ctx) ForChunkUncounted(name string, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	c.forChunks(name, n, c.pool.grainFor(n), body)
}

// Chunks reports how a phase over n elements is cut: chunk i covers
// [i·grain, min((i+1)·grain, n)), so a body can index per-chunk partials by
// lo/grain. A phase over n ≤ grain elements is the one chunk [0, n).
func (c *Ctx) Chunks(n int) (grain, chunks int) {
	grain = c.pool.grainFor(n)
	return grain, (n + grain - 1) / grain
}

// forChunks runs body over [0, n) in chunks of grain as one phase traced as
// name: inline when one chunk covers it or the pool has one participant,
// on the pool otherwise.
func (c *Ctx) forChunks(name string, n, grain int, body func(lo, hi int)) {
	if obs.Enabled() {
		c.pool.phases.Add(1)
		c.pool.grainSum.Add(int64(grain))
	}
	if n <= grain {
		// Inline phases are below one chunk of work; spanning each would
		// flood the trace's fixed span budget with sub-grain entries, so only
		// fanned-out phases are recorded.
		if !c.Canceled() {
			body(0, n)
		}
		return
	}
	sp := c.tr.StartSpan(name, int64(n))
	if c.pool.procs == 1 {
		// Inline execution, still at chunk granularity so cancellation
		// aborts a long phase partway through.
		for lo := 0; lo < n; lo += grain {
			if c.Canceled() {
				break
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
		sp.End()
		return
	}
	sp.EndArg(c.pool.run(c, n, grain, body))
}

// NotePrefilter records prefilter effectiveness on the pool's scheduler
// counters: scanned text positions and the subset the filter let the cascade
// skip. Like the other scheduler statistics it is obs-gated and entirely
// outside the Work/Depth model.
func (c *Ctx) NotePrefilter(scanned, skipped int64) {
	if !obs.Enabled() {
		return
	}
	c.pool.prefScanned.Add(scanned)
	c.pool.prefSkipped.Add(skipped)
}

// Phase charges one unit of depth and w units of work for a step executed
// inline by f. It exists so sequential glue (e.g. a single table lookup per
// recursion level) is reflected in the depth accounting. Canceled contexts
// skip f.
func (c *Ctx) Phase(w int64, f func()) {
	c.depth.Add(1)
	c.work.Add(w)
	if c.Canceled() {
		return
	}
	f()
}

// ReduceInt64 computes the reduction of f over [0, n) with the associative
// combiner comb and identity id, in one parallel phase (n work, 1 depth; the
// O(log n) combining tree is folded into the phase as the paper's theorems
// do for constant-fan-in reductions).
func (c *Ctx) ReduceInt64(n int, id int64, f func(i int) int64, comb func(a, b int64) int64) int64 {
	if n <= 0 {
		return id
	}
	var mu sync.Mutex
	acc := id
	c.ForChunk(n, func(lo, hi int) {
		local := id
		for i := lo; i < hi; i++ {
			local = comb(local, f(i))
		}
		mu.Lock()
		acc = comb(acc, local)
		mu.Unlock()
	})
	return acc
}

// MaxInt returns the maximum of f over [0, n), or def when n <= 0. Each
// index is evaluated exactly once (math.MinInt64 is the reduction identity),
// so effectful or expensive bodies are safe.
func (c *Ctx) MaxInt(n int, def int, f func(i int) int) int {
	if n <= 0 {
		return def
	}
	r := c.ReduceInt64(n, math.MinInt64, func(i int) int64 { return int64(f(i)) },
		func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
	return int(r)
}

// seqScanThreshold is the historic fixed grain floor. ExclusiveScan keeps it
// as the sequential/chunked decision point — independent of the pool's
// adaptive grain and processor count — so the 1-phase vs 2-phase Work/Depth
// accounting depends on n alone, on every pool.
const seqScanThreshold = 64

// ExclusiveScan replaces xs with its exclusive prefix sums and returns the
// total. It runs as two parallel phases over the chunked decomposition
// (2n work, 2 depth), the standard work-efficient scan; short inputs run as
// one sequential phase (n work, 1 depth). A one-processor pool runs the two
// phases inline, as it runs any phase.
func (c *Ctx) ExclusiveScan(xs []int64) int64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n <= seqScanThreshold {
		c.work.Add(int64(n))
		c.depth.Add(1)
		if c.Canceled() {
			return 0
		}
		var sum int64
		for i := range xs {
			v := xs[i]
			xs[i] = sum
			sum += v
		}
		return sum
	}
	grain, chunks := c.Chunks(n)
	sums := make([]int64, chunks)
	c.ForChunk(n, func(lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		sums[lo/grain] = s
	})
	var total int64
	for i, s := range sums {
		sums[i] = total
		total += s
	}
	c.ForChunk(n, func(lo, hi int) {
		s := sums[lo/grain]
		for i := lo; i < hi; i++ {
			v := xs[i]
			xs[i] = s
			s += v
		}
	})
	return total
}

// ExclusiveScanInt is ExclusiveScan for int slices.
func (c *Ctx) ExclusiveScanInt(xs []int) int {
	n := len(xs)
	if n == 0 {
		return 0
	}
	tmp := make([]int64, n)
	c.For(n, func(i int) { tmp[i] = int64(xs[i]) })
	total := c.ExclusiveScan(tmp)
	c.For(n, func(i int) { xs[i] = int(tmp[i]) })
	return int(total)
}

// Fill sets xs[i] = v for all i in one parallel phase.
func Fill[T any](c *Ctx, xs []T, v T) {
	c.For(len(xs), func(i int) { xs[i] = v })
}

// Copy copies src into dst (which must be at least as long) in one phase.
func Copy[T any](c *Ctx, dst, src []T) {
	c.For(len(src), func(i int) { dst[i] = src[i] })
}
