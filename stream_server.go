package pardict

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"pardict/internal/obs"
	"pardict/internal/pram"
	"pardict/internal/streamcore"
	"pardict/internal/trace"
)

// ErrStreamServerClosed is returned by StreamServer.Open and by ServerStream
// operations once the owning server has been closed.
var ErrStreamServerClosed = errors.New("pardict: stream server closed")

// Default knobs for NewStreamServer; see WithStreamQueue/WithStreamBatch.
const (
	defaultStreamQueue = 256 << 10
	defaultStreamBatch = 64 << 10
)

// streamLatencyBounds buckets the chunk accept→scan-complete latency
// histogram: 1µs doubling up to ~4s.
var streamLatencyBounds = obs.ExpBounds(1_000, 2, 23)

// batchStreamBounds buckets the streams-per-batch histogram: 1 doubling up
// to 32k streams in one phase.
var batchStreamBounds = obs.ExpBounds(1, 2, 16)

// StreamServerOption configures NewStreamServer.
type StreamServerOption func(*streamServerConfig)

type streamServerConfig struct {
	queueBytes int
	batchBytes int
}

// WithStreamQueue bounds the bytes buffered per stream awaiting a scan phase
// (default 256 KiB) — the backpressure knob. A Feed that would exceed the
// bound blocks until the dispatcher drains the queue (or its context dies);
// at least one chunk is always admitted, so a single oversized chunk cannot
// wedge a stream.
func WithStreamQueue(n int) StreamServerOption {
	return func(c *streamServerConfig) {
		if n > 0 {
			c.queueBytes = n
		}
	}
}

// WithStreamBatch bounds the bytes one stream may scan within a single
// batched phase (default 64 KiB) — the fairness knob. A hot stream's backlog
// is processed in slices across phases, so it shares every phase with the
// other ready streams instead of starving them. The bound is chunk-granular:
// a phase always takes at least one queued chunk, so a single chunk larger
// than the bound is scanned whole.
func WithStreamBatch(n int) StreamServerOption {
	return func(c *streamServerConfig) {
		if n > 0 {
			c.batchBytes = n
		}
	}
}

// StreamServer multiplexes many concurrent input streams over one shared
// immutable Matcher. Each stream gets its own StreamMatcher-equivalent
// session (same emit semantics, same exactly-once guarantees), but instead
// of every Feed scheduling its own work, a single dispatcher coalesces the
// ready chunks of all streams into batched parallel phases on the matcher's
// scheduler pool — one pool entry per batch, not per Feed. That keeps
// thousands of mostly-idle streams cheap: per-stream cost is O(MaxLen) state
// plus a queue, and scan work is amortized across whole batches.
//
// Ordering: chunks of one stream are scanned and emitted in FIFO order;
// emits for one stream never run concurrently with each other. Emits for
// different streams do run concurrently (on pool workers), so emit callbacks
// must be safe with respect to state shared across streams.
type StreamServer struct {
	m    *Matcher
	core *streamcore.Core
	pool *pram.Pool
	cfg  streamServerConfig

	mu       sync.Mutex
	cond     *sync.Cond
	ready    []*ServerStream // streams with queued work, FIFO; no duplicates
	closed   bool
	sessions int
	closedCh chan struct{} // closed when Close begins: unblocks feeders/waiters
	done     chan struct{} // closed when the dispatcher has drained and exited

	// Counters and distributions (see StreamServerStats).
	opened       obs.Counter
	closedCount  obs.Counter
	feeds        obs.Counter
	fedBytes     obs.Counter
	chunks       obs.Counter
	batches      obs.Counter
	batchStreams obs.Counter
	batchBytes   obs.Counter
	queuedBytes  obs.Gauge
	carryBytes   obs.Gauge
	latency      *obs.Histogram
	batchHist    *obs.Histogram
}

// NewStreamServer returns a running multiplexed streaming front end over m.
// The server shares m's scheduler pool (WithPool/WithParallelism on the
// matcher) and must be Closed when no longer needed to stop its dispatcher.
func (m *Matcher) NewStreamServer(opts ...StreamServerOption) *StreamServer {
	cfg := streamServerConfig{queueBytes: defaultStreamQueue, batchBytes: defaultStreamBatch}
	for _, o := range opts {
		o(&cfg)
	}
	srv := &StreamServer{
		m:         m,
		core:      m.streamCore(),
		pool:      m.cfg.schedulerPool(),
		cfg:       cfg,
		closedCh:  make(chan struct{}),
		done:      make(chan struct{}),
		latency:   obs.NewHistogram(streamLatencyBounds),
		batchHist: obs.NewHistogram(batchStreamBounds),
	}
	srv.cond = sync.NewCond(&srv.mu)
	go srv.dispatch()
	return srv
}

// ServerStream is one stream on a StreamServer: the server-side session plus
// a bounded chunk queue. Feeds enqueue; the server's dispatcher scans.
//
// A ServerStream expects one feeder: concurrent FeedContext calls on the
// same stream are safe but their relative chunk order is unspecified (as it
// would be for any concurrent writers to one pipe).
type ServerStream struct {
	srv  *StreamServer
	ses  *streamcore.Session
	emit func(pos int64, pattern int)

	mu      sync.Mutex
	queue   []serverChunk
	qBytes  int
	closing bool          // Close requested: no more feeds
	flushed bool          // tail emitted; stream fully done
	space   chan struct{} // capacity-1 wakeup for a feeder blocked on the queue bound
	done    chan struct{} // closed when flushed

	inReady bool // guarded by srv.mu: stream is in srv.ready
}

type serverChunk struct {
	data  []byte
	stamp int64 // enqueue time (UnixNano) for the latency histogram; 0 = unstamped
}

// Open creates a new stream on the server. Matches are reported to emit
// exactly as Matcher.Stream would: (absolute offset, pattern index),
// increasing offsets, longest pattern per position, each finalized match
// exactly once. emit runs on the server's scheduler workers.
func (srv *StreamServer) Open(emit func(pos int64, pattern int)) (*ServerStream, error) {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil, ErrStreamServerClosed
	}
	srv.sessions++
	srv.mu.Unlock()
	srv.opened.Inc()
	return &ServerStream{
		srv:   srv,
		ses:   srv.core.NewSession(),
		emit:  emit,
		space: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}, nil
}

// Feed is FeedContext under a context that is never canceled.
func (st *ServerStream) Feed(chunk []byte) error {
	return st.FeedContext(context.Background(), chunk)
}

// FeedContext appends chunk to the stream. The chunk is copied and queued;
// the server scans it in a later batched phase, preserving per-stream FIFO
// order. When the stream's queue is at its bound (WithStreamQueue) the call
// blocks until the dispatcher catches up. Acceptance is atomic per chunk: on
// cancellation (error wrapping ErrCanceled) the chunk was NOT accepted and
// every previously accepted byte is retained, so the caller may retry the
// same chunk and the stream resumes cleanly. Once the server is closed,
// feeds return ErrStreamServerClosed; a feed racing the server's Close may
// be accepted but no longer scanned.
func (st *ServerStream) FeedContext(gctx context.Context, chunk []byte) error {
	if len(chunk) == 0 {
		st.mu.Lock()
		closing := st.closing
		st.mu.Unlock()
		if closing {
			return io.ErrClosedPipe
		}
		return nil
	}
	srv := st.srv
	for {
		if cerr := gctx.Err(); cerr != nil {
			return fmt.Errorf("%w: %w", ErrCanceled, cerr)
		}
		select {
		case <-srv.closedCh:
			return ErrStreamServerClosed
		default:
		}
		st.mu.Lock()
		switch {
		case st.closing:
			st.mu.Unlock()
			return io.ErrClosedPipe
		case st.qBytes < srv.cfg.queueBytes: // may overshoot by one chunk: progress for any size
			var stamp int64
			if obs.Enabled() {
				stamp = time.Now().UnixNano()
			}
			st.queue = append(st.queue, serverChunk{data: append([]byte(nil), chunk...), stamp: stamp})
			st.qBytes += len(chunk)
			st.mu.Unlock()
			srv.feeds.Inc()
			srv.fedBytes.Add(int64(len(chunk)))
			srv.queuedBytes.Add(int64(len(chunk)))
			srv.markReady(st)
			return nil
		}
		st.mu.Unlock()
		select {
		case <-st.space:
		case <-srv.closedCh:
			return ErrStreamServerClosed
		case <-gctx.Done():
			return fmt.Errorf("%w: %w", ErrCanceled, gctx.Err())
		}
	}
}

// Queued reports the bytes and chunks currently buffered on this stream
// awaiting a scan phase (its queue depth).
func (st *ServerStream) Queued() (bytes, chunks int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.qBytes, len(st.queue)
}

// Close is CloseContext under a context that is never canceled.
func (st *ServerStream) Close() error {
	return st.CloseContext(context.Background())
}

// CloseContext ends the stream: queued chunks are drained, the held-back
// tail is flushed (emitting its matches), and the call returns once emission
// is complete. Closing is idempotent. On cancellation the call stops waiting
// but the close itself proceeds asynchronously; once the server itself is
// closed with the stream still unflushed, ErrStreamServerClosed is returned.
func (st *ServerStream) CloseContext(gctx context.Context) error {
	srv := st.srv
	st.mu.Lock()
	first := !st.closing
	st.closing = true
	st.mu.Unlock()
	if first {
		srv.markReady(st)
		// Like FeedContext, a context dead on entry does not wait: the
		// dispatcher may already have flushed, and the select below would
		// pick between the two at random.
		if cerr := gctx.Err(); cerr != nil {
			return fmt.Errorf("%w: %w", ErrCanceled, cerr)
		}
	}
	select {
	case <-st.done:
		return nil
	case <-gctx.Done():
		return fmt.Errorf("%w: %w", ErrCanceled, gctx.Err())
	case <-srv.done:
		select {
		case <-st.done:
			return nil
		default:
			return ErrStreamServerClosed
		}
	}
}

// markReady queues st for the next dispatch phase (once).
func (srv *StreamServer) markReady(st *ServerStream) {
	srv.mu.Lock()
	if !st.inReady {
		st.inReady = true
		srv.ready = append(srv.ready, st)
		srv.cond.Signal()
	}
	srv.mu.Unlock()
}

// dispatch is the server's single scheduling loop: collect every ready
// stream, run one batched parallel phase over them on the shared pool, and
// repeat. Chunks that arrive while a phase runs accumulate and form the next
// batch — natural coalescing under load, immediate tiny phases when idle.
// Each stream is its own chunk of the phase (a stream's share is a scan of
// up to a batch budget of bytes, far above a chunk claim), so a batch of
// any size spreads over every participant and ends within one stream's
// scan of balance. After Close is requested the loop keeps going until the
// ready list is empty (queued work is drained), then exits.
func (srv *StreamServer) dispatch() {
	defer close(srv.done)
	for {
		srv.mu.Lock()
		for len(srv.ready) == 0 && !srv.closed {
			srv.cond.Wait()
		}
		if len(srv.ready) == 0 { // closed and drained
			srv.mu.Unlock()
			return
		}
		batch := srv.ready
		srv.ready = nil
		for _, st := range batch {
			st.inReady = false
		}
		srv.mu.Unlock()

		srv.batches.Inc()
		srv.batchStreams.Add(int64(len(batch)))
		srv.batchHist.Observe(int64(len(batch)))
		// Batches are traced through the Default recorder (there is no inbound
		// request context on the dispatcher loop to carry one): one trace per
		// sampled batch, with the phase fan-out plus each stream's enqueue-wait
		// and scan spans inside it.
		tr := trace.Start("stream.batch")
		tr.SetArg(int64(len(batch)))
		ctx := pram.GetCtx(srv.pool)
		ctx.SetTrace(tr)
		ctx.ForEach(len(batch), func(i int) { batch[i].process(tr) })
		pram.PutCtx(ctx)
		tr.Finish()
	}
}

// process scans one stream's share of the current phase, recording per-chunk
// enqueue-wait and scan spans into tr (nil when the batch was not sampled).
// It is only ever invoked from dispatch phases, and a stream appears at most
// once per batch, so calls for one stream are serialized — the session needs
// no lock.
func (st *ServerStream) process(tr *trace.T) {
	srv := st.srv
	st.mu.Lock()
	k, taken := 0, 0
	for k < len(st.queue) && taken < srv.cfg.batchBytes {
		taken += len(st.queue[k].data)
		k++
	}
	take := st.queue[:k:k]
	st.queue = st.queue[k:]
	st.qBytes -= taken
	st.mu.Unlock()

	pend0 := st.ses.Pending()
	for _, c := range take {
		var scanStart int64
		if tr != nil {
			scanStart = time.Now().UnixNano()
			if c.stamp != 0 {
				// The wait span predates the batch trace itself (the chunk was
				// stamped at enqueue); offsets render negative, which is the
				// honest picture of queueing delay.
				tr.AddSpan("stream.wait", int64(len(c.data)), c.stamp, scanStart)
			}
		}
		st.ses.Buffer(c.data)
		st.ses.Scan(0)
		st.ses.EmitFinal(st.emit)
		if tr != nil {
			tr.AddSpan("stream.scan", int64(len(c.data)), scanStart, time.Now().UnixNano())
		}
		if c.stamp != 0 {
			srv.latency.Observe(time.Now().UnixNano() - c.stamp)
		}
	}
	// The queue's backing array outlives this call (st.queue is a suffix of
	// it, and a zero-capacity suffix still points at its start), so drop the
	// scanned copies: an idle stream must not pin its last chunk.
	clear(take)
	if k > 0 {
		srv.chunks.Add(int64(k))
		srv.batchBytes.Add(int64(taken))
		srv.queuedBytes.Add(int64(-taken))
		select {
		case st.space <- struct{}{}:
		default:
		}
	}

	st.mu.Lock()
	leftover := len(st.queue) > 0
	finish := st.closing && !leftover && !st.flushed
	if finish {
		st.flushed = true
	}
	st.mu.Unlock()
	if finish {
		st.ses.Scan(0)
		st.ses.Flush(st.emit)
	}
	srv.carryBytes.Add(int64(st.ses.Pending() - pend0))
	if finish {
		// Account for the close before waking Close, so Stats read after
		// Close returns already counts it.
		srv.closedCount.Inc()
		srv.mu.Lock()
		srv.sessions--
		srv.mu.Unlock()
		close(st.done)
	}
	if leftover {
		srv.markReady(st)
	}
}

// Close stops the server: new streams and feeds are refused, every chunk
// already queued is scanned (and closing streams flushed), then the
// dispatcher exits and Close returns. Streams never closed keep their
// hold-back tail unemitted, exactly as an abandoned StreamMatcher would.
func (srv *StreamServer) Close() error {
	srv.mu.Lock()
	if !srv.closed {
		srv.closed = true
		close(srv.closedCh)
		srv.cond.Signal()
	}
	srv.mu.Unlock()
	<-srv.done
	return nil
}

// HistogramSnapshot is a point-in-time view of a fixed-bound histogram:
// Counts[i] observations were ≤ Bounds[i] (Counts has one trailing overflow
// bucket), Count observations in total, summing to Sum.
type HistogramSnapshot struct {
	Bounds []int64
	Counts []int64
	Count  int64
	Sum    int64
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) of the
// observed values: the bound of the bucket where the cumulative count
// crosses q·Count. Returns 0 with no observations; the overflow bucket
// reports the largest bound. It delegates to the shared obs implementation.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	return obs.HistSnapshot{Bounds: h.Bounds, Counts: h.Counts, Count: h.Count}.Quantile(q)
}

// Mean returns the mean observed value (0 with no observations).
func (h HistogramSnapshot) Mean() float64 {
	return obs.HistSnapshot{Count: h.Count, Sum: h.Sum}.Mean()
}

func histSnapshot(h *obs.Histogram) HistogramSnapshot {
	s := h.Snapshot()
	return HistogramSnapshot{Bounds: s.Bounds, Counts: s.Counts, Count: s.Count, Sum: s.Sum}
}

// StreamServerStats is a point-in-time snapshot of a StreamServer.
type StreamServerStats struct {
	Sessions int   // streams currently open
	Opened   int64 // streams ever opened
	Closed   int64 // streams fully closed (tail flushed)

	Feeds    int64 // chunks accepted
	FedBytes int64 // bytes accepted
	Chunks   int64 // chunks scanned
	Batches  int64 // dispatch phases executed

	BatchStreams int64 // Σ streams per batch (mean batch size = BatchStreams/Batches)
	BatchBytes   int64 // Σ bytes scanned across batches

	QueuedBytes int64 // bytes accepted but not yet scanned, all streams
	CarryBytes  int64 // hold-back bytes across open sessions

	// BatchSize distributes streams-per-batch; Latency distributes chunk
	// accept→scan-complete time in nanoseconds (populated while the obs
	// layer is enabled). Both are outside the engines' Work/Depth cost model.
	BatchSize HistogramSnapshot
	Latency   HistogramSnapshot
}

// Stats snapshots the server's counters.
func (srv *StreamServer) Stats() StreamServerStats {
	srv.mu.Lock()
	sessions := srv.sessions
	srv.mu.Unlock()
	return StreamServerStats{
		Sessions:     sessions,
		Opened:       srv.opened.Load(),
		Closed:       srv.closedCount.Load(),
		Feeds:        srv.feeds.Load(),
		FedBytes:     srv.fedBytes.Load(),
		Chunks:       srv.chunks.Load(),
		Batches:      srv.batches.Load(),
		BatchStreams: srv.batchStreams.Load(),
		BatchBytes:   srv.batchBytes.Load(),
		QueuedBytes:  srv.queuedBytes.Load(),
		CarryBytes:   srv.carryBytes.Load(),
		BatchSize:    histSnapshot(srv.batchHist),
		Latency:      histSnapshot(srv.latency),
	}
}
