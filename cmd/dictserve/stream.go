package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"time"

	"pardict"
	"pardict/internal/obs"
)

// streamTier is dictserve's multiplexed-streaming front end: long-lived tenant
// streams created over HTTP, all matched by one shared pardict.StreamServer.
//
// The streaming engine is a frozen snapshot of the online dictionary: the
// first stream created after a dictionary mutation (POST/DELETE /patterns,
// POST /reload) compiles a fresh immutable Matcher from the live set and a new
// StreamServer over it. Streams opened earlier keep scanning against the
// snapshot they started with — a stream's results are consistent over its
// whole life — and each retired engine is shut down once its last stream
// closes.
type streamTier struct {
	s         *server
	idle      time.Duration // evict streams unused this long (0 = never)
	queue     int           // per-stream queue bound handed to WithStreamQueue
	maxEvents int           // per-stream match-event buffer bound

	compileMu sync.Mutex // one snapshot compile at a time

	mu          sync.Mutex
	gen         uint64                    // bumped on every dictionary mutation
	eng         *streamEngine             // the current generation's engine, if compiled
	live        map[*streamEngine]bool    // every engine not yet closed
	closedStats pardict.StreamServerStats // final counters of the closed engines, summed
	streams     map[string]*httpStream
	nextID      uint64
	closed      bool

	evictions obs.Counter
	dropped   obs.Counter // match events dropped on full buffers, all streams

	janitorQuit chan struct{}
	janitorDone chan struct{}
}

// streamEngine is one frozen dictionary snapshot serving some generation of
// streams: the compiled Matcher (also the id→pattern-text source for event
// rendering) plus the multiplexing StreamServer over it.
type streamEngine struct {
	m   *pardict.Matcher
	srv *pardict.StreamServer
	gen uint64
	// refs counts the open streams on this engine, plus one while it is the
	// tier's current engine; guarded by the tier's mu. The engine closes
	// when refs reaches 0.
	refs int
}

// streamEvent is one reported match, as rendered to clients.
type streamEvent struct {
	Pos     int64  `json:"pos"`
	Pattern int    `json:"pattern"`
	Text    string `json:"text"`
}

// httpStream is one tenant stream: the server-side stream plus the bounded
// buffer of match events awaiting delivery.
type httpStream struct {
	id   string
	tier *streamTier
	eng  *streamEngine
	st   *pardict.ServerStream

	mu       sync.Mutex
	events   []streamEvent
	dropped  int64
	closed   bool          // DELETE or eviction ran; st is closed (tail flushed)
	notify   chan struct{} // capacity 1: kicked on every new event and on close
	lastUsed int64         // UnixNano of the last feed/read; guarded by mu
}

func newStreamTier(s *server, idle time.Duration, queue, maxEvents int) *streamTier {
	t := &streamTier{
		s:           s,
		idle:        idle,
		queue:       queue,
		maxEvents:   maxEvents,
		live:        map[*streamEngine]bool{},
		streams:     map[string]*httpStream{},
		janitorQuit: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if t.maxEvents <= 0 {
		t.maxEvents = 1024
	}
	go t.janitor()
	return t
}

var errShutdown = errors.New("server shutting down")

// bumpGen records a dictionary mutation (or, from Close, shutdown): the tier
// drops its reference on the current engine, so the next stream creation
// compiles a fresh snapshot. Existing streams are unaffected.
func (t *streamTier) bumpGen() {
	t.mu.Lock()
	t.gen++
	cur := t.eng
	t.eng = nil
	t.mu.Unlock()
	if cur != nil {
		t.release(cur)
	}
}

// engine returns the current-generation engine with a reference taken for
// the caller, compiling one from the live dictionary if a mutation (or first
// use) left none. Creators compile one at a time, outside the tier lock.
func (t *streamTier) engine() (*streamEngine, error) {
	t.compileMu.Lock()
	defer t.compileMu.Unlock()
	t.mu.Lock()
	if e := t.eng; e != nil {
		e.refs++
		t.mu.Unlock()
		return e, nil
	}
	gen := t.gen
	t.mu.Unlock()

	m, err := pardict.NewMatcher(t.s.m.LivePatterns())
	if err != nil {
		return nil, fmt.Errorf("compiling stream snapshot: %w", err)
	}
	var opts []pardict.StreamServerOption
	if t.queue > 0 {
		opts = append(opts, pardict.WithStreamQueue(t.queue))
	}
	e := &streamEngine{m: m, srv: m.NewStreamServer(opts...), gen: gen, refs: 1}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		e.srv.Close()
		return nil, errShutdown
	}
	// If the dictionary mutated during the compile, the snapshot is already
	// stale, but it is a valid freeze taken after the creation request
	// arrived: it serves this stream without becoming current.
	if t.gen == gen {
		t.eng = e
		e.refs++
	}
	t.live[e] = true
	t.mu.Unlock()
	return e, nil
}

// release drops one reference on e. The last one closes e and, in one step
// under the tier lock, moves it from the live set into closedStats, so no
// scrape sees its counters drop or count twice; its gauges are zero by then.
func (t *streamTier) release(e *streamEngine) {
	t.mu.Lock()
	e.refs--
	idle := e.refs == 0
	t.mu.Unlock()
	if !idle {
		return
	}
	e.srv.Close()
	final := e.srv.Stats()
	t.mu.Lock()
	delete(t.live, e)
	t.closedStats = addStreamStats(t.closedStats, final)
	t.mu.Unlock()
}

// create opens a new stream and registers it.
func (t *streamTier) create() (*httpStream, error) {
	e, err := t.engine()
	if err != nil {
		return nil, err
	}
	hs := &httpStream{
		tier:     t,
		eng:      e,
		notify:   make(chan struct{}, 1),
		lastUsed: time.Now().UnixNano(),
	}
	st, err := e.srv.Open(hs.onMatch)
	if err != nil {
		t.release(e)
		return nil, err
	}
	hs.st = st
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = st.Close()
		t.release(e)
		return nil, errShutdown
	}
	t.nextID++
	hs.id = "s" + strconv.FormatUint(t.nextID, 36)
	t.streams[hs.id] = hs
	t.mu.Unlock()
	return hs, nil
}

// lookup returns the stream with the given id, or nil.
func (t *streamTier) lookup(id string) *httpStream {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.streams[id]
}

// remove unregisters the stream; the caller is responsible for closing it.
func (t *streamTier) remove(id string) {
	t.mu.Lock()
	delete(t.streams, id)
	t.mu.Unlock()
}

// onMatch is the emit callback: buffer the event, dropping the oldest past
// the bound (newest matches are the ones an online consumer wants).
func (hs *httpStream) onMatch(pos int64, pat int) {
	ev := streamEvent{Pos: pos, Pattern: pat, Text: string(hs.eng.m.Pattern(pat))}
	hs.mu.Lock()
	if len(hs.events) >= hs.tier.maxEvents {
		n := copy(hs.events, hs.events[1:])
		hs.events = hs.events[:n]
		hs.dropped++
		hs.tier.dropped.Inc()
	}
	hs.events = append(hs.events, ev)
	hs.mu.Unlock()
	select {
	case hs.notify <- struct{}{}:
	default:
	}
}

// take drains the buffered events.
func (hs *httpStream) take() (evs []streamEvent, dropped int64, closed bool) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	evs = hs.events
	hs.events = nil
	return evs, hs.dropped, hs.closed
}

func (hs *httpStream) touch() {
	hs.mu.Lock()
	hs.lastUsed = time.Now().UnixNano()
	hs.mu.Unlock()
}

// close drains and flushes the underlying stream (its tail matches land in
// the event buffer), marks it closed, and releases the engine. Idempotent.
func (hs *httpStream) close() {
	hs.mu.Lock()
	if hs.closed {
		hs.mu.Unlock()
		return
	}
	hs.closed = true
	hs.mu.Unlock()
	_ = hs.st.Close()
	hs.tier.release(hs.eng)
	select {
	case hs.notify <- struct{}{}:
	default:
	}
}

// janitor evicts idle streams: any stream not fed or read within the idle
// window is closed and removed, so abandoned clients cannot pin memory (or a
// retired dictionary snapshot) forever.
func (t *streamTier) janitor() {
	defer close(t.janitorDone)
	if t.idle <= 0 {
		<-t.janitorQuit
		return
	}
	tick := t.idle / 4
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-t.janitorQuit:
			return
		case now := <-ticker.C:
			cutoff := now.Add(-t.idle).UnixNano()
			var victims []*httpStream
			t.mu.Lock()
			for id, hs := range t.streams {
				hs.mu.Lock()
				stale := hs.lastUsed < cutoff
				hs.mu.Unlock()
				if stale {
					delete(t.streams, id)
					victims = append(victims, hs)
				}
			}
			t.mu.Unlock()
			for _, hs := range victims {
				hs.close()
				t.evictions.Inc()
			}
		}
	}
}

// Close shuts the tier down: every open stream is closed (draining its queued
// chunks), every engine is closed, and the janitor stops. Called after the
// HTTP listener has drained, so no handler is mid-flight.
func (t *streamTier) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	victims := make([]*httpStream, 0, len(t.streams))
	for _, hs := range t.streams {
		victims = append(victims, hs)
	}
	t.streams = map[string]*httpStream{}
	t.mu.Unlock()

	close(t.janitorQuit)
	for _, hs := range victims {
		hs.close()
	}
	t.bumpGen()
	<-t.janitorDone
}

// tierStats is the streaming tier's own state, beside its engines' counters.
type tierStats struct {
	Generation    uint64 // dictionary mutations observed
	Evictions     int64
	EventsDropped int64
}

// stats snapshots the tier: its own counters, and the StreamServerStats of
// every live engine added to closedStats. The gauges (sessions, queued
// and carry bytes) come from the live engines alone, since a closed engine
// has none left.
func (t *streamTier) stats() (tierStats, pardict.StreamServerStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sst := t.closedStats
	for e := range t.live {
		sst = addStreamStats(sst, e.srv.Stats())
	}
	return tierStats{Generation: t.gen, Evictions: t.evictions.Load(), EventsDropped: t.dropped.Load()}, sst
}

// addStreamStats sums every integer field of two snapshots, and their
// histograms bucket by bucket.
func addStreamStats(a, b pardict.StreamServerStats) pardict.StreamServerStats {
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		if f := av.Field(i); f.CanInt() {
			f.SetInt(f.Int() + bv.Field(i).Int())
		}
	}
	a.BatchSize = addHist(a.BatchSize, b.BatchSize)
	a.Latency = addHist(a.Latency, b.Latency)
	return a
}

// addHist sums two snapshots bucket by bucket. b is an engine's snapshot; a
// is empty or has the same bounds, since every engine uses the same ones.
func addHist(a, b pardict.HistogramSnapshot) pardict.HistogramSnapshot {
	counts := append([]int64(nil), b.Counts...)
	for i, c := range a.Counts {
		counts[i] += c
	}
	return pardict.HistogramSnapshot{Bounds: b.Bounds, Counts: counts, Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
}

// --- HTTP handlers -----------------------------------------------------

type streamCreateResponse struct {
	ID         string `json:"id"`
	Generation uint64 `json:"generation"`
	Patterns   int    `json:"patterns"`
}

// handleStreamCreate opens a stream: POST /stream → 201 {"id": ...}. The
// stream matches against a frozen snapshot of the dictionary as of creation.
func (s *server) handleStreamCreate(w http.ResponseWriter, r *http.Request) int {
	hs, err := s.stream.create()
	if err != nil {
		return httpError(w, err.Error(), http.StatusServiceUnavailable)
	}
	return writeJSON(w, http.StatusCreated, streamCreateResponse{
		ID: hs.id, Generation: hs.eng.gen, Patterns: hs.eng.m.PatternCount(),
	})
}

// handleStreamFeed appends the request body to the stream: POST
// /stream/{id}/feed → 204. The body is fed chunk-wise, so a body larger than
// the stream's queue bound streams through backpressure rather than failing;
// if the queue stays full past the request deadline, 429 tells the client to
// slow down and retry (no byte of the rejected chunk was consumed).
func (s *server) handleStreamFeed(w http.ResponseWriter, r *http.Request) int {
	hs := s.stream.lookup(r.PathValue("id"))
	if hs == nil {
		return httpError(w, "unknown stream", http.StatusNotFound)
	}
	hs.touch()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	buf := make([]byte, 64<<10)
	for {
		n, rerr := body.Read(buf)
		if n > 0 {
			if err := hs.st.FeedContext(ctx, buf[:n]); err != nil {
				return s.writeStreamFeedErr(w, r, err)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return httpError(w, "body too large or unreadable", http.StatusRequestEntityTooLarge)
		}
	}
	w.WriteHeader(http.StatusNoContent)
	return http.StatusNoContent
}

// writeStreamFeedErr maps a feed error: 429 when backpressure held the chunk
// past the request deadline, silent when the client is gone, 409 for a closed
// stream, 503 for a closed server, 500 otherwise.
func (s *server) writeStreamFeedErr(w http.ResponseWriter, r *http.Request, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return httpError(w, "stream queue full; retry with backoff", http.StatusTooManyRequests)
	case r.Context().Err() != nil:
		return 0
	case errors.Is(err, io.ErrClosedPipe):
		return httpError(w, "stream closed", http.StatusConflict)
	case errors.Is(err, pardict.ErrStreamServerClosed):
		return httpError(w, "stream engine shut down", http.StatusServiceUnavailable)
	default:
		return httpError(w, "feed failed: "+err.Error(), http.StatusInternalServerError)
	}
}

type streamEventsResponse struct {
	Events  []streamEvent `json:"events"`
	Dropped int64         `json:"dropped,omitempty"`
	Closed  bool          `json:"closed,omitempty"`
}

// handleStreamEvents delivers buffered matches: GET /stream/{id}/events.
// With ?once=1 it long-polls — one JSON response as soon as events exist (or
// an empty one at the request deadline). Without it the response is an SSE
// stream (text/event-stream) that keeps delivering until the client goes
// away or the stream is closed and drained.
func (s *server) handleStreamEvents(w http.ResponseWriter, r *http.Request) int {
	hs := s.stream.lookup(r.PathValue("id"))
	if hs == nil {
		return httpError(w, "unknown stream", http.StatusNotFound)
	}
	hs.touch()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if r.URL.Query().Get("once") != "" {
		return streamEventsOnce(ctx, w, hs)
	}
	return streamEventsSSE(ctx, w, hs)
}

// streamEventsOnce is the long-poll arm: wait for at least one event (or
// close, or the deadline), then respond once with everything buffered.
func streamEventsOnce(ctx context.Context, w http.ResponseWriter, hs *httpStream) int {
	for {
		evs, dropped, closed := hs.take()
		if len(evs) > 0 || closed {
			hs.touch()
			return writeJSON(w, http.StatusOK, streamEventsResponse{Events: evs, Dropped: dropped, Closed: closed})
		}
		select {
		case <-hs.notify:
		case <-ctx.Done():
			return writeJSON(w, http.StatusOK, streamEventsResponse{Events: []streamEvent{}, Dropped: dropped})
		}
	}
}

// streamEventsSSE is the push arm: one "match" SSE event per buffered match,
// an "end" event when the stream closes, flushing as they arrive. The
// request counts as finished, with its 200, when the stream ends or the
// client goes away.
func streamEventsSSE(ctx context.Context, w http.ResponseWriter, hs *httpStream) int {
	fl, ok := w.(http.Flusher)
	if !ok {
		return httpError(w, "streaming unsupported", http.StatusNotImplemented)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		evs, _, closed := hs.take()
		for _, ev := range evs {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: match\ndata: %s\n\n", data)
		}
		if len(evs) > 0 {
			hs.touch()
			fl.Flush()
		}
		if closed {
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return http.StatusOK
		}
		select {
		case <-hs.notify:
		case <-ctx.Done():
			return http.StatusOK
		}
	}
}

// handleStreamDelete closes the stream: DELETE /stream/{id}. Queued chunks
// are scanned and the held-back tail flushed first, so the response carries
// every remaining match.
func (s *server) handleStreamDelete(w http.ResponseWriter, r *http.Request) int {
	id := r.PathValue("id")
	hs := s.stream.lookup(id)
	if hs == nil {
		return httpError(w, "unknown stream", http.StatusNotFound)
	}
	s.stream.remove(id)
	hs.close()
	evs, dropped, _ := hs.take()
	return writeJSON(w, http.StatusOK, streamEventsResponse{Events: evs, Dropped: dropped, Closed: true})
}
