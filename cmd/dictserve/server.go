package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"pardict"
	"pardict/internal/obs"
	"pardict/internal/trace"
)

// server is the HTTP handler wrapping one sharded matcher. Every method on
// ShardedMatcher is safe for concurrent use — scans pin RCU snapshots and
// never block on the mutation endpoints, so no server-level locking exists.
type server struct {
	m       *pardict.ShardedMatcher
	maxBody int64
	timeout time.Duration // per-request matching deadline; 0 = none
	mux     *http.ServeMux
	metrics *serverMetrics
	stream  *streamTier
	slo     *obs.SLO // sliding-window latency SLO over /scan and /scanbatch
}

// streamOpts configures the streaming tier (see newStreamTier); zero values
// select the defaults (no idle eviction, library queue bound, 1024 events).
type streamOpts struct {
	idle      time.Duration
	queue     int
	maxEvents int
}

// obsOpts configures the server's observability surface; zero values select
// the defaults (no pprof, 100ms target at 99.9% over a 60s window).
type obsOpts struct {
	debug        bool          // mount net/http/pprof under /debug/pprof/
	sloTarget    time.Duration // latency target (0 = 100ms)
	sloObjective float64       // success fraction (0 = 0.999)
	sloWindow    time.Duration // sliding window (0 = 60s)
}

func newServer(m *pardict.ShardedMatcher, maxBody int64, timeout time.Duration, so streamOpts, oo obsOpts) *server {
	if oo.sloTarget <= 0 {
		oo.sloTarget = 100 * time.Millisecond
	}
	if oo.sloObjective <= 0 {
		oo.sloObjective = 0.999
	}
	if oo.sloWindow <= 0 {
		oo.sloWindow = time.Minute
	}
	s := &server{m: m, maxBody: maxBody, timeout: timeout, mux: http.NewServeMux(),
		metrics: &serverMetrics{scanLatency: obs.NewHistogram(latencyBoundsNs), requests: map[reqKey]int64{}},
		slo:     obs.NewSLO(oo.sloTarget, oo.sloObjective, oo.sloWindow, 6)}
	s.stream = newStreamTier(s, so.idle, so.queue, so.maxEvents)
	s.handle("/scan", "scan", s.handleScan)
	s.handle("/scanbatch", "scanbatch", s.handleScanBatch)
	s.handle("/patterns", "patterns", s.handlePatterns)
	s.handle("/reload", "reload", s.handleReload)
	s.handle("/healthz", "healthz", s.handleHealth)
	s.handle("/metrics", "metrics", s.handleMetrics)
	s.handle("POST /stream", "stream", s.handleStreamCreate)
	s.handle("POST /stream/{id}/feed", "stream_feed", s.handleStreamFeed)
	s.handle("GET /stream/{id}/events", "stream_events", s.handleStreamEvents)
	s.handle("DELETE /stream/{id}", "stream_delete", s.handleStreamDelete)
	s.handle("/debug/vars", "vars", s.handleVars)
	s.handle("GET /debug/trace", "trace", s.handleTrace)
	if oo.debug {
		// net/http/pprof registers on the DefaultServeMux as a side effect of
		// its import; the server runs its own mux, so the handlers are wired
		// explicitly — and only when asked for.
		s.handle("/debug/pprof/", "pprof", foreign(pprof.Index))
		s.handle("/debug/pprof/cmdline", "pprof", foreign(pprof.Cmdline))
		s.handle("/debug/pprof/profile", "pprof", foreign(pprof.Profile))
		s.handle("/debug/pprof/symbol", "pprof", foreign(pprof.Symbol))
		s.handle("/debug/pprof/trace", "pprof", foreign(pprof.Trace))
	}
	return s
}

// handler serves one dictserve route and returns the status it wrote: 0 when
// the client was gone and nothing was written, a code of its own so the rate
// of abandoned requests stays visible.
type handler func(http.ResponseWriter, *http.Request) int

// handle registers h under pattern and counts every request it finishes,
// exactly once, under endpoint in pardict_requests_total. h gets the
// connection's own writer back from the muxWriter ServeHTTP wrapped it in.
func (s *server) handle(pattern, endpoint string, h handler) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		mw := w.(*muxWriter)
		mw.routed = true
		s.count(endpoint, h(mw.ResponseWriter, r))
	})
}

func (s *server) count(endpoint string, code int) {
	s.metrics.mu.Lock()
	s.metrics.requests[reqKey{endpoint, code}]++
	s.metrics.mu.Unlock()
}

// muxWriter is the writer ServeHTTP hands the mux. A registered route marks
// it routed; a request the mux answers itself (404 for an unknown path, 405
// with Allow for a wrong method, a redirect to a cleaned path) writes
// through it, which records the status for the "unmatched" count.
type muxWriter struct {
	statusWriter
	routed bool
}

// foreign adapts a net/http/pprof handler by recording the status it writes:
// 200 unless it calls WriteHeader, which it does only before any body. The
// wrapper hides http.Flusher, which those handlers never use; dictserve's own
// handlers return their status instead, since streaming needs it.
func foreign(h http.HandlerFunc) handler {
	return func(w http.ResponseWriter, r *http.Request) int {
		sw := &statusWriter{w, http.StatusOK}
		h.ServeHTTP(sw, r)
		return sw.code
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// httpError writes a plain-text error response and returns its status.
func httpError(w http.ResponseWriter, msg string, code int) int {
	http.Error(w, msg, code)
	return code
}

// writeJSON writes v as a JSON response under code and returns code. An
// encode error means the connection failed after the status went out, so
// there is nothing left to report.
func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
	return code
}

// traceResponse is the GET /debug/trace body: recorder state plus the
// slowest-N retained traces (and, with ?recent=K, up to K recently finished
// ones), each with its spans as offsets from the trace start.
type traceResponse struct {
	Enabled bool         `json:"enabled"`
	Stats   trace.Stats  `json:"stats"`
	Slowest []trace.Info `json:"slowest"`
	Recent  []trace.Info `json:"recent,omitempty"`
}

func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) int {
	out := traceResponse{
		Enabled: trace.Default.Enabled(),
		Stats:   trace.Default.RecorderStats(),
		Slowest: trace.Default.Slowest(),
	}
	if k, _ := strconv.Atoi(r.URL.Query().Get("recent")); k > 0 {
		out.Recent = trace.Default.Recent(k)
	}
	return writeJSON(w, http.StatusOK, out)
}

// Close shuts down the streaming tier (open streams are drained and their
// engines stopped). Call after the HTTP listener has drained.
func (s *server) Close() { s.stream.Close() }

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mw := &muxWriter{statusWriter: statusWriter{w, http.StatusOK}}
	s.mux.ServeHTTP(mw, r)
	if !mw.routed {
		s.count("unmatched", mw.code)
	}
}

// requestCtx derives the matching context for one request: the request's own
// context (canceled when the client disconnects) bounded by the configured
// per-request deadline.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// writeMatchErr maps a matching error to an HTTP response and returns the
// status code written: 504 when the per-request deadline expired, a silent
// return (code 0) only when the client itself went away (it cannot read a
// status anyway), and 500 for any other failure — a genuine engine error must
// never masquerade as an empty success.
func (s *server) writeMatchErr(w http.ResponseWriter, r *http.Request, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.timeouts.Inc()
		return httpError(w, "scan deadline exceeded", http.StatusGatewayTimeout)
	case r.Context().Err() != nil:
		// The request's own context is dead: the client disconnected (or
		// its deadline fired client-side). Nothing useful to write.
		s.metrics.cancels.Inc()
		return 0
	default:
		s.metrics.matchErrors.Inc()
		return httpError(w, "scan failed: "+err.Error(), http.StatusInternalServerError)
	}
}

// scanMatch is one reported occurrence.
type scanMatch struct {
	Pos     int    `json:"pos"`
	Pattern int    `json:"pattern"`
	Text    string `json:"text"`
}

type scanResponse struct {
	Count   int         `json:"count"`
	Matches []scanMatch `json:"matches,omitempty"`
}

func (s *server) handleScan(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return httpError(w, "POST required", http.StatusMethodNotAllowed)
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		return httpError(w, "body too large or unreadable", http.StatusRequestEntityTooLarge)
	}
	res, code := s.match(w, r, "scan", [][]byte{body})
	if code != http.StatusOK {
		return code
	}
	return writeJSON(w, http.StatusOK, s.collect(res[0], r.URL.Query().Get("mode")))
}

// match is the one instrumented matching call behind /scan and /scanbatch:
// it scans texts under the request's deadline with a trace named after the
// endpoint, times the call into the latency histogram and the SLO, and
// accounts each text's engine cost. On failure it writes the error
// response; either way it returns the status the request ends with.
func (s *server) match(w http.ResponseWriter, r *http.Request, endpoint string, texts [][]byte) ([]*pardict.ShardedMatches, int) {
	tr := trace.Start(endpoint)
	defer tr.Finish()
	total := 0
	for _, t := range texts {
		total += len(t)
	}
	tr.SetArg(int64(total))
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	t0 := time.Now()
	res, err := s.m.MatchBatch(trace.NewContext(ctx, tr), texts)
	d := time.Since(t0).Nanoseconds()
	s.metrics.scanLatency.Observe(d)
	s.slo.Observe(d)
	code := http.StatusOK
	if err != nil {
		code = s.writeMatchErr(w, r, err)
	} else {
		for i, m := range res {
			st := m.Stats()
			s.metrics.engineWork.Add(st.Work)
			s.metrics.engineDepth.Add(st.Depth)
			s.metrics.texts.Inc()
			s.metrics.bytes.Add(int64(len(texts[i])))
		}
	}
	tr.SetStatus(code)
	return res, code
}

// collect renders one text's matches per the requested mode ("", "count",
// or "all"). Pattern text comes from the result itself (AllAt carries the
// raw bytes): the live set can change between the scan and the render, and
// the snapshot the scan pinned is the only consistent source.
func (s *server) collect(res *pardict.ShardedMatches, mode string) scanResponse {
	out := scanResponse{}
	countOnly := mode == "count"
	all := mode == "all"
	var buf []pardict.ShardedHit
	for i := 0; i < res.Len(); i++ {
		switch {
		case all:
			buf = res.AllAt(i, buf[:0])
			for _, h := range buf {
				out.Count++
				out.Matches = append(out.Matches, scanMatch{
					Pos: i, Pattern: int(h.ID), Text: string(h.Pattern),
				})
			}
		case countOnly:
			if _, ok := res.Longest(i); ok {
				out.Count++
			}
		default:
			if id, ok := res.Longest(i); ok {
				out.Count++
				text := ""
				if buf = res.AllAt(i, buf[:0]); len(buf) > 0 {
					text = string(buf[0].Pattern)
				}
				out.Matches = append(out.Matches, scanMatch{
					Pos: i, Pattern: int(id), Text: text,
				})
			}
		}
	}
	return out
}

// scanBatchRequest is the /scanbatch body: a list of texts to scan in one
// call. The texts are pipelined through the matcher's shared scheduler
// (ShardedMatcher.MatchBatch), so a batch costs less than one request per
// text.
type scanBatchRequest struct {
	Texts []string `json:"texts"`
}

type scanBatchResponse struct {
	Results []scanResponse `json:"results"`
}

func (s *server) handleScanBatch(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return httpError(w, "POST required", http.StatusMethodNotAllowed)
	}
	var req scanBatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err := dec.Decode(&req); err != nil {
		return httpError(w, "bad JSON body", http.StatusBadRequest)
	}
	texts := make([][]byte, len(req.Texts))
	for i, t := range req.Texts {
		texts[i] = []byte(t)
	}
	results, code := s.match(w, r, "scanbatch", texts)
	if code != http.StatusOK {
		return code
	}
	mode := r.URL.Query().Get("mode")
	out := scanBatchResponse{Results: make([]scanResponse, len(results))}
	for i, res := range results {
		out.Results[i] = s.collect(res, mode)
	}
	return writeJSON(w, http.StatusOK, out)
}

// patternsRequest is the /patterns body for both POST (insert) and DELETE.
type patternsRequest struct {
	Patterns []string `json:"patterns"`
}

// patternsResponse reports how many mutations were applied. IDs parallels
// the request on POST. On a partial failure the error response carries the
// applied count instead: everything before the failing pattern took effect
// (mutations are individually atomic, not transactional across the list).
type patternsResponse struct {
	Applied int   `json:"applied"`
	IDs     []int `json:"ids,omitempty"`
}

// writeMutationErr maps a mutation error to a status code: 409 for duplicate
// inserts, 404 for deleting an absent pattern, 503 once the matcher is
// closed, 400 for anything else (empty pattern, byte outside the configured
// alphabet). The JSON body carries the count of mutations already applied.
func (s *server) writeMutationErr(w http.ResponseWriter, err error, applied int) int {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, pardict.ErrDuplicatePattern):
		code = http.StatusConflict
	case errors.Is(err, pardict.ErrPatternNotFound):
		code = http.StatusNotFound
	case errors.Is(err, pardict.ErrMatcherClosed):
		code = http.StatusServiceUnavailable
	}
	return writeJSON(w, code, map[string]any{"error": err.Error(), "applied": applied})
}

// handlePatterns mutates the live dictionary online: POST inserts, DELETE
// removes (by content). Each pattern is an O(1) amortized log append visible
// to every scan that starts after the response; the engine rebuilds it
// eventually triggers run on the background reconciler, off this path.
func (s *server) handlePatterns(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost && r.Method != http.MethodDelete {
		return httpError(w, "POST or DELETE required", http.StatusMethodNotAllowed)
	}
	var req patternsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err := dec.Decode(&req); err != nil {
		return httpError(w, "bad JSON body", http.StatusBadRequest)
	}
	if len(req.Patterns) == 0 {
		return httpError(w, "no patterns in body", http.StatusBadRequest)
	}
	out := patternsResponse{}
	for _, p := range req.Patterns {
		var err error
		if r.Method == http.MethodPost {
			var id pardict.PatternID
			if id, err = s.m.Insert([]byte(p)); err == nil {
				out.IDs = append(out.IDs, int(id))
			}
		} else {
			err = s.m.Delete([]byte(p))
		}
		if err != nil {
			if out.Applied > 0 {
				s.stream.bumpGen()
			}
			return s.writeMutationErr(w, err, out.Applied)
		}
		out.Applied++
	}
	s.stream.bumpGen()
	return writeJSON(w, http.StatusOK, out)
}

// handleReload atomically replaces the whole dictionary with the pattern
// list of a Save-format body (see Matcher.Save / dictmatch -compile). The
// body is fully read and checksum-verified before any state changes, so a
// corrupt or truncated upload fails closed with the old dictionary still
// serving.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return httpError(w, "POST required", http.StatusMethodNotAllowed)
	}
	if err := s.m.ReloadSaved(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, pardict.ErrMatcherClosed) {
			code = http.StatusServiceUnavailable
		}
		return writeJSON(w, code, map[string]any{"error": err.Error()})
	}
	s.stream.bumpGen()
	return s.handleHealth(w, r)
}

type healthResponse struct {
	OK         bool   `json:"ok"`
	Patterns   int    `json:"patterns"`
	MaxLen     int    `json:"max_len"`
	Size       int    `json:"size"`
	Engine     string `json:"engine"`
	Shards     int    `json:"shards"`
	PendingOps int    `json:"pending_ops"`
	Epoch      uint64 `json:"epoch"`
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) int {
	st := s.m.Stats()
	return writeJSON(w, http.StatusOK, healthResponse{
		OK:         true,
		Patterns:   st.Patterns,
		MaxLen:     st.MaxLen,
		Size:       st.Size,
		Engine:     "sharded",
		Shards:     st.Shards,
		PendingOps: st.PendingOps,
		Epoch:      st.Epoch,
	})
}

func readLines(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		out = append(out, append([]byte(nil), line...))
	}
	return out, sc.Err()
}
