package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pardict"
)

// createStream opens a stream over the handler and returns its id.
func createStream(t *testing.T, srv *server) string {
	t.Helper()
	rec, out := doJSON(t, srv, http.MethodPost, "/stream", "")
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body.String())
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("create response = %v", out)
	}
	return id
}

// feedStream posts body to the stream and asserts 204.
func feedStream(t *testing.T, srv *server, id, body string) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/stream/"+id+"/feed", strings.NewReader(body)))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("feed status %d: %s", rec.Code, rec.Body.String())
	}
}

// pollEvents long-polls /events?once=1 under its own deadline and returns the
// decoded response.
func pollEvents(t *testing.T, srv *server, id string, wait time.Duration) streamEventsResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/stream/"+id+"/events?once=1", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("events status %d: %s", rec.Code, rec.Body.String())
	}
	var res streamEventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("bad events JSON: %v\n%s", err, rec.Body.String())
	}
	return res
}

func TestStreamLifecycle(t *testing.T) {
	srv := testServer(t) // he, she, his, hers; MaxLen 4 → hold-back 3
	id := createStream(t, srv)

	// Feed split mid-pattern: matches must join across the boundary.
	feedStream(t, srv, id, "ush")
	feedStream(t, srv, id, "ers")
	// "ushers": she@1 and hers@2 finalize once position 2 clears the
	// hold-back (6 fed − 3 held = 3 final positions).
	res := pollEvents(t, srv, id, 5*time.Second)
	// Pattern ids index the frozen snapshot (unspecified order); the stable
	// identity is (pos, text).
	if len(res.Events) != 2 ||
		res.Events[0].Pos != 1 || res.Events[0].Text != "she" ||
		res.Events[1].Pos != 2 || res.Events[1].Text != "hers" {
		t.Fatalf("events = %+v", res.Events)
	}

	// DELETE closes the stream, flushing the held-back tail into the reply.
	rec, _ := doJSON(t, srv, http.MethodDelete, "/stream/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status %d", rec.Code)
	}
	var fin streamEventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fin); err != nil {
		t.Fatal(err)
	}
	if !fin.Closed || len(fin.Events) != 0 { // "ers" tail holds no match
		t.Fatalf("final response = %+v", fin)
	}

	// The id is gone: every verb 404s.
	for _, probe := range []struct{ method, target string }{
		{http.MethodPost, "/stream/" + id + "/feed"},
		{http.MethodGet, "/stream/" + id + "/events?once=1"},
		{http.MethodDelete, "/stream/" + id},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(probe.method, probe.target, strings.NewReader("x")))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s %s status %d", probe.method, probe.target, rec.Code)
		}
	}
}

// TestStreamTailFlushOnDelete pins the close-time flush: a pattern wholly
// inside the hold-back window is only reported by the DELETE response.
func TestStreamTailFlushOnDelete(t *testing.T) {
	srv := testServer(t)
	id := createStream(t, srv)
	feedStream(t, srv, id, "xshe") // she@1 sits in the 3-byte hold-back
	rec, _ := doJSON(t, srv, http.MethodDelete, "/stream/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete status %d", rec.Code)
	}
	var fin streamEventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fin); err != nil {
		t.Fatal(err)
	}
	// "xshe" flushes she@1 and he@2 (the whole text sat inside the hold-back).
	if len(fin.Events) != 2 ||
		fin.Events[0].Text != "she" || fin.Events[0].Pos != 1 ||
		fin.Events[1].Text != "he" || fin.Events[1].Pos != 2 {
		t.Fatalf("tail flush = %+v", fin)
	}
}

// TestStreamSnapshotGeneration pins the freeze semantics: a stream keeps the
// dictionary it was created against, and a stream created after a mutation
// sees the new one.
func TestStreamSnapshotGeneration(t *testing.T) {
	srv := testServer(t)
	oldID := createStream(t, srv)

	if rec, _ := doJSON(t, srv, http.MethodPost, "/patterns", `{"patterns": ["urs"]}`); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d", rec.Code)
	}
	newID := createStream(t, srv)

	text := "xursx"
	feedStream(t, srv, oldID, text)
	feedStream(t, srv, newID, text)

	recOld, _ := doJSON(t, srv, http.MethodDelete, "/stream/"+oldID, "")
	recNew, _ := doJSON(t, srv, http.MethodDelete, "/stream/"+newID, "")
	var finOld, finNew streamEventsResponse
	if err := json.Unmarshal(recOld.Body.Bytes(), &finOld); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recNew.Body.Bytes(), &finNew); err != nil {
		t.Fatal(err)
	}
	if len(finOld.Events) != 0 {
		t.Fatalf("pre-mutation stream saw the new pattern: %+v", finOld.Events)
	}
	if len(finNew.Events) != 1 || finNew.Events[0].Text != "urs" {
		t.Fatalf("post-mutation stream = %+v", finNew.Events)
	}
}

func TestStreamSSE(t *testing.T) {
	srv := testServer(t)
	id := createStream(t, srv)
	feedStream(t, srv, id, "ushers")
	hs := srv.stream.lookup(id)
	if hs == nil {
		t.Fatal("stream vanished")
	}
	// Close the stream shortly after the SSE handler attaches; the handler
	// must deliver the buffered matches and finish with an end event.
	go func() {
		time.Sleep(50 * time.Millisecond)
		srv.stream.remove(id)
		hs.close()
	}()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stream/"+id+"/events", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(body, `"text":"she"`) || !strings.Contains(body, `"text":"hers"`) {
		t.Fatalf("SSE missed matches:\n%s", body)
	}
	if !strings.Contains(body, "event: end") {
		t.Fatalf("SSE missing end event:\n%s", body)
	}
	if !strings.Contains(body, "event: match") {
		t.Fatalf("SSE missing match framing:\n%s", body)
	}
}

func TestStreamIdleEviction(t *testing.T) {
	srv := newServer(testMatcher(t, "she"), 1<<20, 30*time.Second,
		streamOpts{idle: 100 * time.Millisecond}, obsOpts{})
	t.Cleanup(srv.Close)
	id := createStream(t, srv)
	deadline := time.Now().Add(10 * time.Second)
	for srv.stream.lookup(id) != nil {
		if time.Now().After(deadline) {
			t.Fatal("idle stream never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if srv.stream.evictions.Load() == 0 {
		t.Fatal("eviction not counted")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/stream/"+id+"/feed", strings.NewReader("x")))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("feed to evicted stream status %d", rec.Code)
	}
}

// TestStreamEmptyDictionary: streams over an empty live set are valid — they
// accept bytes and never match.
func TestStreamEmptyDictionary(t *testing.T) {
	srv := newServer(testMatcher(t), 1<<20, 30*time.Second, streamOpts{}, obsOpts{})
	t.Cleanup(srv.Close)
	id := createStream(t, srv)
	feedStream(t, srv, id, "anything at all")
	rec, _ := doJSON(t, srv, http.MethodDelete, "/stream/"+id, "")
	var fin streamEventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fin); err != nil {
		t.Fatal(err)
	}
	if !fin.Closed || len(fin.Events) != 0 {
		t.Fatalf("empty-dictionary stream = %+v", fin)
	}
}

func TestWriteStreamFeedErrMapping(t *testing.T) {
	srv := testServer(t)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/stream/x/feed", nil)
	if code := srv.writeStreamFeedErr(rec, req, fmt.Errorf("wrap: %w", context.DeadlineExceeded)); code != http.StatusTooManyRequests {
		t.Fatalf("deadline code = %d", code)
	}

	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/stream/x/feed", nil).WithContext(gctx)
	if code := srv.writeStreamFeedErr(rec, req, fmt.Errorf("wrap: %w", context.Canceled)); code != 0 {
		t.Fatalf("disconnect code = %d", code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("disconnect wrote %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/stream/x/feed", nil)
	if code := srv.writeStreamFeedErr(rec, req, io.ErrClosedPipe); code != http.StatusConflict {
		t.Fatalf("closed-stream code = %d", code)
	}
	rec = httptest.NewRecorder()
	if code := srv.writeStreamFeedErr(rec, req, pardict.ErrStreamServerClosed); code != http.StatusServiceUnavailable {
		t.Fatalf("closed-server code = %d", code)
	}
	rec = httptest.NewRecorder()
	if code := srv.writeStreamFeedErr(rec, req, fmt.Errorf("disk on fire")); code != http.StatusInternalServerError {
		t.Fatalf("other code = %d", code)
	}
}

// TestStreamServerShutdownDrains: server Close drains open streams' queued
// work and stops the engines; creating afterwards fails.
func TestStreamServerShutdownDrains(t *testing.T) {
	srv := newServer(testMatcher(t, "she"), 1<<20, 30*time.Second, streamOpts{}, obsOpts{})
	id := createStream(t, srv)
	feedStream(t, srv, id, "xshex")
	srv.Close()
	if _, sst := srv.stream.stats(); sst.QueuedBytes != 0 {
		t.Fatalf("shutdown left %d queued bytes", sst.QueuedBytes)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/stream", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("create after shutdown status %d", rec.Code)
	}
}

// TestStreamCountersMonotonic: a stream still open on a retired engine keeps
// counting after a mutation, and closing that engine moves its counters into
// the tier's running total, so no stream counter ever falls.
func TestStreamCountersMonotonic(t *testing.T) {
	srv := testServer(t)
	id := createStream(t, srv)
	chunk := strings.Repeat("ushers ", 100)

	// counters reads every stream counter and histogram count once the
	// queued bytes are scanned.
	counters := func() map[string]float64 {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, sst := srv.stream.stats(); sst.QueuedBytes == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("queued stream bytes never scanned")
			}
			time.Sleep(time.Millisecond)
		}
		sc := srv.scrape()
		out := map[string]float64{}
		for _, r := range table {
			if r.typ == "gauge" || len(r.from) != 1 || !strings.HasPrefix(r.from[0], "StreamServerStats.") {
				continue
			}
			x := r.samples(sc)[0]
			if x.h != nil {
				x.v = float64(x.h.Count)
			}
			out[r.name] = x.v
		}
		return out
	}
	check := func(prev, cur map[string]float64) {
		t.Helper()
		for name, v := range prev {
			if cur[name] < v {
				t.Errorf("%s fell from %v to %v", name, v, cur[name])
			}
		}
	}

	feedStream(t, srv, id, chunk)
	first := counters()
	if rec, _ := doJSON(t, srv, http.MethodPost, "/patterns", `{"patterns": ["urs"]}`); rec.Code != http.StatusOK {
		t.Fatalf("insert status %d", rec.Code)
	}
	feedStream(t, srv, id, chunk)
	second := counters()
	check(first, second)
	if got := second["pardict_stream_fed_bytes_total"]; got != float64(2*len(chunk)) {
		t.Fatalf("fed bytes after two feeds = %v, want %d", got, 2*len(chunk))
	}
	if second["pardict_stream_batches_total"] <= first["pardict_stream_batches_total"] ||
		second["pardict_stream_latency_seconds"] <= first["pardict_stream_latency_seconds"] {
		t.Fatalf("second feed not counted: %v then %v", first, second)
	}

	// Closing the last stream closes its retired engine.
	if rec, _ := doJSON(t, srv, http.MethodDelete, "/stream/"+id, ""); rec.Code != http.StatusOK {
		t.Fatalf("delete status %d", rec.Code)
	}
	third := counters()
	check(second, third)
	if third["pardict_stream_closes_total"] != 1 {
		t.Fatalf("closes = %v, want 1", third["pardict_stream_closes_total"])
	}
}
