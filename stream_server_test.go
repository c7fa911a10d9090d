package pardict

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func streamServerMatcher(t *testing.T) *Matcher {
	t.Helper()
	m, err := NewMatcher([][]byte{
		[]byte("abra"), []byte("abracadabra"), []byte("cad"), []byte("ra"),
		[]byte("boundary"), []byte("ndar"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// streamOracle runs the single-stream StreamMatcher over text and returns
// its emissions — the reference the server must reproduce per stream.
func streamOracle(t *testing.T, m *Matcher, text []byte) []hit {
	t.Helper()
	var out []hit
	s := m.Stream(func(pos int64, pat int) { out = append(out, hit{pos, pat}) })
	if err := s.Feed(text); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitDrained spins until the stream's queue is empty (the dispatcher has
// taken everything) or the deadline passes.
func waitDrained(t *testing.T, st *ServerStream, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if b, _ := st.Queued(); b == 0 {
			return
		}
		if time.Now().After(deadline) {
			b, c := st.Queued()
			t.Fatalf("queue never drained: %d bytes in %d chunks", b, c)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamServerManyStreamsOracle is the many-streams hammer: concurrent
// feeders with random chunkings and injected cancellations, every stream
// checked byte-for-byte against the single-stream oracle. Run under -race
// in CI.
func TestStreamServerManyStreamsOracle(t *testing.T) {
	m := streamServerMatcher(t)
	srv := m.NewStreamServer(WithStreamQueue(1 << 12))
	defer srv.Close()

	const streams = 48
	base := []byte("abracadabra boundary cad ra abrandar xboundaryx ")
	texts := make([][]byte, streams)
	wants := make([][]hit, streams)
	for i := range texts {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		n := 1000 + rng.Intn(3000)
		tx := make([]byte, n)
		for j := range tx {
			tx[j] = base[rng.Intn(len(base))]
		}
		texts[i] = tx
		wants[i] = streamOracle(t, m, tx)
	}

	gots := make([][]hit, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		st, err := srv.Open(func(i int) func(int64, int) {
			return func(pos int64, pat int) { gots[i] = append(gots[i], hit{pos, pat}) }
		}(i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, st *ServerStream) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + i)))
			tx := texts[i]
			at := 0
			for at < len(tx) {
				end := at + 1 + rng.Intn(200)
				if end > len(tx) {
					end = len(tx)
				}
				chunk := tx[at:end]
				if rng.Intn(5) == 0 {
					// Injected cancellation: a dead context must refuse the
					// chunk without corrupting the stream; the retry below
					// must land it exactly once.
					dead, cancel := context.WithCancel(context.Background())
					cancel()
					if err := st.FeedContext(dead, chunk); !errors.Is(err, ErrCanceled) {
						t.Errorf("stream %d: canceled feed err = %v", i, err)
						return
					}
				}
				if err := st.Feed(chunk); err != nil {
					t.Errorf("stream %d: feed: %v", i, err)
					return
				}
				at = end
			}
			if err := st.Close(); err != nil {
				t.Errorf("stream %d: close: %v", i, err)
			}
		}(i, st)
	}
	wg.Wait()
	for i := range gots {
		if !sameHits(gots[i], wants[i]) {
			t.Fatalf("stream %d: server emitted %d hits, oracle %d", i, len(gots[i]), len(wants[i]))
		}
	}
	st := srv.Stats()
	if st.Sessions != 0 || st.Opened != streams || st.Closed != streams {
		t.Fatalf("session accounting: %+v", st)
	}
	if st.QueuedBytes != 0 || st.CarryBytes != 0 {
		t.Fatalf("drained server holds bytes: %+v", st)
	}
	var fed int64
	for _, tx := range texts {
		fed += int64(len(tx))
	}
	if st.FedBytes != fed || st.BatchBytes != fed {
		t.Fatalf("fed %d, stats fed %d scanned %d", fed, st.FedBytes, st.BatchBytes)
	}
	if st.Batches == 0 || st.Latency.Count != st.Chunks {
		t.Fatalf("batch/latency accounting: %+v", st)
	}
}

// TestStreamServerBackpressureCancelResume pins the documented cancel
// contract on a full queue: a blocked FeedContext whose context dies returns
// ErrCanceled with the chunk NOT accepted, previously accepted bytes are
// retained, and retrying the same chunk resumes the stream to byte-identical
// output.
func TestStreamServerBackpressureCancelResume(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("ab")})
	if err != nil {
		t.Fatal(err)
	}
	srv := m.NewStreamServer(WithStreamQueue(16))
	defer srv.Close()

	gate := make(chan struct{})
	var mu sync.Mutex
	var got []hit
	st, err := srv.Open(func(pos int64, pat int) {
		<-gate // blocks the scan phase until released
		mu.Lock()
		got = append(got, hit{pos, pat})
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	chunk := []byte("abababab") // 8 bytes, matches from position 0
	if err := st.Feed(chunk); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, st, 5*time.Second) // phase took chunk 1 and is stuck in emit
	// Queue two more chunks: 8 < 16 admits the first, 16 ≥ 16 stops there.
	if err := st.Feed(chunk); err != nil {
		t.Fatal(err)
	}
	if err := st.Feed(chunk); err != nil {
		t.Fatal(err)
	}
	// The queue is now at its bound and the dispatcher is wedged on the gate:
	// this feed must block, then fail with the deadline, chunk not accepted.
	gctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := st.FeedContext(gctx, chunk); !errors.Is(err, ErrCanceled) ||
		!errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked feed err = %v", err)
	}
	if b, _ := st.Queued(); b != 16 {
		t.Fatalf("rejected chunk was queued: %d bytes", b)
	}

	close(gate) // release the dispatcher
	// Retry the same chunk and finish: output must equal an uninterrupted run.
	if err := st.Feed(chunk); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := streamOracle(t, m, bytes.Repeat(chunk, 4))
	mu.Lock()
	defer mu.Unlock()
	if !sameHits(got, want) {
		t.Fatalf("got %d hits, want %d", len(got), len(want))
	}
}

// TestStreamServerFairnessSlicing pins the WithStreamBatch knob: a hot
// stream's large backlog is scanned in bounded slices across many phases
// rather than one monopolizing phase, and a light stream fed mid-drain
// completes promptly.
func TestStreamServerFairnessSlicing(t *testing.T) {
	m := streamServerMatcher(t)
	srv := m.NewStreamServer(WithStreamQueue(4<<20), WithStreamBatch(32<<10))
	defer srv.Close()

	hot, err := srv.Open(func(int64, int) {})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("abracadabra."), 1024) // 12 KiB per feed
	for i := 0; i < 64; i++ {                             // 768 KiB backlog
		if err := hot.Feed(payload); err != nil {
			t.Fatal(err)
		}
	}
	light, err := srv.Open(func(int64, int) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := light.Feed([]byte("abracadabra")); err != nil {
		t.Fatal(err)
	}
	if err := light.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hot.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	// 768 KiB through a 32 KiB per-phase slice needs ≥ 24 phases; a server
	// that ignored the budget would do it in ~8 (one per feed) or fewer.
	if st.Batches < 16 {
		t.Fatalf("hot backlog drained in %d batches; fairness slicing is not bounding phases", st.Batches)
	}
}

// TestStreamServerCloseSemantics covers the lifecycle edges: feeds after
// stream close, idempotent close, canceled close waits, opens and feeds
// after server close, and close-time drain of queued work.
func TestStreamServerCloseSemantics(t *testing.T) {
	m := streamServerMatcher(t)
	srv := m.NewStreamServer()

	var emitted int
	st, err := srv.Open(func(int64, int) { emitted++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Feed([]byte("xxabracadabraxx")); err != nil {
		t.Fatal(err)
	}
	// Canceled CloseContext: stops waiting, close proceeds in background.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.CloseContext(dead); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled close err = %v", err)
	}
	if err := st.Close(); err != nil { // idempotent, waits for the flush
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if emitted == 0 {
		t.Fatal("closed stream emitted nothing")
	}
	if err := st.Feed([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("feed after close err = %v", err)
	}

	// Server close drains queued work of still-open streams.
	var lateEmits int
	late, err := srv.Open(func(int64, int) { lateEmits++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Feed(bytes.Repeat([]byte("abracadabra."), 100)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if lateEmits == 0 {
		t.Fatal("server close dropped queued work")
	}
	if st := srv.Stats(); st.QueuedBytes != 0 {
		t.Fatalf("closed server still queues %d bytes", st.QueuedBytes)
	}

	if _, err := srv.Open(func(int64, int) {}); !errors.Is(err, ErrStreamServerClosed) {
		t.Fatalf("open after close err = %v", err)
	}
	if err := late.Feed([]byte("x")); !errors.Is(err, ErrStreamServerClosed) &&
		!errors.Is(err, io.ErrClosedPipe) {
		// A feed racing server close may land in the queue (accepted) or be
		// refused; after Close returned it must be refused one way or the
		// other. The unflushed stream also reports server-closed on Close.
		t.Fatalf("feed after server close err = %v", err)
	}
	if err := late.Close(); !errors.Is(err, ErrStreamServerClosed) {
		t.Fatalf("stream close after server close err = %v", err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestStreamServerIdleStreamPinsNoChunk: once a stream's chunks are scanned,
// the server keeps none of their queued copies, so an idle open stream holds
// its session and nothing of what it was fed.
func TestStreamServerIdleStreamPinsNoChunk(t *testing.T) {
	m := streamServerMatcher(t)
	srv := m.NewStreamServer()
	defer srv.Close()
	const streams, size = 16, 1 << 20
	chunk := bytes.Repeat([]byte("abracadabra boundary "), size/21)
	sts := make([]*ServerStream, streams)
	for i := range sts {
		st, err := srv.Open(func(int64, int) {})
		if err != nil {
			t.Fatal(err)
		}
		sts[i] = st
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for _, st := range sts {
		if err := st.Feed(chunk); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Chunks < streams {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d chunks scanned", srv.Stats().Chunks, streams)
		}
		time.Sleep(time.Millisecond)
	}
	if grown := heap() - before; grown > streams*size/2 {
		t.Fatalf("%d idle streams hold %d bytes after scanning %d-byte chunks", streams, grown, len(chunk))
	}
	runtime.KeepAlive(sts)
}

// TestStreamServerBatchSpreadsOverPool: the streams of one batch are scanned
// on every participant of the pool, however few they are. Two streams are
// queued behind a gated one so they form one batch, and each one's emit
// waits for the other's to start: both finish on time only if the batch ran
// them at once.
func TestStreamServerBatchSpreadsOverPool(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	m, err := NewMatcher([][]byte{[]byte("ab")}, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	srv := m.NewStreamServer()
	defer srv.Close()

	gate, gated := make(chan struct{}), make(chan struct{})
	g, err := srv.Open(func(int64, int) {
		close(gated)
		<-gate
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Feed([]byte("ab.")); err != nil {
		t.Fatal(err)
	}
	<-gated // the dispatcher is inside g's batch

	var started sync.WaitGroup
	started.Add(2)
	both := make(chan struct{})
	go func() { started.Wait(); close(both) }()
	var met sync.WaitGroup
	met.Add(2)
	concurrent := make([]bool, 2)
	for i := range concurrent {
		st, err := srv.Open(func(int64, int) {
			started.Done()
			select {
			case <-both:
				concurrent[i] = true
			case <-time.After(5 * time.Second):
			}
			met.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Feed([]byte("ab.")); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	met.Wait()
	if !concurrent[0] || !concurrent[1] {
		t.Fatalf("the two streams of one batch ran one after the other: %v", concurrent)
	}
}

// TestStreamServerEmitEquivalenceTinyChunks drives 1-byte feeds through the
// server and checks the emits equal the whole-text longest-per-position scan
// (the multiplexed path inherits the stream core's O(1)/byte property).
func TestStreamServerEmitEquivalenceTinyChunks(t *testing.T) {
	m := streamServerMatcher(t)
	srv := m.NewStreamServer()
	defer srv.Close()
	text := []byte("abracadabra boundary abrandarboundary cad")
	want := streamOracle(t, m, text)

	var got []hit
	st, err := srv.Open(func(pos int64, pat int) { got = append(got, hit{pos, pat}) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range text {
		if err := st.Feed(text[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !sameHits(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}
