package pardict

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pardict/internal/obs"
)

func cancelTestMatcher(t *testing.T, opts ...Option) *Matcher {
	t.Helper()
	m, err := NewMatcher([][]byte{
		[]byte("abra"), []byte("abracadabra"), []byte("cad"), []byte("ra"),
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cancelTestText(n int) []byte {
	return bytes.Repeat([]byte("abracadabra."), n)
}

func TestMatchContextAlreadyCanceled(t *testing.T) {
	m := cancelTestMatcher(t)
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	r, err := m.MatchContext(gctx, cancelTestText(20000))
	if err == nil {
		t.Fatal("want error from canceled context")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if r != nil {
		t.Fatal("canceled match must not return a result")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("canceled match took %v; want prompt return", d)
	}
}

func TestMatchContextDeadline(t *testing.T) {
	m := cancelTestMatcher(t)
	gctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := m.MatchContext(gctx, cancelTestText(1000))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v must wrap ErrCanceled and DeadlineExceeded", err)
	}
}

func TestMatchContextSuccessMatchesMatch(t *testing.T) {
	m := cancelTestMatcher(t)
	text := cancelTestText(50)
	want := m.Match(text)
	got, err := m.MatchContext(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Len(); i++ {
		wp, wok := want.Longest(i)
		gp, gok := got.Longest(i)
		if wp != gp || wok != gok {
			t.Fatalf("position %d: MatchContext %d/%v, Match %d/%v", i, gp, gok, wp, wok)
		}
	}
	if want.Stats() != got.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", got.Stats(), want.Stats())
	}
}

// TestMidMatchCancelDoesNotWedgePool cancels matches in flight on a shared
// explicit pool and verifies both that the canceled calls return and that the
// pool still completes fresh matches afterwards.
func TestMidMatchCancelDoesNotWedgePool(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	m := cancelTestMatcher(t, WithPool(pool))
	text := cancelTestText(20000)

	for rep := 0; rep < 5; rep++ {
		gctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		errs := make([]error, 3)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				_, errs[g] = m.MatchContext(gctx, text)
			}(g)
		}
		time.Sleep(time.Duration(rep) * time.Millisecond)
		cancel()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("canceled matches did not return")
		}
		for g, err := range errs {
			if err != nil && !errors.Is(err, ErrCanceled) {
				t.Fatalf("rep %d goroutine %d: unexpected error %v", rep, g, err)
			}
		}
	}

	// Pool must still work.
	r, err := m.MatchContext(context.Background(), []byte("xabracadabrax"))
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := r.Longest(1); !ok || !bytes.Equal(m.Pattern(p), []byte("abracadabra")) {
		t.Fatalf("post-cancel match wrong: %d %v", p, ok)
	}
}

// TestMatchContextCanceledInWindowPass cancels a filtered match once the
// scheduler has seen its third phase — the prefilter screen, the fill of
// Pat, then the first phase of the cascade over the survivors' windows: the
// call must return ErrCanceled and no result. Not parallel: obs.SetEnabled
// is process-global.
func TestMatchContextCanceledInWindowPass(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	pool := NewPool(2)
	defer pool.Close()
	m := cancelTestMatcher(t, WithEngine(EngineGeneral), WithPrefilter(PrefilterOn), WithPool(pool))
	// One occurrence per 200 bytes: the windows cover about a tenth of the
	// text, so the match takes the window path.
	text := bytes.Repeat(append([]byte("abracadabra"), bytes.Repeat([]byte{'.'}, 189)...), 1<<14)
	for attempt := 0; attempt < 10; attempt++ {
		gctx, cancel := context.WithCancel(context.Background())
		phases := pool.Stats().Phases
		go func() {
			for pool.Stats().Phases < phases+3 {
				runtime.Gosched()
			}
			cancel()
		}()
		r, err := m.MatchContext(gctx, text)
		cancel()
		if err == nil {
			continue // the match outran the cancel; try again
		}
		if !errors.Is(err, ErrCanceled) || r != nil {
			t.Fatalf("err = %v, result %v; want ErrCanceled and no result", err, r)
		}
		return
	}
	t.Fatal("no attempt was canceled during the window pass")
}

func TestMatchContextNoGoroutineLeak(t *testing.T) {
	m := cancelTestMatcher(t)
	// Warm the shared pool.
	if _, err := m.MatchContext(context.Background(), cancelTestText(10)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	base := runtime.NumGoroutine()
	text := cancelTestText(2000)
	for rep := 0; rep < 25; rep++ {
		gctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := m.MatchContext(gctx, text); !errors.Is(err, ErrCanceled) {
			t.Fatalf("rep %d: err = %v", rep, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	if got := runtime.NumGoroutine(); got > base+3 {
		t.Fatalf("goroutines grew %d -> %d after canceled matches", base, got)
	}
}

func TestMatchBatch(t *testing.T) {
	m := cancelTestMatcher(t)
	texts := make([][]byte, 9)
	for i := range texts {
		texts[i] = cancelTestText(i + 1)
	}
	rs, err := m.MatchBatch(context.Background(), texts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(texts) {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		want := m.Match(texts[i])
		if r == nil || r.Len() != want.Len() || r.Count() != want.Count() {
			t.Fatalf("text %d: batch result diverges from Match", i)
		}
	}
	// Empty batch.
	if rs, err := m.MatchBatch(context.Background(), nil); err != nil || len(rs) != 0 {
		t.Fatalf("empty batch: %v %v", rs, err)
	}
}

func TestMatchBatchCanceled(t *testing.T) {
	m := cancelTestMatcher(t)
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	texts := make([][]byte, 16)
	for i := range texts {
		texts[i] = cancelTestText(500)
	}
	rs, err := m.MatchBatch(gctx, texts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if rs != nil {
		t.Fatal("canceled batch must not return partial results")
	}
}

func TestDynamicMatchContextCanceled(t *testing.T) {
	dm, err := NewDynamicMatcher()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dm.Insert([]byte("needle")); err != nil {
		t.Fatal(err)
	}
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dm.MatchContext(gctx, cancelTestText(1000)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	// Matcher unaffected afterwards.
	r, err := dm.MatchContext(context.Background(), []byte("a needle here"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Longest(2); !ok {
		t.Fatal("post-cancel dynamic match failed")
	}
}

func TestMatch2DContextCanceled(t *testing.T) {
	m, err := NewMatcher2D([][][]byte{
		{[]byte("ab"), []byte("cd")},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := make([][]byte, 64)
	for i := range text {
		text[i] = bytes.Repeat([]byte("abcd"), 16)
	}
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Match2DContext(gctx, text); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Match2DContext(context.Background(), text); err != nil {
		t.Fatal(err)
	}
}

func TestMatch3DContextCanceled(t *testing.T) {
	m, err := NewMatcher3D([][][][]byte{
		{{[]byte("ab"), []byte("cd")}, {[]byte("ef"), []byte("gh")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := make([][][]byte, 16)
	for z := range text {
		text[z] = make([][]byte, 16)
		for y := range text[z] {
			text[z][y] = bytes.Repeat([]byte("abcdefgh"), 2)
		}
	}
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Match3DContext(gctx, text); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Match3DContext(context.Background(), text); err != nil {
		t.Fatal(err)
	}
}

func TestStreamFeedContextCanceledIsRetryable(t *testing.T) {
	m := cancelTestMatcher(t)
	var got []int64
	s := m.Stream(func(pos int64, pat int) { got = append(got, pos) })

	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	chunk := cancelTestText(100)
	if err := s.FeedContext(gctx, chunk); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if len(got) != 0 {
		t.Fatal("canceled feed must not emit")
	}
	if s.Offset() != 0 {
		t.Fatal("canceled feed must not advance the stream")
	}
	// Retry with an empty chunk under a live context: the buffered bytes are
	// reprocessed and the stream catches up to a never-canceled run.
	if err := s.FeedContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var want []int64
	sw := m.Stream(func(pos int64, pat int) { want = append(want, pos) })
	if err := sw.Feed(chunk); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("retry emitted %d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d at %d, want %d", i, got[i], want[i])
		}
	}

	// A feed that stays within the hold is canceled too: the error, the bytes
	// kept, and a retry that catches up.
	got = got[:0]
	s = m.Stream(func(pos int64, pat int) { got = append(got, pos) })
	if err := s.FeedContext(gctx, []byte("ab")); !errors.Is(err, ErrCanceled) {
		t.Fatalf("short feed under a dead context: err = %v", err)
	}
	if s.Pending() != 2 || s.Offset() != 0 {
		t.Fatalf("canceled short feed: pending %d offset %d, want 2 and 0", s.Pending(), s.Offset())
	}
	if err := s.FeedContext(context.Background(), []byte("racadabra")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 2 4 7 9]" { // abracadabra, ra, cad, abra, ra
		t.Fatalf("retried short feed emitted %v", got)
	}
}

// cancelAfter is a context that turns canceled once Err has been asked n
// times: a cancellation landing between two scan segments of one feed.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestStreamCanceledMidFeedRetry cancels a 1 MiB feed after ten scan
// segments. Nothing may be emitted and the stream may not advance; the
// retried feed must then emit exactly what an uncanceled run emits, and leave
// no unscanned bytes behind.
func TestStreamCanceledMidFeedRetry(t *testing.T) {
	m := cancelTestMatcher(t)
	type hit struct {
		pos int64
		pat int
	}
	chunk := cancelTestText(1 << 20 / 12)
	var want, got []hit
	sw := m.Stream(func(pos int64, pat int) { want = append(want, hit{pos, pat}) })
	if err := sw.Feed(chunk); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	s := m.Stream(func(pos int64, pat int) { got = append(got, hit{pos, pat}) })
	err := s.FeedContext(&cancelAfter{context.Background(), 10}, chunk)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(got) != 0 || s.Offset() != 0 || s.Pending() != len(chunk) {
		t.Fatalf("canceled feed: %d emits, offset %d, pending %d", len(got), s.Offset(), s.Pending())
	}
	if err := s.FeedContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if s.ses.Unscanned() != 0 || s.Pending() != m.MaxLen()-1 {
		t.Fatalf("after the retry: %d unscanned, %d pending", s.ses.Unscanned(), s.Pending())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("retry emitted %d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: %v, want %v", i, got[i], want[i])
		}
	}
}
