package pardict

import (
	"context"
	"fmt"
	"io"

	"pardict/internal/obs"
	"pardict/internal/streamcore"
)

// StreamMatcher scans an unbounded input incrementally: feed it chunks of
// any size and it emits each finalized match exactly once, with absolute
// stream offsets. A position's longest match is determined by the next
// MaxLen bytes, so the matcher holds back the trailing MaxLen−1 bytes of
// what it has seen until more input (or Close) arrives.
//
// Each byte is scanned exactly once regardless of chunking: the matcher
// resumes its automaton from the saved state at the carry boundary, so
// feeding byte-by-byte costs O(1) amortized per byte (it does not re-match
// the hold-back region on every Feed). Per-stream state is O(MaxLen) between
// feeds; a feed borrows pooled scratch for its unscanned bytes and hits.
//
// A StreamMatcher is single-stream state; use one per stream (the underlying
// Matcher is shared and immutable). Not safe for concurrent use — for many
// concurrent streams over one dictionary, see StreamServer.
type StreamMatcher struct {
	ses    *streamcore.Session
	emit   func(pos int64, pattern int)
	closed bool
}

// Stream returns a new streaming scanner over m's dictionary. Matches are
// reported to emit as (absolute start offset, pattern index), in increasing
// offset order; emit receives only the longest pattern per position (use
// Matcher.All on a block-level Matches if the full set is needed).
func (m *Matcher) Stream(emit func(pos int64, pattern int)) *StreamMatcher {
	return &StreamMatcher{ses: m.streamCore().NewSession(), emit: emit}
}

// Feed appends chunk to the stream and emits every match that is now final.
// It may be called with chunks of any size, including empty.
func (s *StreamMatcher) Feed(chunk []byte) error {
	return s.FeedContext(context.Background(), chunk)
}

// streamScanSegment bounds the bytes scanned between cancellation checks in
// FeedContext/CloseContext: large enough that the per-check overhead
// vanishes, small enough that cancellation lands within microseconds.
const streamScanSegment = 4096

// FeedContext is Feed under a context. On cancellation it returns an error
// wrapping ErrCanceled before emitting anything or advancing the stream: the
// fed bytes are retained, so the stream stays consistent and the caller may
// resume by calling FeedContext again (an empty chunk reprocesses what is
// buffered).
func (s *StreamMatcher) FeedContext(gctx context.Context, chunk []byte) error {
	if s.closed {
		return io.ErrClosedPipe
	}
	s.ses.Buffer(chunk)
	if err := s.scan(gctx); err != nil {
		return err
	}
	s.ses.EmitFinal(s.emit)
	return nil
}

// scan drives the session's automaton over everything buffered, in bounded
// segments with a cancellation check between them. Scan progress is
// unobservable (nothing is emitted, Offset does not move), so a canceled call
// leaves the stream exactly as documented: bytes retained, nothing advanced.
func (s *StreamMatcher) scan(gctx context.Context) error {
	var err error
	obs.Do(gctx, func(context.Context) {
		for s.ses.Unscanned() > 0 {
			if err = streamCanceled(gctx); err != nil {
				return
			}
			s.ses.Scan(streamScanSegment)
		}
	}, "op", "stream")
	return err
}

// streamCanceled reports a dead context as the public streaming error,
// wrapping both ErrCanceled and the context's own cause.
func streamCanceled(gctx context.Context) error {
	if gctx == nil {
		return nil
	}
	if cerr := gctx.Err(); cerr != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, cerr)
	}
	return nil
}

// Close flushes the held-back tail, emitting its matches, and invalidates
// the stream.
func (s *StreamMatcher) Close() error {
	return s.CloseContext(context.Background())
}

// CloseContext is Close under a context. On cancellation the stream is NOT
// invalidated: the tail stays buffered and no matches are emitted, so the
// caller may retry CloseContext (or keep feeding).
func (s *StreamMatcher) CloseContext(gctx context.Context) error {
	if s.closed {
		return nil
	}
	if s.ses.Pending() == 0 {
		s.closed = true
		return nil
	}
	if err := streamCanceled(gctx); err != nil {
		return err
	}
	if err := s.scan(gctx); err != nil {
		return err
	}
	s.closed = true
	s.ses.Flush(s.emit)
	return nil
}

// Offset reports the absolute offset of the next unfinalized position.
func (s *StreamMatcher) Offset() int64 { return s.ses.Offset() }

// Pending reports how many bytes are currently held back awaiting
// finalization.
func (s *StreamMatcher) Pending() int { return s.ses.Pending() }

// MatchReader scans everything from r in blocks of blockSize (≤ 0 selects a
// default sized well above MaxLen) and emits each match once. It is the
// io.Reader convenience over Stream.
func (m *Matcher) MatchReader(r io.Reader, blockSize int, emit func(pos int64, pattern int)) error {
	if blockSize <= 0 {
		blockSize = 1 << 16
	}
	if blockSize < m.MaxLen() {
		blockSize = m.MaxLen()
	}
	s := m.Stream(emit)
	buf := make([]byte, blockSize)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if ferr := s.Feed(buf[:n]); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return s.Close()
		}
		if err != nil {
			return err
		}
	}
}
