// Package streamcore is the resumable incremental-scan core behind the
// public streaming API (StreamMatcher, StreamServer). It solves the streaming
// half of the dictionary-matching problem the way the sequential yardstick
// does — one Aho–Corasick automaton over the dictionary — but split into a
// shared immutable Core and a per-stream Session so thousands of live streams
// can share one compiled dictionary with small per-stream state.
//
// The crucial property is that every input byte is stepped through the
// automaton exactly once, no matter how the input is chunked: the Session
// saves the automaton state at the buffer boundary and resumes from it,
// instead of re-matching the MaxLen-1 hold-back bytes on every chunk the way
// a block matcher over the carry would. Feeding a stream byte-by-byte
// therefore costs O(1) amortized per byte, not O(MaxLen).
//
// The Core compiles the automaton into a byte-class transition table
// (ahocorasick.DFA) that folds in the alphabet encoder, so a session steps
// its raw buffered bytes with one table read each; the table is capped at
// tableBudget bytes, and states past the cap keep a sparse row and failure
// link. The kernel finalizes positions while it scans: a fixed ring of
// pow2 ≥ MaxLen slots holds the longest pending pattern of each undecided
// position, and once a position is Hold bytes behind the scan its match, if
// any, moves to a hit buffer. Per-stream state at rest is that ring and one
// saved automaton state; the unscanned bytes and the hit buffer are pooled
// scratch that a session holds only between Buffer and EmitFinal. The output
// (longest pattern per start position, the paper's §2 format) is
// byte-for-byte the block matcher's, which the stream differential and fuzz
// oracles enforce.
package streamcore

import (
	"pardict/internal/ahocorasick"
	"pardict/internal/alpha"
	"pardict/internal/pram"
)

// tableBudget caps a Core's dense transition table. Breadth-first rows for
// a dictionary over 48 byte classes cost 96 bytes each, so the cap holds
// about 10,000 states' rows at that width — every state of a 500-pattern
// log dictionary — and about 2,000 rows when patterns use all 256 byte
// values.
const tableBudget = 1 << 20

// maxPooled caps the scratch a session returns to the slab pools: carries
// of at most this many bytes and hit buffers of at most this many entries.
// Larger buffers come from one huge Feed; they are left to the collector
// rather than pinned in a pool.
const maxPooled = 64 << 10

// Core is the immutable, shareable part of streaming state: the sequential
// automaton compiled from the dictionary into a byte-class table. One Core
// serves any number of concurrent Sessions.
type Core struct {
	dfa      *ahocorasick.DFA
	ringSize int // pow2 ≥ MaxLen: every undecided position has its own slot
}

// NewCore compiles the streaming core for a dictionary encoded by enc. The
// encoded patterns must be non-empty (the public constructors already
// enforce that).
func NewCore(encoded [][]int32, enc *alpha.Encoder) (*Core, error) {
	return newCore(encoded, enc, tableBudget)
}

// newCore is NewCore with the table budget as a parameter, so tests can
// force most states onto the sparse path.
func newCore(encoded [][]int32, enc *alpha.Encoder, budget int) (*Core, error) {
	dfa, err := ahocorasick.NewDFA(encoded, enc, budget)
	if err != nil {
		return nil, err
	}
	c := &Core{dfa: dfa, ringSize: 1}
	for c.ringSize <= dfa.Hold() {
		c.ringSize <<= 1
	}
	return c, nil
}

// NewSession returns a fresh stream over the core, positioned at offset 0.
func (c *Core) NewSession() *Session {
	s := &Session{core: c, ring: make([]int32, c.ringSize)}
	for i := range s.ring {
		s.ring[i] = -1
	}
	return s
}

// Session is one stream's resumable state. The zero value is not usable;
// construct with Core.NewSession. A Session is not safe for concurrent use.
//
// Layout: carry[next:] are the buffered bytes the automaton has not consumed;
// cur is the automaton's place in the stream (cur.Pos is the position of
// carry[next]); ring holds the longest pending pattern of each undecided
// position (the Hold newest scanned ones); hits holds the matches of the
// finalized positions from offset on, counted from offset (cur.Last is
// offset whenever hits is empty).
type Session struct {
	core   *Core
	ring   []int32
	cur    ahocorasick.Cursor
	carry  []byte   // pooled; nil when every buffered byte is scanned
	next   int      // carry[:next] is scanned
	hits   []uint64 // pooled; taken by Scan, returned by EmitFinal
	offset int64    // absolute position of the next unemitted position
	total  int64    // lifetime bytes stepped through the automaton
}

// Buffer appends chunk to the stream without scanning it. Cheap and
// unconditional: cancellation-safe entry points buffer first, scan under
// the context, and emit last.
func (s *Session) Buffer(chunk []byte) {
	if len(chunk) == 0 {
		return
	}
	rest := s.carry[s.next:]
	if need := len(rest) + len(chunk); need > cap(s.carry) {
		grown := append(pram.AcquireBytes(need)[:0], rest...)
		release(s.carry, pram.ReleaseBytes)
		s.carry = grown
	} else {
		s.carry = s.carry[:copy(s.carry, rest)]
	}
	s.next = 0
	s.carry = append(s.carry, chunk...)
}

// Unscanned reports how many buffered bytes the automaton has not consumed.
func (s *Session) Unscanned() int { return len(s.carry) - s.next }

// Scan steps the automaton over at most limit unscanned bytes (limit <= 0
// means all of them), finalizing the positions it passes, and reports how
// many bytes it consumed. Scanning is unobservable on its own — nothing is
// emitted and Offset does not move — so a caller may scan in bounded segments
// with cancellation checks in between and still abandon the operation
// "before" any visible effect. Consumed bytes are dropped: once the carry is
// drained it goes back to the pools.
func (s *Session) Scan(limit int) int {
	n := s.Unscanned()
	if n <= 0 {
		return 0
	}
	if limit > 0 && n > limit {
		n = limit
	}
	// Each scanned byte finalizes at most one position; reserve that much
	// room from the pools while it stays poolable, so the kernel's appends
	// do not allocate.
	if want := len(s.hits) + n; want > cap(s.hits) && want <= maxPooled {
		grown := append(pram.AcquireUint64(want)[:0], s.hits...)
		release(s.hits, pram.ReleaseUint64)
		s.hits = grown
	}
	s.hits = s.core.dfa.Scan(&s.cur, s.carry[s.next:s.next+n], s.ring, s.hits)
	s.next += n
	s.total += int64(n)
	if s.next == len(s.carry) {
		release(s.carry, pram.ReleaseBytes)
		s.carry, s.next = nil, 0
	}
	return n
}

// EmitFinal emits, in increasing position order, the longest match at every
// finalized position — scanned positions more than Hold bytes behind the
// newest scanned byte, whose longest match no future input can change — then
// advances the stream past them. Returns how many positions were finalized.
func (s *Session) EmitFinal(emit func(pos int64, pattern int)) int {
	final := max(s.cur.Pos-int64(s.core.dfa.Hold())-s.offset, 0)
	ahocorasick.EachHit(s.hits, s.offset, emit)
	release(s.hits, pram.ReleaseUint64)
	s.hits = nil
	s.offset += final
	s.cur.Last = s.offset
	return int(final)
}

// Flush emits every pending match including the hold-back region and drains
// the buffer: the stream is at its end. The session must be fully scanned
// (Unscanned() == 0). The session may keep being fed afterwards, in which
// case it behaves as a fresh stream continuing at the same offset.
func (s *Session) Flush(emit func(pos int64, pattern int)) {
	s.EmitFinal(emit)
	// The undecided tail is [offset, cur.Pos). Clearing its slots also
	// readies the ring for the next stream, whose first Hold reads land on
	// them.
	mask := int64(len(s.ring) - 1)
	for ; s.offset < s.cur.Pos; s.offset++ {
		if p := s.ring[s.offset&mask]; p >= 0 {
			emit(s.offset, int(p))
			s.ring[s.offset&mask] = -1
		}
	}
	s.cur.State, s.cur.Last = 0, s.offset
}

// Offset reports the absolute offset of the next unemitted position.
func (s *Session) Offset() int64 { return s.offset }

// Pending reports how many bytes are buffered awaiting finalization: the
// scanned positions not yet emitted plus the unscanned bytes.
func (s *Session) Pending() int { return int(s.cur.Pos-s.offset) + s.Unscanned() }

// ScannedBytes reports the lifetime number of bytes stepped through the
// automaton — exactly the bytes fed, each counted once, which is the
// structural O(1)-amortized-per-byte guarantee the regression test pins.
func (s *Session) ScannedBytes() int64 { return s.total }

// release hands a buffer back to its slab pool unless it is over maxPooled.
func release[T any](b []T, put func([]T)) {
	if cap(b) <= maxPooled {
		put(b)
	}
}
