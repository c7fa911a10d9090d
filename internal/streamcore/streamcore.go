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
// link. Per-stream state is O(carry): the unemitted byte buffer, one saved
// automaton state, and a position ring holding the longest pending pattern
// per unemitted start position. The output (longest pattern per start
// position, the paper's §2 format) is byte-for-byte the block matcher's,
// which the stream differential and fuzz oracles enforce.
package streamcore

import (
	"pardict/internal/ahocorasick"
	"pardict/internal/alpha"
)

// ringMin is the smallest position ring allocated; rings are power-of-two
// sized so positions index them by masking.
const ringMin = 16

// tableBudget caps a Core's dense transition table. Breadth-first rows for
// a dictionary over 48 byte classes cost 192 bytes each, so the cap holds
// about 5,000 states' rows at that width — every state of a 500-pattern log
// dictionary — and about 1,000 rows when patterns use all 256 byte values.
const tableBudget = 1 << 20

// Core is the immutable, shareable part of streaming state: the sequential
// automaton compiled from the dictionary into a byte-class table. One Core
// serves any number of concurrent Sessions.
type Core struct {
	dfa       *ahocorasick.DFA
	maxLen    int
	hold      int // trailing bytes withheld until more input decides them
	ringFloor int // steady-state ring size: pow2 ≥ max(maxLen, ringMin)
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
	maxLen := 0
	for _, p := range encoded {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	hold := maxLen - 1
	if hold < 0 {
		hold = 0
	}
	return &Core{dfa: dfa, maxLen: maxLen, hold: hold,
		ringFloor: pow2ceil(max(maxLen, ringMin))}, nil
}

// MaxLen reports the longest pattern length m.
func (c *Core) MaxLen() int { return c.maxLen }

// Hold reports how many trailing bytes a session withholds from emission
// (MaxLen-1): a position's longest match is decided by the next MaxLen bytes.
func (c *Core) Hold() int { return c.hold }

// NewSession returns a fresh stream over the core, positioned at offset 0.
func (c *Core) NewSession() *Session {
	s := &Session{core: c, ring: make([]int32, c.ringFloor)}
	for i := range s.ring {
		s.ring[i] = -1
	}
	return s
}

// Session is one stream's resumable state. The zero value is not usable;
// construct with Core.NewSession. A Session is not safe for concurrent use.
//
// Layout: carry holds every buffered byte not yet emitted, carry[0] sitting
// at absolute stream offset offset; carry[:scanned] has been stepped through
// the automaton (state is the automaton state after those bytes); ring maps
// absolute position p to the longest pattern starting at p (ring[p&mask]),
// valid for the scanned, unemitted span.
type Session struct {
	core    *Core
	carry   []byte
	offset  int64 // absolute stream offset of carry[0]
	scanned int   // carry[:scanned] is behind the automaton state
	state   int32
	ring    []int32
	total   int64 // lifetime bytes stepped through the automaton
}

// Buffer appends chunk to the stream without scanning it. Cheap and
// unconditional: cancellation-safe entry points buffer first, scan under
// the context, and emit last.
func (s *Session) Buffer(chunk []byte) {
	s.carry = append(s.carry, chunk...)
}

// Unscanned reports how many buffered bytes the automaton has not consumed.
func (s *Session) Unscanned() int { return len(s.carry) - s.scanned }

// Scan steps the automaton over at most limit unscanned bytes (limit <= 0
// means all of them), recording pending matches in the ring, and reports how
// many bytes it consumed. Scanning is unobservable on its own — nothing is
// emitted and Offset does not move — so a caller may scan in bounded segments
// with cancellation checks in between and still abandon the operation
// "before" any visible effect.
func (s *Session) Scan(limit int) int {
	n := s.Unscanned()
	if n <= 0 {
		return 0
	}
	if limit > 0 && n > limit {
		n = limit
	}
	s.ensureRing(s.scanned + n)
	s.state = s.core.dfa.Scan(s.state, s.carry[s.scanned:s.scanned+n], s.offset+int64(s.scanned), s.ring)
	s.scanned += n
	s.total += int64(n)
	return n
}

// EmitFinal emits, in increasing position order, the longest match at every
// finalized position — scanned positions more than Hold bytes behind the
// newest scanned byte, whose longest match no future input can change — then
// advances the stream past them. Returns how many positions were finalized.
func (s *Session) EmitFinal(emit func(pos int64, pattern int)) int {
	final := s.scanned - s.core.hold
	if final <= 0 {
		return 0
	}
	s.emitRange(final, emit)
	s.offset += int64(final)
	s.carry = shrinkCarry(s.carry, final)
	s.scanned -= final
	s.shrinkRing()
	return final
}

// Flush emits every pending match including the hold-back region and drains
// the buffer: the stream is at its end. The session must be fully scanned
// (Unscanned() == 0). The session may keep being fed afterwards, in which
// case it behaves as a fresh stream continuing at the same offset.
func (s *Session) Flush(emit func(pos int64, pattern int)) {
	s.emitRange(s.scanned, emit)
	s.offset += int64(len(s.carry))
	s.carry = nil
	s.scanned = 0
	s.state = 0
	s.shrinkRing()
}

// emitRange emits positions [offset, offset+n) from the ring.
func (s *Session) emitRange(n int, emit func(pos int64, pattern int)) {
	mask := int64(len(s.ring) - 1)
	for j := 0; j < n; j++ {
		pos := s.offset + int64(j)
		if p := s.ring[pos&mask]; p >= 0 {
			emit(pos, int(p))
		}
	}
}

// Offset reports the absolute offset of the next unemitted position.
func (s *Session) Offset() int64 { return s.offset }

// Pending reports how many bytes are buffered awaiting finalization.
func (s *Session) Pending() int { return len(s.carry) }

// Hold is Core.Hold for this session's dictionary.
func (s *Session) Hold() int { return s.core.hold }

// ScannedBytes reports the lifetime number of bytes stepped through the
// automaton — exactly the bytes fed, each counted once, which is the
// structural O(1)-amortized-per-byte guarantee the regression test pins.
func (s *Session) ScannedBytes() int64 { return s.total }

// CarryCap exposes the carry backing capacity (shrink-policy tests).
func (s *Session) CarryCap() int { return cap(s.carry) }

// RingLen exposes the position-ring size (shrink-policy tests).
func (s *Session) RingLen() int { return len(s.ring) }

// ensureRing grows the ring to cover n live positions. Rehashing moves the
// scanned span's entries to their slots under the new mask; everything else
// is reset (unscanned positions clear their slot when scanned).
func (s *Session) ensureRing(n int) {
	if len(s.ring) >= n {
		return
	}
	s.rehashRing(pow2ceil(n))
}

// shrinkRing mirrors shrinkCarry: one huge feed grows the ring to cover the
// whole buffered span, and keeping it would pin that footprint on every
// small stream forever after. Once the live span is back near steady state,
// drop to the right size.
func (s *Session) shrinkRing() {
	target := s.core.ringFloor
	if n := pow2ceil(len(s.carry)); n > target {
		target = n
	}
	if len(s.ring) > 4*target {
		s.rehashRing(target)
	}
}

func (s *Session) rehashRing(size int) {
	old := s.ring
	oldMask := int64(len(old) - 1)
	s.ring = make([]int32, size)
	for i := range s.ring {
		s.ring[i] = -1
	}
	mask := int64(size - 1)
	for i := 0; i < s.scanned; i++ {
		pos := s.offset + int64(i)
		if v := old[pos&oldMask]; v >= 0 {
			s.ring[pos&mask] = v
		}
	}
}

// shrinkCarry drops the finalized prefix of the carry buffer. Reslicing in
// place would pin the largest buffer any Feed ever produced (the backing
// array only ever grows); once the live tail is a small fraction of the
// capacity, copy it into a right-sized allocation instead.
func shrinkCarry(carry []byte, final int) []byte {
	rem := len(carry) - final
	if cap(carry) > 64 && cap(carry) > 4*rem {
		fresh := make([]byte, rem)
		copy(fresh, carry[final:])
		return fresh
	}
	return append(carry[:0], carry[final:]...)
}

func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
