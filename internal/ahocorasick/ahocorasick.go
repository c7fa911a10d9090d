// Package ahocorasick implements the classical sequential dictionary-
// matching automaton of Aho & Corasick (CACM 1975) over int32 symbols.
//
// It is the paper's sequential yardstick: O(n + M) time, which defines
// "optimal speedup" for the parallel algorithms (§1), and the correctness
// oracle for the engines on large randomized inputs.
//
// States are numbered in breadth-first order, root 0: the trie is built one
// depth at a time through a transient open-addressed edge map, so every
// state's failure link points to a smaller id. The goto function is stored in
// CSR (compressed sparse row) form: one row of sorted (symbol, child) pairs
// per state in two shared contiguous arrays, with the failure links and
// output chains in parallel arrays, so the scan loop performs no hash lookups
// and no per-node allocation at all.
//
// NewDFA also compiles the automaton for raw bytes, the streaming kernel:
// bytes fold into classes, and the shallowest states get a dense row of
// δ(v, c) — one 16-bit table read per byte — filled during the failure-link
// pass, until a byte budget is spent. Deeper states keep their sparse row
// and failure link, and so does every transition whose target id does not
// fit in 16 bits.
package ahocorasick

import (
	"errors"
	"math"
	"sort"

	"pardict/internal/alpha"
	"pardict/internal/flathash"
)

// ErrEmptyPattern reports a zero-length pattern.
var ErrEmptyPattern = errors.New("ahocorasick: empty pattern")

// Automaton is a built Aho–Corasick machine. It is immutable after New and
// safe for concurrent use.
type Automaton struct {
	// CSR goto function: edges of state u are the rows
	// [rowStart[u], rowStart[u+1]) of syms/to, sorted by symbol.
	rowStart []int32
	syms     []int32
	to       []int32
	fail     []int32
	// Output chains: emit[v] is the longest pattern ending at state v (its
	// own, or one reached through failure links), or -1; shorter[p] is the
	// next shorter pattern ending where p ends, or -1; plen[p] is p's length.
	emit    []int32
	shorter []int32
	plen    []int32
}

// DFA is an Automaton compiled for scanning raw bytes. It is immutable after
// NewDFA and safe for concurrent use.
type DFA struct {
	Automaton
	class [256]uint16 // byte -> class; class 0 labels no edge and leads to the root
	sym   [256]int32  // byte -> symbol, for the sparse rows
	nc    int         // classes, including class 0
	dense int32       // states [0, dense) have a table row
	delta []uint16    // delta[v*nc+c] = δ(v, c) for v < dense, or escape
	hold  int64       // longest pattern length − 1, at least 0
}

// escape marks a table entry whose target id does not fit in 16 bits: the
// step takes the sparse path from that state instead.
const escape = math.MaxUint16

// New builds the automaton for the given patterns. Duplicate patterns keep
// the first index (consistent with the engines rejecting duplicates; the
// oracle tolerates them for robustness).
func New(patterns [][]int32) (*Automaton, error) {
	d, err := build(patterns, nil, 0)
	if err != nil {
		return nil, err
	}
	return &d.Automaton, nil
}

// NewDFA builds the automaton for patterns encoded by enc and compiles it
// for scanning the raw bytes enc encodes. Every symbol that labels an edge
// and that some byte encodes to gets its own class; all other bytes,
// including those outside a dense encoder's alphabet, share class 0. States
// get dense rows of one uint16 per class, shallowest first, while the table
// stays within budget bytes; deeper states step through their sparse row and
// failure link.
func NewDFA(patterns [][]int32, enc *alpha.Encoder, budget int) (*DFA, error) {
	return build(patterns, enc, budget)
}

func build(patterns [][]int32, enc *alpha.Encoder, budget int) (*DFA, error) {
	d := &DFA{}
	d.plen = make([]int32, len(patterns))
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, ErrEmptyPattern
		}
		d.plen[i] = int32(len(p))
		d.hold = max(d.hold, int64(len(p)-1))
	}
	own, parent, edgeSym := insert(patterns)
	d.freezeEdges(parent, edgeSym)
	var edgeClass []int32
	if enc != nil {
		edgeClass = d.classify(enc)
		d.dense = int32(min(len(own), budget/(2*d.nc)))
		d.delta = make([]uint16, int(d.dense)*d.nc)
	}
	d.link(own, edgeClass)
	return d, nil
}

// insert builds the trie one depth at a time, so that ids follow breadth-
// first order. For each state v it returns v's own pattern (the first index
// among duplicates, or -1) and the parent and symbol of v's incoming edge.
func insert(patterns [][]int32) (own, parent, sym []int32) {
	total := 0 // edges: at most one per pattern symbol
	for _, p := range patterns {
		total += len(p)
	}
	edges := flathash.New[int32](total)
	own = append(make([]int32, 0, total+1), -1)
	parent = append(make([]int32, 0, total+1), -1)
	sym = append(make([]int32, 0, total+1), -1)
	cur := make([]int32, len(patterns))
	active := make([]int32, len(patterns))
	for i := range active {
		active[i] = int32(i)
	}
	for k := 0; len(active) > 0; k++ {
		live := active[:0]
		for _, i := range active {
			p := patterns[i]
			key := uint64(uint32(cur[i]))<<32 | uint64(uint32(p[k]))
			v, ok := edges.Get(key)
			if !ok {
				v = int32(len(own))
				own = append(own, -1)
				parent = append(parent, cur[i])
				sym = append(sym, p[k])
				edges.Put(key, v)
			}
			cur[i] = v
			if len(p) > k+1 {
				live = append(live, i)
			} else if own[v] < 0 {
				own[v] = i
			}
		}
		active = live
	}
	return own, parent, sym
}

// freezeEdges converts the edge list into the CSR arrays: count edges per
// state, prefix-sum into row starts, scatter, then sort each row by symbol
// so gotoChild can binary-search it.
func (d *DFA) freezeEdges(parent, sym []int32) {
	n := len(parent)
	d.rowStart = make([]int32, n+1)
	for v := 1; v < n; v++ {
		d.rowStart[parent[v]+1]++
	}
	for u := 0; u < n; u++ {
		d.rowStart[u+1] += d.rowStart[u]
	}
	d.syms = make([]int32, n-1)
	d.to = make([]int32, n-1)
	fill := append([]int32(nil), d.rowStart[:n]...)
	for v := 1; v < n; v++ {
		i := fill[parent[v]]
		fill[parent[v]]++
		d.syms[i] = sym[v]
		d.to[i] = int32(v)
	}
	var row acRow
	for u := 0; u < n; u++ {
		lo, hi := d.rowStart[u], d.rowStart[u+1]
		if hi-lo > 1 {
			row.syms, row.to = d.syms[lo:hi], d.to[lo:hi]
			sort.Sort(&row)
		}
	}
}

type acRow struct{ syms, to []int32 }

func (r *acRow) Len() int           { return len(r.syms) }
func (r *acRow) Less(i, j int) bool { return r.syms[i] < r.syms[j] }
func (r *acRow) Swap(i, j int) {
	r.syms[i], r.syms[j] = r.syms[j], r.syms[i]
	r.to[i], r.to[j] = r.to[j], r.to[i]
}

// classify folds the byte alphabet into classes: each symbol that labels an
// edge and that some byte encodes to gets a class, numbered from 1 in edge
// order. It returns every edge's class, or -1 where no byte encodes to the
// edge's symbol (such an edge is never taken by a byte scan).
func (d *DFA) classify(enc *alpha.Encoder) []int32 {
	var all [256]byte
	for b := range all {
		all[b] = byte(b)
	}
	copy(d.sym[:], enc.Encode(all[:]))
	var classOf [256]int32 // encoder symbol (always below 256) -> class; -1: no byte
	for s := range classOf {
		classOf[s] = -1
	}
	for _, s := range d.sym {
		if s >= 0 {
			classOf[s] = 0
		}
	}
	d.nc = 1
	edgeClass := make([]int32, len(d.syms))
	for i, s := range d.syms {
		c := int32(-1)
		if s >= 0 && s < int32(len(classOf)) && classOf[s] >= 0 {
			if classOf[s] == 0 {
				classOf[s] = int32(d.nc)
				d.nc++
			}
			c = classOf[s]
		}
		edgeClass[i] = c
	}
	for b, s := range d.sym {
		if s >= 0 {
			d.class[b] = uint16(classOf[s])
		}
	}
	return edgeClass
}

// link computes failure links and output chains in one pass over the states
// in id (breadth-first) order, and fills the table rows on the way: a dense
// state's row is its failure state's row with its own edges written over
// it, and the failure link of its child on class c is one read of that same
// failure row (or a sparse step where that entry escapes). edgeClass is nil
// when there is no table.
func (d *DFA) link(own, edgeClass []int32) {
	n := int32(len(own))
	d.fail = make([]int32, n)
	d.emit = make([]int32, n)
	d.shorter = make([]int32, len(d.plen))
	for i := range d.shorter {
		d.shorter[i] = -1
	}
	nc := d.nc
	for u := int32(0); u < n; u++ {
		f := d.fail[u]
		inherited := int32(-1)
		if u > 0 {
			inherited = d.emit[f]
		}
		d.emit[u] = inherited
		if p := own[u]; p >= 0 {
			d.emit[u] = p
			d.shorter[p] = inherited
		}
		var row []uint16
		if u < d.dense {
			row = d.delta[int(u)*nc : int(u+1)*nc]
			if u > 0 {
				copy(row, d.delta[int(f)*nc:int(f+1)*nc])
			}
		}
		for i := d.rowStart[u]; i < d.rowStart[u+1]; i++ {
			v, c := d.to[i], int32(-1)
			if edgeClass != nil {
				c = edgeClass[i]
			}
			if u > 0 {
				d.fail[v] = d.next(f, d.syms[i], c)
			}
			if row != nil && c >= 0 {
				row[c] = uint16(min(v, escape))
			}
		}
	}
}

// next returns δ(f, s), where c is s's class (-1 when no byte encodes to s):
// one read of f's table row when it has one, and otherwise the classic walk
// along failure links until a state with a row or an edge on s. An escaped
// entry means δ(f, s) is a state past the 16-bit range, which is never the
// root; a failure state's answer is then only taken where f has no edge.
func (d *DFA) next(f, s, c int32) int32 {
	for {
		if f < d.dense && c >= 0 {
			if v := d.delta[int(f)*d.nc+int(c)]; v != escape {
				return int32(v)
			}
		}
		if v := d.gotoChild(f, s); v >= 0 {
			return v
		}
		if f == 0 {
			return 0
		}
		f = d.fail[f]
	}
}

// TableBytes reports the size of the dense transition table.
func (d *DFA) TableBytes() int { return 2 * len(d.delta) }

// Hold reports how many positions behind the newest scanned byte a start
// position stays undecided: the longest pattern's length − 1 (0 without
// patterns).
func (d *DFA) Hold() int { return int(d.hold) }

// A hit buffer holds one uint64 per finalized position that has a match:
// the distance from the previous entry's position in the high 32 bits and
// the longest pattern starting there in the low 32. An entry whose pattern
// field is NoHit advances the position without a match; it bridges a gap
// wider than 32 bits.
const NoHit = math.MaxUint32

// EachHit calls f, in order, for every match in hits, whose positions count
// from base (the cursor's Last when the buffer was empty).
func EachHit(hits []uint64, base int64, f func(pos int64, pattern int)) {
	for _, h := range hits {
		base += int64(h >> 32)
		if p := uint32(h); p != NoHit {
			f(base, int(p))
		}
	}
}

// Cursor is where a byte scan of one stream stands: State is the automaton
// state after the bytes before stream position Pos, and Last is the
// position the next hit's distance counts from.
type Cursor struct {
	State int32
	Pos   int64
	Last  int64
}

// Scan is the streaming kernel. It steps the automaton over text, the
// stream's bytes at positions c.Pos, c.Pos+1, …, advances c past them, and
// returns hits with every position finalized on the way appended. The
// longest pattern starting at position p is kept in ring[p&mask] (mask =
// len(ring)−1), and a slot is reset to −1 when its position is scanned,
// before any update can target it. Position p is final once p+Hold has been
// scanned; its slot is read then, and appended to hits if it holds a match.
//
// Ring contract: len(ring) is a power of two of at least Hold+1, so the
// Hold+1 undecided positions never share a slot, and at the start of a
// stream (state 0 at position p0) the slots of positions [p0−Hold, p0) hold
// −1. The caller reads the undecided tail, positions [c.Pos−Hold, c.Pos), from
// the ring when its stream ends.
func (d *DFA) Scan(c *Cursor, text []byte, ring []int32, hits []uint64) []uint64 {
	cur, pos, last := c.State, c.Pos, c.Last
	mask := int64(len(ring) - 1)
	delta, emit, shorter, plen := d.delta, d.emit, d.shorter, d.plen
	nc, dense, hold := d.nc, d.dense, d.hold
	for _, b := range text {
		ring[pos&mask] = -1
		cl := int(d.class[b])
		if cur < dense {
			if v := delta[int(cur)*nc+cl]; v != escape {
				cur = int32(v)
			} else {
				cur = d.next(cur, d.sym[b], int32(cl))
			}
		} else if cl == 0 {
			cur = 0
		} else {
			cur = d.next(cur, d.sym[b], int32(cl))
		}
		// Occurrences sharing a start are found in increasing length (their
		// ends are scanned in order), so the last write to a slot is the
		// longest pattern starting there.
		for p := emit[cur]; p >= 0; p = shorter[p] {
			ring[(pos-int64(plen[p])+1)&mask] = p
		}
		if q := pos - hold; ring[q&mask] >= 0 {
			for q-last > math.MaxUint32 {
				hits = append(hits, math.MaxUint32<<32|NoHit)
				last += math.MaxUint32
			}
			hits = append(hits, uint64(q-last)<<32|uint64(ring[q&mask]))
			last = q
		}
		pos++
	}
	c.State, c.Pos, c.Last = cur, pos, last
	return hits
}

// gotoChild returns the goto target of state u on symbol s, or -1, via binary
// search over u's sorted CSR row.
func (a *Automaton) gotoChild(u, s int32) int32 {
	lo, hi := a.rowStart[u], a.rowStart[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch v := a.syms[mid]; {
		case v < s:
			lo = mid + 1
		case v > s:
			hi = mid
		default:
			return a.to[mid]
		}
	}
	return -1
}

// States reports the number of automaton states (trie nodes).
func (a *Automaton) States() int { return len(a.emit) }

// step advances from state cur on symbol s.
func (a *Automaton) step(cur int32, s int32) int32 {
	for {
		if nxt := a.gotoChild(cur, s); nxt >= 0 {
			return nxt
		}
		if cur == 0 {
			return 0
		}
		cur = a.fail[cur]
	}
}

// LongestMatchEnding returns, for each text position j, the index of the
// longest pattern whose occurrence ends at j (inclusive), or -1.
func (a *Automaton) LongestMatchEnding(text []int32) []int32 {
	out := make([]int32, len(text))
	cur := int32(0)
	for j, s := range text {
		cur = a.step(cur, s)
		out[j] = a.emit[cur]
	}
	return out
}

// LongestMatchStarting returns, for each text position j, the index of the
// longest pattern matching with its first symbol at j, or -1 — the output
// format of the paper (§2). Computed by recording, per start position, the
// longest pattern seen among all occurrences.
func (a *Automaton) LongestMatchStarting(text []int32) []int32 {
	n := len(text)
	out := make([]int32, n)
	for j := range out {
		out[j] = -1
	}
	cur := int32(0)
	for j, s := range text {
		cur = a.step(cur, s)
		// Walk the output chain: every pattern ending at j starts at
		// j-len+1. Keeping only the longest per start suffices because a
		// longer pattern ending later could also start there; but any
		// pattern starting at position p is seen when its end is reached,
		// so taking max over ends covers all starts.
		for pi := a.emit[cur]; pi >= 0; pi = a.shorter[pi] {
			start := j - int(a.plen[pi]) + 1
			if out[start] < 0 || a.plen[pi] > a.plen[out[start]] {
				out[start] = pi
			}
		}
	}
	return out
}

// AllMatches invokes f(start, patternIndex) for every occurrence of every
// pattern in the text.
func (a *Automaton) AllMatches(text []int32, f func(start int, pat int32)) {
	cur := int32(0)
	for j, s := range text {
		cur = a.step(cur, s)
		for pi := a.emit[cur]; pi >= 0; pi = a.shorter[pi] {
			f(j-int(a.plen[pi])+1, pi)
		}
	}
}

// Count returns the total number of occurrences of all patterns in text.
func (a *Automaton) Count(text []int32) int {
	n := 0
	a.AllMatches(text, func(int, int32) { n++ })
	return n
}
