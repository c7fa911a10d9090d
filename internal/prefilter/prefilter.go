// Package prefilter implements a bit-parallel rare-byte prefilter for the
// static matching hot path, in the spirit of the Teddy/FDR fused-literal
// filters of Hyperscan: before the shrink-and-spawn cascade touches a text
// position, a shift-or style screen over 64-bit bucket masks proves for most
// positions that no pattern can start there.
//
// Every pattern contributes its two rarest symbols (by dictionary frequency,
// folded to a byte with &255 so alphabets larger than 256 stay sound) at
// offsets within the first window = 8 symbols. Patterns sharing the same
// offset pair share one of at most 36 buckets, each owning a bit of a uint64
// mask. For each window offset o, tab[o][b] holds the set of buckets that
// accept folded byte b at o (buckets not constraining o accept everything).
// A text position survives when ANDing the masks of its constrained offsets
// leaves any bucket alive; offsets are visited most-selective-first so
// typical positions die after one or two table loads.
//
// The filter is one-sided: a surviving position may still fail the cascade
// (folding and bucketing introduce false positives), but a position where
// any pattern matches always survives — the filter only constrains offsets
// inside the pattern, with equality of folded symbols, and out-of-bounds
// offsets only kill buckets whose patterns would overrun the text.
//
// The tables are built twice over. The folded tables above serve texts of
// encoded symbols (ScanWords, ScanWordsWide). The byte tables compose the
// text encoder into them at build time: entry [o][b] is the folded entry for
// the symbol byte b encodes to, folded like any symbol (a byte outside a
// dense alphabet encodes to −1 and reads entry 255). So ScanBytes and
// ScanBytesWide screen the raw text, before anything is encoded, and pass
// exactly the positions ScanWords and ScanWordsWide pass on the encoded text.
//
// The prefilter is an execution-layer optimization: it performs no counted
// PRAM work (see pram.ForChunkUncounted) and never changes the Work/Depth
// accounting of a match.
package prefilter

import (
	"math/bits"

	"pardict/internal/alpha"
)

// window is the prefix length (in symbols) the filter may constrain.
const window = 8

// Filter is an immutable prefilter built from an encoded pattern set. It is
// safe for concurrent use.
type Filter struct {
	// tab[o][b]: buckets alive after reading folded byte b at offset o.
	tab [window][256]uint64
	// wild[o]: buckets that do not constrain offset o — the survivors when
	// j+o falls past the end of the text.
	wild [window]uint64
	// constrained lists the offsets at least one bucket constrains, most
	// selective first (ascending mean acceptance density).
	constrained []int
	nbuckets    int

	// Wide-lane (Teddy-proper) tables: an independent 8-bucket screen over
	// the first wideWindow pattern symbols, consulted by ScanWordsWide.
	// wideTab[o][b] holds the buckets accepting folded byte b at offset o
	// (wild bits of buckets whose patterns are shorter than o+1 already
	// OR-ed in). See wide.go for the construction and the soundness
	// argument.
	wideTab  [wideWindow][256]uint8
	wideWild [wideWindow]uint8

	// Byte tables: tab and wideTab composed with the text encoder, indexed
	// by raw text byte (see the package comment).
	byteTab     [window][256]uint64
	byteWideTab [wideWindow][256]uint8
}

// Build is BuildFor with the byte encoder: the byte screens read each text
// byte as its own symbol.
func Build(patterns [][]int32) *Filter {
	return BuildFor(patterns, alpha.NewByteEncoder())
}

// BuildFor constructs the filter for patterns encoded by enc, its byte
// screens reading the raw text enc encodes. It returns nil when the pattern
// set is empty (nothing can match; callers treat a nil filter as "no
// filtering").
func BuildFor(patterns [][]int32, enc *alpha.Encoder) *Filter {
	if len(patterns) == 0 {
		return nil
	}
	// Dictionary-wide folded-symbol frequencies drive the rare-offset choice.
	var freq [256]int
	for _, p := range patterns {
		for _, s := range p {
			freq[byte(s&255)]++
		}
	}

	f := &Filter{}
	type bucketKey struct{ o1, o2 int }
	bucketOf := map[bucketKey]int{}
	for _, p := range patterns {
		w := len(p)
		if w > window {
			w = window
		}
		// Pick the two offsets (one for length-1 patterns) whose folded
		// symbols are rarest; ties resolve to the smaller offset.
		best, second := 0, 0
		for o := 1; o < w; o++ {
			switch fo := freq[byte(p[o]&255)]; {
			case fo < freq[byte(p[best]&255)]:
				second, best = best, o
			case o == 1 || fo < freq[byte(p[second]&255)]:
				second = o
			}
		}
		o1, o2 := best, second
		if o1 > o2 {
			o1, o2 = o2, o1
		}
		key := bucketKey{o1, o2}
		b, ok := bucketOf[key]
		if !ok {
			b = len(bucketOf)
			bucketOf[key] = b
		}
		bit := uint64(1) << uint(b)
		f.tab[o1][byte(p[o1]&255)] |= bit
		f.tab[o2][byte(p[o2]&255)] |= bit
	}
	f.nbuckets = len(bucketOf)
	all := uint64(1)<<uint(f.nbuckets) - 1
	if f.nbuckets == 64 {
		all = ^uint64(0)
	}

	// Buckets not constraining an offset accept every byte there (and
	// survive when the offset is out of bounds).
	var usesOff [window]uint64
	for key, b := range bucketOf {
		usesOff[key.o1] |= 1 << uint(b)
		usesOff[key.o2] |= 1 << uint(b)
	}
	type offSel struct {
		o       int
		density float64
	}
	var sel []offSel
	for o := 0; o < window; o++ {
		f.wild[o] = all &^ usesOff[o]
		if usesOff[o] == 0 {
			continue // unconstrained offset: tab row would be a no-op
		}
		alive := 0
		for b := 0; b < 256; b++ {
			f.tab[o][b] |= f.wild[o]
			alive += bits.OnesCount64(f.tab[o][b])
		}
		sel = append(sel, offSel{o, float64(alive)})
	}
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && sel[j].density < sel[j-1].density; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	for _, s := range sel {
		f.constrained = append(f.constrained, s.o)
	}
	f.buildWide(patterns)

	var raw [256]byte
	for b := range raw {
		raw[b] = byte(b)
	}
	for b, s := range enc.Encode(raw[:]) {
		for o := range f.tab {
			f.byteTab[o][b] = f.tab[o][uint8(s)]
		}
		for o := range f.wideTab {
			f.byteWideTab[o][b] = f.wideTab[o][uint8(s)]
		}
	}
	return f
}

// Buckets reports the number of offset-pair buckets in use (at most 36).
func (f *Filter) Buckets() int { return f.nbuckets }

// ScanWords computes candidate bits for the 64-position words [wlo, whi) of
// the encoded text: bit j%64 of out[j/64] is set iff position j survives the
// filter. Each word is computed and stored whole, so disjoint word ranges may
// be filled concurrently. out must hold at least whi words.
func (f *Filter) ScanWords(text []int32, out []uint64, wlo, whi int) {
	scan(f, &f.tab, text, out, wlo, whi)
}

// ScanBytes is ScanWords over the raw text, through the byte tables: its
// bits equal ScanWords' on the encoded text.
func (f *Filter) ScanBytes(text []byte, out []uint64, wlo, whi int) {
	scan(f, &f.byteTab, text, out, wlo, whi)
}

// symbol is an element of a screened text: a raw byte, or an encoded symbol
// that the conversion to uint8 folds to its low byte.
type symbol interface{ ~uint8 | ~int32 }

// scan is the scalar screen over the words [wlo, whi) of text, reading tab:
// the folded tables for symbols, the byte tables for raw bytes.
func scan[T symbol](f *Filter, tab *[window][256]uint64, text []T, out []uint64, wlo, whi int) {
	n := len(text)
	nc := len(f.constrained)
	if nc == 0 {
		for w := wlo; w < whi; w++ {
			out[w] = ^uint64(0)
		}
		return
	}
	// Hoist the constrained offsets and their table rows into fixed-size
	// locals: the inner loop then runs on registers and 256-entry array
	// pointers (no slice headers, no bounds checks on the byte index).
	var offs [window]int
	var rows [window]*[256]uint64
	for i, o := range f.constrained {
		offs[i] = o
		rows[i] = &tab[o]
	}
	for w := wlo; w < whi; w++ {
		var word uint64
		base := w << 6
		end := base + 64
		if end+window <= n {
			// Interior word: every j+o is in bounds, so the per-offset
			// boundary branch drops out of the hot loop.
			for j := base; j < end; j++ {
				v := rows[0][uint8(text[j+offs[0]])]
				for i := 1; v != 0 && i < nc; i++ {
					v &= rows[i][uint8(text[j+offs[i]])]
				}
				if v != 0 {
					word |= 1 << uint(j-base)
				}
			}
		} else {
			if end > n {
				end = n
			}
			for j := base; j < end; j++ {
				v := ^uint64(0)
				for i := 0; v != 0 && i < nc; i++ {
					if o := offs[i]; j+o < n {
						v &= rows[i][uint8(text[j+o])]
					} else {
						v &= f.wild[o]
					}
				}
				if v != 0 {
					word |= 1 << uint(j-base)
				}
			}
		}
		out[w] = word
	}
}

// EstimatedPassRate returns a rough a-priori estimate of the fraction of
// random byte positions that survive the filter, by union bound over buckets
// of the product of their two offsets' acceptance densities. It is a
// planning figure (used by tests and the Auto prefilter mode heuristic), not
// a guarantee.
func (f *Filter) EstimatedPassRate() float64 {
	if f.nbuckets == 0 {
		return 1
	}
	total := 0.0
	for b := 0; b < f.nbuckets; b++ {
		bit := uint64(1) << uint(b)
		p := 1.0
		for o := 0; o < window; o++ {
			if f.wild[o]&bit != 0 {
				continue
			}
			accept := 0
			for c := 0; c < 256; c++ {
				if f.tab[o][c]&bit != 0 {
					accept++
				}
			}
			p *= float64(accept) / 256
		}
		total += p
	}
	if total > 1 {
		return 1
	}
	return total
}
