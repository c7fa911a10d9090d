package prefilter

import "encoding/binary"

// Wide-lane (Teddy-proper) variant of the prefilter: instead of testing one
// text position per step against the 64-bit offset-pair bucket masks, the
// wide screen tests eight positions per step against an independent 8-bucket
// screen over the first wideWindow pattern symbols, with the per-offset bucket
// masks packed into the byte lanes of a single uint64.
//
// # Bucket structure
//
// The scalar filter's buckets (shared rare-offset pairs, up to 36 of them)
// do not survive lane packing: folding 36 buckets onto 8 bits ORs each
// bucket's wild set into its bit's constraint at every offset, and with most
// buckets wild at most offsets the folded rows whitewash to ~all-ones. The
// wide screen therefore builds its own buckets the way Teddy does: every
// pattern is hashed by its folded wideWindow-symbol prefix into one of eight
// buckets, and bucket β's constraint at offset o ∈ [0, wideWindow) is the set
// of folded bytes its member patterns have at o. Patterns shorter than
// wideWindow are confined to a reserved bucket whose bits go wild past the
// pattern end, so short patterns cannot dilute the selectivity of the other
// seven buckets.
//
// # Lane layout
//
// For a group of eight consecutive positions j..j+7, lane L (bits 8L..8L+7)
// holds the live-bucket mask of position j+L. One offset o is applied to the
// whole group with eight byte-table loads assembled by shifts:
//
//	acc &= w[o][T[j+o]] | w[o][T[j+1+o]]<<8 | ... | w[o][T[j+7+o]]<<56
//
// A position survives when its lane is nonzero after all wideWindow offsets;
// the per-lane nonzero test is branch-free SWAR (collapse each byte to its
// LSB, then gather the eight LSBs with one carry-free multiply — the
// movemask trick). Groups whose lanes all die early-exit the offset loop.
//
// Why this is faster than the scalar loop: the eight loads of a group are
// independent (memory-level parallelism instead of a serial load→test→branch
// chain per position), per-position loop-control and survive branches
// collapse into one whole-group branch, and the tables are 256 B per offset
// (vs 2 KiB), so the entire screen stays L1-resident.
//
// # Soundness
//
// The wide screen is one-sided on its own: if some pattern p matches at
// position j, p's bucket β accepts fold(T[j+o]) = fold(p[o]) at every
// o < min(len(p), wideWindow) by construction, and is wild at every
// remaining o, so lane bits for β stay alive and position j survives. False
// positives (hash collisions, folding, wild bits) are rejected by the
// cascade, exactly as for the scalar screen. The two screens bucket
// DIFFERENTLY, so neither survivor set contains the other in general; the
// differential fuzz target checks each against ground truth (every true
// match start must survive both) and checks the filtered cascades against
// the unfiltered oracle, which is the guarantee the engine actually relies
// on. Words touching the text tail are delegated to the scalar per-position
// screen, so boundary handling lives in one place.
//
// # Byte kernel
//
// Both kernels screen a word through wideWord, which reads a group's ten
// bytes with two little-endian loads. ScanBytesWide, the production kernel,
// hands it the raw text through the byte tables (the encoder composed in,
// see the package comment), so no symbol array is read or written;
// ScanWordsWide folds each word's symbols to bytes first and reads the
// folded tables. It is the byte kernel's test oracle.
//
// The kernels are pure portable Go (SWAR on uint64 lanes); an amd64 assembly
// path (PSHUFB nibble lookups as in Hyperscan's Teddy) can slot in behind
// the same word-level contract and the same oracle without touching callers.

// wideWindow is the prefix length (in symbols) the wide screen constrains.
// Three offsets push the random-text pass rate to ~(density)³ per bucket
// while keeping the no-early-exit cost at three gathers per group.
const wideWindow = 3

// wideShortBucket is the bucket reserved for patterns shorter than
// wideWindow; its bits go wild past the pattern end.
const wideShortBucket = 7

const (
	laneLSB  = 0x0101010101010101 // LSB of every byte lane
	laneMove = 0x0102040810204080 // gathers byte LSBs into bits 56..63
)

// buildWide constructs the Teddy-style wide tables. Called by Build after
// the scalar tables are complete; patterns is non-empty.
func (f *Filter) buildWide(patterns [][]int32) {
	for _, p := range patterns {
		kp := len(p)
		var b uint32
		if kp >= wideWindow {
			kp = wideWindow
			// FNV-1a over the folded prefix: patterns sharing a folded
			// prefix land in one bucket and cost no extra row density.
			h := uint32(2166136261)
			for o := 0; o < wideWindow; o++ {
				h = (h ^ uint32(byte(p[o]&255))) * 16777619
			}
			b = h % wideShortBucket
		} else {
			b = wideShortBucket
		}
		bit := uint8(1) << b
		for o := 0; o < kp; o++ {
			f.wideTab[o][byte(p[o]&255)] |= bit
		}
		for o := kp; o < wideWindow; o++ {
			f.wideWild[o] |= bit
		}
	}
	for o := 0; o < wideWindow; o++ {
		if f.wideWild[o] == 0 {
			continue
		}
		for b := 0; b < 256; b++ {
			f.wideTab[o][b] |= f.wideWild[o]
		}
	}
}

// moveMask8 returns, for a packed group word, one bit per byte lane: bit L is
// set iff lane L is nonzero. Collapsing each byte to its LSB first keeps the
// gathering multiply carry-free, so the extracted byte is exact.
func moveMask8(acc uint64) uint64 {
	acc |= acc >> 4
	acc |= acc >> 2
	acc |= acc >> 1
	acc &= laneLSB
	return (acc * laneMove) >> 56
}

// ScanWordsWide is ScanWords on the wide-lane kernel: bit j%64 of out[j/64]
// is set iff position j survives the wide screen. It fills whole words, so
// disjoint word ranges may be computed concurrently. Words touching the text
// tail fall back to the scalar per-position screen (their bits equal the
// scalar filter's — sound, and exact at the boundary). Each interior word's
// symbols are folded to bytes once and screened like raw text.
func (f *Filter) ScanWordsWide(text []int32, out []uint64, wlo, whi int) {
	n := len(text)
	for w := wlo; w < whi; w++ {
		base := w << 6
		if base+64+window > n {
			scan(f, &f.tab, text, out, w, w+1)
			continue
		}
		var seg [64 + window]byte
		for t, s := range text[base : base+64+window] {
			seg[t] = uint8(s)
		}
		out[w] = wideWord(&f.wideTab, &seg)
	}
}

// ScanBytesWide is ScanWordsWide over the raw text, through the byte
// tables: its bits equal ScanWordsWide's on the encoded text. Tail words
// fall back to ScanBytes.
func (f *Filter) ScanBytesWide(text []byte, out []uint64, wlo, whi int) {
	n := len(text)
	for w := wlo; w < whi; w++ {
		base := w << 6
		if base+64+window > n {
			scan(f, &f.byteTab, text, out, w, w+1)
			continue
		}
		out[w] = wideWord(&f.byteWideTab, (*[64 + window]byte)(text[base:]))
	}
}

// wideWord screens the 64 positions of one interior word, seg holding the
// word's bytes and the window bytes past it. Each group of eight positions
// j..j+7 reads bytes j..j+9 at offsets 0..wideWindow-1 with two
// little-endian loads: lo holds j..j+7, hi holds j+8 and j+9.
func wideWord(tab *[wideWindow][256]uint8, seg *[64 + window]byte) (word uint64) {
	t0, t1, t2 := &tab[0], &tab[1], &tab[2]
	for g := 0; g < 64; g += 8 {
		lo := binary.LittleEndian.Uint64(seg[g:])
		acc := uint64(t0[uint8(lo)]) |
			uint64(t0[uint8(lo>>8)])<<8 |
			uint64(t0[uint8(lo>>16)])<<16 |
			uint64(t0[uint8(lo>>24)])<<24 |
			uint64(t0[uint8(lo>>32)])<<32 |
			uint64(t0[uint8(lo>>40)])<<40 |
			uint64(t0[uint8(lo>>48)])<<48 |
			uint64(t0[uint8(lo>>56)])<<56
		if acc == 0 {
			continue
		}
		hi := binary.LittleEndian.Uint16(seg[g+8:])
		acc &= uint64(t1[uint8(lo>>8)]) |
			uint64(t1[uint8(lo>>16)])<<8 |
			uint64(t1[uint8(lo>>24)])<<16 |
			uint64(t1[uint8(lo>>32)])<<24 |
			uint64(t1[uint8(lo>>40)])<<32 |
			uint64(t1[uint8(lo>>48)])<<40 |
			uint64(t1[uint8(lo>>56)])<<48 |
			uint64(t1[uint8(hi)])<<56
		if acc == 0 {
			continue
		}
		acc &= uint64(t2[uint8(lo>>16)]) |
			uint64(t2[uint8(lo>>24)])<<8 |
			uint64(t2[uint8(lo>>32)])<<16 |
			uint64(t2[uint8(lo>>40)])<<24 |
			uint64(t2[uint8(lo>>48)])<<32 |
			uint64(t2[uint8(lo>>56)])<<40 |
			uint64(t2[uint8(hi)])<<48 |
			uint64(t2[uint8(hi>>8)])<<56
		if acc != 0 {
			word |= moveMask8(acc) << uint(g)
		}
	}
	return word
}

// EstimatedPassRateWide is EstimatedPassRate for the wide screen's bucket
// structure: the union bound over the eight buckets of the product of their
// per-offset acceptance densities. It is the planning figure the Auto
// prefilter mode consults when selecting the wide kernel.
func (f *Filter) EstimatedPassRateWide() float64 {
	total := 0.0
	for b := 0; b < 8; b++ {
		bit := uint8(1) << uint(b)
		used := false
		p := 1.0
		for o := 0; o < wideWindow; o++ {
			accept := 0
			for c := 0; c < 256; c++ {
				if f.wideTab[o][c]&bit != 0 {
					accept++
				}
			}
			if accept > 0 {
				used = true
			}
			p *= float64(accept) / 256
		}
		if used {
			total += p
		}
	}
	if total > 1 {
		return 1
	}
	return total
}
