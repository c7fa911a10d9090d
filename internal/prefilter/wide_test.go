package prefilter

import (
	"math/bits"
	"math/rand"
	"testing"

	"pardict/internal/alpha"
)

func scanAllWide(f *Filter, text []int32) []uint64 {
	nw := (len(text) + 63) / 64
	if nw == 0 {
		nw = 1
	}
	out := make([]uint64, nw)
	f.ScanWordsWide(text, out, 0, nw)
	return out
}

// wideReference evaluates the wide screen's defining predicate at one
// position by direct table lookup: some bucket alive after ANDing all
// wideWindow offsets (wild rows when the offset overruns the text).
func wideReference(f *Filter, text []int32, j int) bool {
	v := uint8(0xff)
	for o := 0; o < wideWindow; o++ {
		if j+o < len(text) {
			v &= f.wideTab[o][byte(text[j+o]&255)]
		} else {
			v &= f.wideWild[o]
		}
	}
	return v != 0
}

// boundaryLengths straddle every word-boundary/window-tail combination of
// the interior/tail split.
var boundaryLengths = []int{0, 1, 2, 63, 64, 65, 71, 72, 127, 128, 129,
	64 - window, 64 + window, 128 - window + 1, 192, 200, 256}

// TestScanWordsWideBoundarySplit pins the lane kernel against the direct
// per-position predicate on interior words, and against the scalar screen on
// tail words (the documented delegation), for text lengths straddling every
// word-boundary/window-tail combination.
func TestScanWordsWideBoundarySplit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var patterns [][]int32
	for i := 0; i < 24; i++ {
		p := make([]int32, 1+rng.Intn(12))
		for k := range p {
			p[k] = int32(rng.Intn(256))
		}
		patterns = append(patterns, p)
	}
	f := Build(patterns)

	for _, n := range boundaryLengths {
		text := make([]int32, n)
		for j := range text {
			text[j] = int32(rng.Intn(256))
		}
		got := scanAllWide(f, text)
		scalar := scanAll(f, text)
		for w := 0; w < len(got); w++ {
			if w<<6+64+window > n {
				// Tail word: must be bit-identical to the scalar screen.
				if got[w] != scalar[w] {
					t.Fatalf("n=%d tail word %d: wide %#x != scalar %#x", n, w, got[w], scalar[w])
				}
				continue
			}
			for j := w << 6; j < w<<6+64; j++ {
				if candidate(got, j) != wideReference(f, text, j) {
					t.Fatalf("n=%d pos %d: ScanWordsWide=%v reference=%v",
						n, j, candidate(got, j), wideReference(f, text, j))
				}
			}
		}
		for j := n; j < len(got)*64; j++ {
			if candidate(got, j) {
				t.Fatalf("n=%d: stray wide candidate bit at %d past end of text", n, j)
			}
		}
	}
}

// TestByteScreensMatchEncoded: the byte screens read the raw text through
// tables composed with the encoder, so their words must equal the int32
// screens' words on the encoded text, interior and tail words alike. The
// dense encoder covers 40 of the 256 byte values, so most text bytes lie
// outside its alphabet and encode to −1.
func TestByteScreensMatchEncoded(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sigma := rng.Perm(256)[:40]
	dense := make([]byte, len(sigma))
	for i, b := range sigma {
		dense[i] = byte(b)
	}
	denseEnc, err := alpha.NewDenseEncoder(dense)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		enc   *alpha.Encoder
		bytes []byte // the alphabet patterns are drawn from
	}{
		{"byte encoder", alpha.NewByteEncoder(), nil},
		{"dense encoder", denseEnc, dense},
	} {
		var patterns [][]int32
		for i := 0; i < 24; i++ {
			p := make([]byte, 1+rng.Intn(12))
			for k := range p {
				if tc.bytes != nil {
					p[k] = tc.bytes[rng.Intn(len(tc.bytes))]
				} else {
					p[k] = byte(rng.Intn(256))
				}
			}
			enc, err := tc.enc.EncodePattern(p)
			if err != nil {
				t.Fatal(err)
			}
			patterns = append(patterns, enc)
		}
		f := BuildFor(patterns, tc.enc)
		for _, n := range boundaryLengths {
			raw := make([]byte, n)
			for j := range raw {
				if rng.Intn(2) == 0 && tc.bytes != nil {
					raw[j] = tc.bytes[rng.Intn(len(tc.bytes))]
				} else {
					raw[j] = byte(rng.Intn(256))
				}
			}
			syms := tc.enc.Encode(raw)
			nw := max((n+63)/64, 1)
			for _, k := range []struct {
				name          string
				bytes, symbol func(out []uint64)
			}{
				{"scalar", func(out []uint64) { f.ScanBytes(raw, out, 0, nw) }, func(out []uint64) { f.ScanWords(syms, out, 0, nw) }},
				{"wide", func(out []uint64) { f.ScanBytesWide(raw, out, 0, nw) }, func(out []uint64) { f.ScanWordsWide(syms, out, 0, nw) }},
			} {
				got, want := make([]uint64, nw), make([]uint64, nw)
				k.bytes(got)
				k.symbol(want)
				for w := range want {
					if got[w] != want[w] {
						t.Fatalf("%s, %s screen, n=%d word %d: bytes %#x, encoded %#x", tc.name, k.name, n, w, got[w], want[w])
					}
				}
			}
		}
	}
}

// TestWideNoFalseNegatives is the wide screen's soundness oracle, mirroring
// TestNoFalseNegatives: every true match start must survive ScanWordsWide.
func TestWideNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 50; trial++ {
		np := 1 + rng.Intn(40)
		patterns := make([][]int32, np)
		for i := range patterns {
			l := 1 + rng.Intn(12)
			p := make([]int32, l)
			for k := range p {
				p[k] = int32(rng.Intn(6))
			}
			patterns[i] = p
		}
		f := Build(patterns)
		text := make([]int32, 200+rng.Intn(200))
		for j := range text {
			text[j] = int32(rng.Intn(6))
		}
		for k := 0; k < 10; k++ {
			p := patterns[rng.Intn(np)]
			at := rng.Intn(len(text) - len(p) + 1)
			copy(text[at:], p)
		}
		p := patterns[rng.Intn(np)]
		copy(text[len(text)-len(p):], p)

		cand := scanAllWide(f, text)
		for j, matched := range naiveStarts(patterns, text) {
			if matched && !candidate(cand, j) {
				t.Fatalf("trial %d: wide false negative at %d", trial, j)
			}
		}
	}
}

// TestWideShortPatterns: patterns shorter than wideWindow live in the
// reserved bucket and stay sound, including at the very end of the text.
func TestWideShortPatterns(t *testing.T) {
	patterns := [][]int32{enc("z"), enc("ab"), enc("longpattern")}
	f := Build(patterns)
	text := enc("qqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqzab")
	cand := scanAllWide(f, text)
	wantZ := len(text) - 3
	if !candidate(cand, wantZ) {
		t.Fatal("wide false negative for length-1 pattern")
	}
	if !candidate(cand, wantZ+1) {
		t.Fatal("wide false negative for length-2 pattern at text end")
	}
	// Short patterns must not whitewash the screen: filler positions backed
	// only by bucket-7 wilds still need the constrained offsets to accept.
	pass := 0
	for j := 0; j < wantZ; j++ {
		if candidate(cand, j) {
			pass++
		}
	}
	if pass > wantZ/2 {
		t.Fatalf("short patterns destroyed selectivity: %d/%d filler positions pass", pass, wantZ)
	}
}

// TestWideLargeAlphabetFolding: symbols above 255 fold with &255; aliased
// positions must survive (soundness), real matches must survive.
func TestWideLargeAlphabetFolding(t *testing.T) {
	patterns := [][]int32{{1000, 1256, 3000, 17}, {256, 512, 768}}
	f := Build(patterns)
	text := []int32{7, 1000, 1256, 3000, 17, 256, 512, 768, 9, 9, 9, 9, 9, 9, 9, 9}
	cand := scanAllWide(f, text)
	if !candidate(cand, 1) || !candidate(cand, 5) {
		t.Fatal("wide false negative on large-alphabet match")
	}
	alias := []int32{1000 + 256, 1256 + 256, 3000 - 256, 17 + 512, 9, 9, 9, 9, 9, 9, 9, 9}
	cand = scanAllWide(f, alias)
	if !candidate(cand, 0) {
		t.Fatal("folded alias should survive the wide screen (&255 folding)")
	}
}

// TestWideSelectivityOnRandomText: the wide screen must actually filter, and
// its measured pass rate must be in the ballpark of EstimatedPassRateWide.
func TestWideSelectivityOnRandomText(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	patterns := make([][]int32, 20)
	for i := range patterns {
		p := make([]int32, 8+rng.Intn(8))
		for k := range p {
			p[k] = int32(rng.Intn(256))
		}
		patterns[i] = p
	}
	f := Build(patterns)
	text := make([]int32, 1<<16)
	for j := range text {
		text[j] = int32(rng.Intn(256))
	}
	cand := scanAllWide(f, text)
	pass := 0
	for _, w := range cand {
		pass += bits.OnesCount64(w)
	}
	rate := float64(pass) / float64(len(text))
	if rate > 0.05 {
		t.Fatalf("wide screen passes %.2f%% of random positions; expected well under 5%%", 100*rate)
	}
	est := f.EstimatedPassRateWide()
	if rate > 0 && (rate/est > 30 || est/rate > 30) {
		t.Fatalf("wide estimate %.5f and measured %.5f disagree wildly", est, rate)
	}
}

// TestMoveMask8 exhausts the lane-nonzero extraction over every lane subset
// with adversarial lane payloads (the carry-free multiply must be exact).
func TestMoveMask8(t *testing.T) {
	payloads := []uint64{0x01, 0x80, 0xff, 0x55, 0xaa, 0x40}
	for set := 0; set < 256; set++ {
		for _, pay := range payloads {
			var acc uint64
			for l := 0; l < 8; l++ {
				if set&(1<<l) != 0 {
					acc |= pay << (8 * l)
				}
			}
			if got := moveMask8(acc); got != uint64(set) {
				t.Fatalf("moveMask8(lanes=%#x payload=%#x) = %#x, want %#x", set, pay, got, set)
			}
		}
	}
}
