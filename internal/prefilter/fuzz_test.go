package prefilter_test

import (
	"math/rand"
	"testing"

	"pardict/internal/alpha"
	"pardict/internal/core"
	"pardict/internal/pram"
	"pardict/internal/prefilter"
)

// fuzzSigmas are the alphabet sizes the differential fuzz sweeps: binary and
// DNA-like (dense matches, stress the short-pattern bucket), full bytes (the
// production shape), and a folding alphabet whose symbols collide mod 256.
var fuzzSigmas = []int32{2, 4, 256, 4096}

const fuzzWindow = 8 // mirrors prefilter.window for the tail-word predicate

// FuzzPrefilterWide is the differential oracle locking the wide-lane kernel
// to the scalar screen and both to ground truth:
//
//  1. one-sidedness — every position where a pattern literally matches
//     survives BOTH screens (the screens bucket patterns differently, so
//     neither survivor set contains the other; each is independently sound);
//  2. tail delegation — words overrunning the text are bit-identical between
//     ScanWordsWide and ScanWords (the documented scalar fallback);
//  3. no stray candidate bits past the end of the text;
//  4. cascade equivalence — the general engine's longest-pattern output and
//     counted Work and Depth are identical with the prefilter off, scalar, and
//     wide (the execution-layer contract).
//
// Steps 1–3 run the int32 kernels at every σ. For σ ≤ 256 the text is also
// a byte string: the byte kernels must give the int32 kernels' words, and
// the filtered arms of step 4 run through the byte entry
// (core.Dict.MatchBytesInto), the shipped path. At σ = 4096 no byte text
// exists, so step 4 does not run.
//
// The checked-in corpus pins the filtered match's window boundaries: a
// survivor in the last W−1 positions (window-tail), two survivors exactly 2W
// and 2W+1 apart, and every position a survivor (window-all).
func FuzzPrefilterWide(f *testing.F) {
	f.Add(int64(1), byte(4), byte(2), byte(1), []byte("abracadabra-alakazam-abracadabra"))
	f.Add(int64(2), byte(1), byte(0), byte(2), []byte("\x00\x01\x00\x01\x00\x01\x00\x01"))
	f.Add(int64(3), byte(16), byte(1), byte(0), []byte("ACGTACGTTGCAACGTACGTTGCA"))
	f.Add(int64(4), byte(8), byte(3), byte(3), []byte("wide-lanes-meet-folded-symbols!!"))
	f.Add(int64(5), byte(24), byte(2), byte(1), make([]byte, 200))
	f.Fuzz(func(t *testing.T, seed int64, np, sigmaSel, plant byte, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 2048 {
			data = data[:2048]
		}
		sigma := fuzzSigmas[int(sigmaSel)%len(fuzzSigmas)]
		rng := rand.New(rand.NewSource(seed))

		patterns := fuzzPatterns(rng, 1+int(np)%24, sigma)
		text := make([]int32, len(data))
		for i, b := range data {
			sym := int32(b)
			if sigma > 256 {
				sym = sym<<4 | int32(i)&15
			}
			text[i] = sym % sigma
		}
		plantOccurrences(rng, text, patterns, plant%4)

		filt := prefilter.Build(patterns)
		nw := (len(text) + 63) / 64
		wide := make([]uint64, nw)
		scalar := make([]uint64, nw)
		filt.ScanWordsWide(text, wide, 0, nw)
		filt.ScanWords(text, scalar, 0, nw)

		// (1) ground truth survives both screens.
		for j := range text {
			if !naiveMatchAt(patterns, text, j) {
				continue
			}
			if wide[j/64]&(1<<uint(j%64)) == 0 {
				t.Fatalf("wide screen killed true match start %d (σ=%d)", j, sigma)
			}
			if scalar[j/64]&(1<<uint(j%64)) == 0 {
				t.Fatalf("scalar screen killed true match start %d (σ=%d)", j, sigma)
			}
		}
		// (2) tail words delegate to the scalar screen exactly.
		for w := 0; w < nw; w++ {
			if w<<6+64+fuzzWindow > len(text) && wide[w] != scalar[w] {
				t.Fatalf("tail word %d: wide %#x != scalar %#x", w, wide[w], scalar[w])
			}
		}
		// (3) bits past the text end stay clear.
		for j := len(text); j < nw*64; j++ {
			if wide[j/64]&(1<<uint(j%64)) != 0 {
				t.Fatalf("stray wide candidate bit at %d past text end", j)
			}
		}
		if sigma > 256 {
			return
		}
		raw := make([]byte, len(text))
		for i, s := range text {
			raw[i] = byte(s)
		}
		wideBytes := make([]uint64, nw)
		scalarBytes := make([]uint64, nw)
		filt.ScanBytesWide(raw, wideBytes, 0, nw)
		filt.ScanBytes(raw, scalarBytes, 0, nw)
		for w := 0; w < nw; w++ {
			if wideBytes[w] != wide[w] || scalarBytes[w] != scalar[w] {
				t.Fatalf("word %d: byte kernels %#x, %#x != int32 kernels %#x, %#x",
					w, wideBytes[w], scalarBytes[w], wide[w], scalar[w])
			}
		}

		// (4) the three cascades agree on output and counted cost.
		c := pram.New(1)
		d, err := core.Preprocess(c, patterns)
		if err != nil {
			t.Fatal(err)
		}
		type armOut struct {
			name        string
			pat         []int32
			work, depth int64
		}
		arms := []armOut{{name: "off"}, {name: "scalar"}, {name: "wide"}}
		for i := range arms {
			c.ResetStats()
			r := &core.Result{}
			switch arms[i].name {
			case "off":
				d.MatchInto(c, text, r)
			case "scalar":
				d.EnablePrefilter(alpha.NewByteEncoder())
				d.MatchBytesInto(c, raw, r)
			case "wide":
				d.EnablePrefilterWide(alpha.NewByteEncoder())
				d.MatchBytesInto(c, raw, r)
			}
			arms[i].pat = append([]int32(nil), r.Pat...)
			arms[i].work, arms[i].depth = c.Work(), c.Depth()
			r.Release()
		}
		d.DisablePrefilter()
		for _, arm := range arms[1:] {
			if arm.work != arms[0].work || arm.depth != arms[0].depth {
				t.Fatalf("%s cascade changed counted cost: work %d depth %d vs %d, %d",
					arm.name, arm.work, arm.depth, arms[0].work, arms[0].depth)
			}
			for j := range arms[0].pat {
				if arm.pat[j] != arms[0].pat[j] {
					t.Fatalf("%s cascade diverges at %d: pattern %d vs %d (σ=%d)",
						arm.name, j, arm.pat[j], arms[0].pat[j], sigma)
				}
			}
		}
	})
}

// fuzzPatterns derives np deterministic, pairwise-distinct patterns over
// [0, sigma); duplicates would be rejected by the engine, not the filter.
func fuzzPatterns(rng *rand.Rand, np int, sigma int32) [][]int32 {
	seen := map[string]bool{}
	var out [][]int32
	for len(out) < np {
		p := make([]int32, 1+rng.Intn(12))
		for k := range p {
			p[k] = rng.Int31n(sigma)
		}
		key := string(encodeKey(p))
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	return out
}

func encodeKey(p []int32) []byte {
	out := make([]byte, 0, len(p)*2)
	for _, s := range p {
		out = append(out, byte(s), byte(s>>8))
	}
	return out
}

// plantOccurrences seeds the text with real matches per mode: 0 leaves the
// text as-is (low/no hit), 1 plants a dozen occurrences including ones that
// straddle 64-position word boundaries, 2 tiles patterns back to back
// (all-hit), 3 plants flush against the end of the text (tail soundness).
func plantOccurrences(rng *rand.Rand, text []int32, patterns [][]int32, mode byte) {
	n := len(text)
	place := func(p []int32, at int) {
		if at >= 0 && at+len(p) <= n {
			copy(text[at:], p)
		}
	}
	switch mode {
	case 1:
		for k := 0; k < 12; k++ {
			p := patterns[rng.Intn(len(patterns))]
			if len(p) <= n {
				place(p, rng.Intn(n-len(p)+1))
			}
		}
		for w := 64; w <= n; w += 64 {
			p := patterns[rng.Intn(len(patterns))]
			place(p, w-1-len(p)/2) // straddle the word boundary
		}
	case 2:
		for at := 0; at < n; {
			p := patterns[rng.Intn(len(patterns))]
			if at+len(p) > n {
				break
			}
			place(p, at)
			at += len(p)
		}
	case 3:
		p := patterns[rng.Intn(len(patterns))]
		place(p, n-len(p))
	}
}

// naiveMatchAt reports whether any pattern literally matches at j.
func naiveMatchAt(patterns [][]int32, text []int32, j int) bool {
	for _, p := range patterns {
		if j+len(p) > len(text) {
			continue
		}
		ok := true
		for i, s := range p {
			if text[j+i] != s {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
