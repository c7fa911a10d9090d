package core

import (
	"math/rand"
	"testing"

	"pardict/internal/alpha"
	"pardict/internal/pram"
)

// TestWindowsScanEqualsFullScan: Windows.Scan, cutting windows of the raw
// text for a pass that encodes them, gives every kept position the pattern
// and prefix length a direct full-text scan of the encoded text gives it,
// and writes
// nothing outside the windows' kept ranges except those same exact values
// (merged gaps). The named cases pin the window boundaries — ranges touching
// the text end, gaps of exactly 2W (merged) and 2W+1 (split), W = 1 over a
// one-symbol text, no ranges, one range covering everything — and random
// ranges over random texts cover the rest.
func TestWindowsScanEqualsFullScan(t *testing.T) {
	c := ctx()
	rng := rand.New(rand.NewSource(17))
	randText := func(n int, sigma int32) []int32 {
		text := make([]int32, n)
		for j := range text {
			text[j] = 'a' + rng.Int31n(sigma)
		}
		return text
	}
	w4 := encAll("ab", "abab", "ba", "bbab") // W = 4, 2W = 8
	text := randText(40, 2)

	check := func(name string, pats [][]int32, text []int32, ranges [][2]int, windows int) {
		t.Helper()
		d := mustDict(t, c, pats)
		full := d.Match(c, text)
		var ws Windows
		ws.Reset(d.MaxLen())
		kept := 0
		for _, r := range ranges {
			ws.Keep(r[0], r[1])
			kept += r[1] - r[0]
		}
		if windows >= 0 && ws.Len() != windows {
			t.Fatalf("%s: %d windows, want %d", name, ws.Len(), windows)
		}
		if ws.Kept() < kept || ws.Scanned(len(text)) > len(text)+ws.Len()*(d.MaxLen()-1) {
			t.Fatalf("%s: kept %d (ranges hold %d), scanned %d", name, ws.Kept(), kept, ws.Scanned(len(text)))
		}
		const untouched = -7
		pat := make([]int32, len(text))
		plen := make([]int32, len(text))
		for j := range pat {
			pat[j], plen[j] = untouched, untouched
		}
		raw := make([]byte, len(text))
		for j, s := range text {
			raw[j] = byte(s)
		}
		ws.Scan(c, raw, func(c *pram.Ctx, buf []byte) ([]int32, []int32) {
			r := d.Match(c, alpha.NewByteEncoder().Encode(buf))
			return r.Pat, r.Len
		}, pat, plen)
		inRange := make([]bool, len(text))
		for _, r := range ranges {
			for j := r[0]; j < r[1]; j++ {
				inRange[j] = true
			}
		}
		for j := range text {
			exact := pat[j] == full.Pat[j] && plen[j] == full.Len[j]
			if inRange[j] && !exact || !inRange[j] && !exact && (pat[j] != untouched || plen[j] != untouched) {
				t.Fatalf("%s: pos %d: (pat %d, len %d), full scan (%d, %d), kept %v",
					name, j, pat[j], plen[j], full.Pat[j], full.Len[j], inRange[j])
			}
		}
	}

	check("no ranges", w4, text, nil, 0)
	check("everything", w4, text, [][2]int{{0, 40}}, 1)
	check("touches the end", w4, text, [][2]int{{3, 5}, {37, 40}}, 2)
	check("lookahead clipped", w4, text, [][2]int{{20, 22}, {38, 39}}, 2)
	check("gap 2W merges", w4, text, [][2]int{{2, 3}, {11, 12}}, 1)
	check("gap 2W+1 splits", w4, text, [][2]int{{2, 3}, {12, 13}}, 2)
	check("W=1 one symbol", encAll("a"), enc("a"), [][2]int{{0, 1}}, 1)
	check("W=1 gap 2W merges", encAll("a", "b"), enc("abbab"), [][2]int{{0, 1}, {3, 4}}, 1)
	check("W=1 gap 2W+1 splits", encAll("a", "b"), enc("abbbab"), [][2]int{{0, 1}, {4, 5}}, 2)

	for trial := 0; trial < 300; trial++ {
		sigma := int32(2 + rng.Intn(3))
		var pats [][]int32
		seen := map[string]bool{}
		for len(pats) < 1+rng.Intn(6) {
			p := randText(1+rng.Intn(9), sigma)
			if !seen[string(runeify(p))] {
				seen[string(runeify(p))] = true
				pats = append(pats, p)
			}
		}
		text := randText(1+rng.Intn(120), sigma)
		var ranges [][2]int
		for a := rng.Intn(12); a < len(text); a += 1 + rng.Intn(24) {
			b := min(a+1+rng.Intn(6), len(text))
			ranges = append(ranges, [2]int{a, b})
			a = b
		}
		check("random", pats, text, ranges, -1)
	}
}
