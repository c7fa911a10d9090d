package ahocorasick

import (
	"math/rand"
	"sync"
	"testing"

	"pardict/internal/alpha"
	"pardict/internal/naive"
)

func enc(s string) []int32 {
	out := make([]int32, len(s))
	for i := range s {
		out[i] = int32(s[i])
	}
	return out
}

func encAll(ss ...string) [][]int32 {
	out := make([][]int32, len(ss))
	for i, s := range ss {
		out[i] = enc(s)
	}
	return out
}

func TestClassicExample(t *testing.T) {
	// The example from the AC75 paper.
	pats := encAll("he", "she", "his", "hers")
	a, err := New(pats)
	if err != nil {
		t.Fatal(err)
	}
	text := enc("ushers")
	var got [][2]int
	a.AllMatches(text, func(start int, pat int32) {
		got = append(got, [2]int{start, int(pat)})
	})
	want := map[[2]int]bool{{1, 1}: true, {2, 0}: true, {2, 3}: true}
	if len(got) != len(want) {
		t.Fatalf("matches = %v", got)
	}
	for _, m := range got {
		if !want[m] {
			t.Fatalf("unexpected match %v", m)
		}
	}
}

func TestLongestMatchStartingAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		sigma := 1 + rng.Intn(4)
		np := 1 + rng.Intn(8)
		pats := make([][]int32, np)
		for i := range pats {
			l := 1 + rng.Intn(10)
			p := make([]int32, l)
			for k := range p {
				p[k] = int32(rng.Intn(sigma))
			}
			pats[i] = p
		}
		text := make([]int32, rng.Intn(60))
		for i := range text {
			text[i] = int32(rng.Intn(sigma))
		}
		a, err := New(pats)
		if err != nil {
			t.Fatal(err)
		}
		got := a.LongestMatchStarting(text)
		want := naive.LongestPattern(pats, text)
		for j := range text {
			// Duplicates allowed in this oracle test: compare lengths.
			gl, wl := -1, -1
			if got[j] >= 0 {
				gl = len(pats[got[j]])
			}
			if want[j] >= 0 {
				wl = len(pats[want[j]])
			}
			if gl != wl {
				t.Fatalf("pos %d: got len %d want %d (pats=%v text=%v)", j, gl, wl, pats, text)
			}
		}
	}
}

func TestCount(t *testing.T) {
	a, err := New(encAll("a", "aa"))
	if err != nil {
		t.Fatal(err)
	}
	// "aaa": "a"×3 + "aa"×2
	if got := a.Count(enc("aaa")); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
}

func TestLongestMatchEnding(t *testing.T) {
	a, err := New(encAll("ab", "b"))
	if err != nil {
		t.Fatal(err)
	}
	got := a.LongestMatchEnding(enc("cab"))
	want := []int32{-1, -1, 0}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestEmptyPattern(t *testing.T) {
	if _, err := New([][]int32{{}}); err == nil {
		t.Fatal("want error")
	}
}

func TestEmptyDictAndText(t *testing.T) {
	a, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.LongestMatchStarting(enc("abc")); len(got) != 3 || got[0] != -1 {
		t.Fatalf("got %v", got)
	}
	if got := a.LongestMatchStarting(nil); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestStates(t *testing.T) {
	a, err := New(encAll("ab", "ac"))
	if err != nil {
		t.Fatal(err)
	}
	if a.States() != 4 { // root, a, ab, ac
		t.Fatalf("states = %d", a.States())
	}
}

// TestDFAConcurrentScan has several goroutines scan one shared DFA at once,
// each with its own ring and hit buffer, at budgets from none to every row,
// and requires the hits plus the ring's undecided tail to be
// LongestMatchStarting's answer. Bytes outside the dense encoder's alphabet
// must lead back to the root.
func TestDFAConcurrentScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	enc, err := alpha.NewDenseEncoder([]byte("acgt"))
	if err != nil {
		t.Fatal(err)
	}
	var pats [][]int32
	seen := map[string]bool{}
	for len(pats) < 60 {
		p := make([]byte, 1+rng.Intn(9))
		for i := range p {
			p[i] = "acgt"[rng.Intn(4)]
		}
		if !seen[string(p)] {
			seen[string(p)] = true
			pats = append(pats, enc.Encode(p))
		}
	}
	text := make([]byte, 4096)
	for i := range text {
		text[i] = "acgtacgtacgtN"[rng.Intn(13)]
	}
	for _, budget := range []int{0, 100, 1000, 1 << 20} {
		d, err := NewDFA(pats, enc, budget)
		if err != nil {
			t.Fatal(err)
		}
		if d.TableBytes() > budget {
			t.Fatalf("budget %d: table %d bytes", budget, d.TableBytes())
		}
		want := d.LongestMatchStarting(enc.Encode(text))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := scanLongest(d, text, 0)
				for j := range text {
					if got[j] != want[j] {
						t.Errorf("budget %d pos %d: %d, want %d", budget, j, got[j], want[j])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// scanLongest runs the kernel over text placed at stream position base, one
// call per 100 bytes, and returns the longest pattern per text position: the
// finalized hits, then the undecided tail read from the ring.
func scanLongest(d *DFA, text []byte, base int64) []int32 {
	size := 1
	for size <= d.Hold() {
		size <<= 1
	}
	ring := make([]int32, size)
	for i := range ring {
		ring[i] = -1
	}
	c := Cursor{Pos: base}
	var hits []uint64
	for at := 0; at < len(text); at += 100 {
		hits = d.Scan(&c, text[at:min(at+100, len(text))], ring, hits)
	}
	out := make([]int32, len(text))
	for i := range out {
		out[i] = -1
	}
	EachHit(hits, 0, func(pos int64, p int) { out[pos-base] = int32(p) })
	for q := c.Pos - int64(d.Hold()); q < c.Pos; q++ {
		out[q-base] = ring[q&int64(size-1)]
	}
	return out
}

// TestScanHitGaps places the text past 2^33, so the first hit's distance
// from Last = 0 overflows 32 bits and the kernel bridges it with NoHit
// entries; every decoded position must still be exact.
func TestScanHitGaps(t *testing.T) {
	enc := alpha.NewByteEncoder()
	d, err := NewDFA(encAll("abc", "bc", "c"), enc, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("xxabcxbcxc")
	want := d.LongestMatchStarting(enc.Encode(text))
	const base = 1<<33 + 12345
	got := scanLongest(d, text, base)
	for j := range text {
		if got[j] != want[j] {
			t.Fatalf("pos %d: %d, want %d", j, got[j], want[j])
		}
	}
	c := Cursor{Pos: base}
	ring := []int32{-1, -1, -1, -1}
	bridges := 0
	for _, h := range d.Scan(&c, text, ring, nil) {
		if uint32(h) == NoHit {
			bridges++
		}
	}
	if bridges != 2 { // 2^33 + 12347 needs two maximal 32-bit steps first
		t.Fatalf("%d NoHit entries for a gap of %d, want 2", bridges, int64(base+2))
	}
}
