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
// each into its own ring, at budgets from none to every row, and requires
// each ring to hold LongestMatchStarting's answer. Bytes outside the dense
// encoder's alphabet must lead back to the root.
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
	ring := 1
	for ring < len(text) {
		ring <<= 1
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
				got := make([]int32, ring)
				d.Scan(0, text, 0, got)
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
