package pardict

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pardict/internal/core"
	"pardict/internal/obs"
)

// randTextWithPlants builds a random byte text and copies random patterns
// into it so both dense and sparse hit regions are exercised.
func randTextWithPlants(rng *rand.Rand, patterns [][]byte, n, plants int) []byte {
	text := make([]byte, n)
	rng.Read(text)
	for k := 0; k < plants; k++ {
		p := patterns[rng.Intn(len(patterns))]
		if len(p) > n {
			continue
		}
		copy(text[rng.Intn(n-len(p)+1):], p)
	}
	return text
}

// TestPrefilterOutputEquivalence: the prefilter is an execution-layer
// optimization — pattern output AND the counted Work/Depth stats must be
// byte-identical with it off, with the scalar screen, and with the wide-lane
// screen. Random byte texts with planted hits come first; then a sweep over
// alphabets σ ∈ {2, 4, 26, 256} and survivor densities 0, 0.001, 0.1 and 1,
// with a pattern planted flush against the text end, which takes the filtered
// match through no windows, sparse windows, the in-place dense cascade and a
// survivor in the last W−1 positions. Not parallel: obs.SetEnabled is
// process-global elsewhere in the suite.
func TestPrefilterOutputEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	compare := func(label string, patterns [][]byte, texts [][]byte) {
		t.Helper()
		plain, err := NewMatcher(patterns, WithEngine(EngineGeneral))
		if err != nil {
			t.Fatal(err)
		}
		filtered := map[string]*Matcher{}
		for name, mode := range map[string]PrefilterMode{"wide": PrefilterOn, "scalar": prefilterScalar} {
			filtered[name], err = NewMatcher(patterns, WithEngine(EngineGeneral), WithPrefilter(mode))
			if err != nil {
				t.Fatal(err)
			}
		}
		for trial, text := range texts {
			a := plain.Match(text)
			if _, ok := a.PrefixLen(0); len(text) > 0 && !ok {
				t.Fatal("unfiltered general matcher must report PrefixLen")
			}
			for name, m := range filtered {
				b := m.Match(text)
				if a.Len() != b.Len() {
					t.Fatalf("%s %s: length mismatch: %d vs %d", label, name, a.Len(), b.Len())
				}
				for i := 0; i < a.Len(); i++ {
					pa, oka := a.Longest(i)
					pb, okb := b.Longest(i)
					if pa != pb || oka != okb {
						t.Fatalf("%s trial %d pos %d: longest %d,%v (plain) vs %d,%v (%s)",
							label, trial, i, pa, oka, pb, okb, name)
					}
					if la, lb := a.All(i, nil), b.All(i, nil); !slices.Equal(la, lb) {
						t.Fatalf("%s %s pos %d: all-matches %v vs %v", label, name, i, la, lb)
					}
				}
				if as, bs := a.Stats(), b.Stats(); as.Work != bs.Work || as.Depth != bs.Depth {
					t.Fatalf("%s trial %d: %s prefilter changed counted cost: %+v vs %+v", label, trial, name, as, bs)
				}
				if _, ok := b.PrefixLen(0); ok {
					t.Fatalf("%s-filtered matcher must withhold PrefixLen", name)
				}
			}
		}
	}

	var patterns [][]byte
	for i := 0; i < 24; i++ {
		p := make([]byte, 3+rng.Intn(14))
		rng.Read(p)
		patterns = append(patterns, p)
	}
	patterns = append(patterns, []byte("q")) // a length-1 pattern in the mix
	var texts [][]byte
	for trial := 0; trial < 8; trial++ {
		texts = append(texts, randTextWithPlants(rng, patterns, 500+rng.Intn(3000), 12))
	}
	compare("random bytes", patterns, texts)

	for _, sigma := range []int{2, 4, 26, 256} {
		sym := func() byte { return byte(rng.Intn(sigma)) }
		if sigma <= 26 {
			sym = func() byte { return 'a' + byte(rng.Intn(sigma)) }
		}
		// One one-symbol pattern, which the tail plant uses: its symbol ends
		// every planted text.
		shortest := []byte{sym()}
		seen := map[string]bool{string(shortest): true}
		patterns := [][]byte{shortest}
		for len(patterns) < 12 {
			p := make([]byte, 2+rng.Intn(11))
			for k := range p {
				p[k] = sym()
			}
			if !seen[string(p)] {
				seen[string(p)] = true
				patterns = append(patterns, p)
			}
		}
		var texts [][]byte
		for _, density := range []float64{0, 0.001, 0.1, 1} {
			n := 4000
			text := bytes.Repeat([]byte{'#'}, n) // '#' is outside every alphabet but σ=256's
			if density == 1 {
				for j := range text {
					text[j] = sym()
				}
			} else if density > 0 {
				for k := 0; k < int(density*float64(n))+1; k++ {
					p := patterns[rng.Intn(len(patterns))]
					copy(text[rng.Intn(n-len(p)):], p)
				}
				copy(text[n-len(shortest):], shortest)
			}
			texts = append(texts, text)
		}
		compare(fmt.Sprintf("σ=%d", sigma), patterns, texts)
	}
}

// TestPrefilterAutoMode: Auto keeps the filter for selective dictionaries and
// drops it for unselective ones (where PrefixLen must stay available).
func TestPrefilterAutoMode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var selective [][]byte
	for i := 0; i < 10; i++ {
		p := make([]byte, 12)
		rng.Read(p)
		selective = append(selective, p)
	}
	m, err := NewMatcher(selective, WithEngine(EngineGeneral), WithPrefilter(PrefilterAuto))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Match([]byte("hello world")).PrefixLen(0); ok {
		t.Fatal("auto mode should filter a selective dictionary (PrefixLen withheld)")
	}

	// Single-symbol patterns covering most byte values: nearly every position
	// passes any filter, so Auto must turn it off.
	var dense [][]byte
	for b := 0; b < 200; b++ {
		dense = append(dense, []byte{byte(b)})
	}
	m2, err := NewMatcher(dense, WithEngine(EngineGeneral), WithPrefilter(PrefilterAuto))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Match([]byte("hello world")).PrefixLen(0); !ok {
		t.Fatal("auto mode should not filter an unselective dictionary")
	}
}

// TestMatchIntoReuse: one Matches reused across texts of different sizes must
// agree with fresh Match calls.
func TestMatchIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	patterns := [][]byte{[]byte("abra"), []byte("cadabra"), []byte("ab"), []byte("zzz")}
	m, err := NewMatcher(patterns, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var dst *Matches
	for trial := 0; trial < 20; trial++ {
		text := randTextWithPlants(rng, patterns, 10+rng.Intn(2000), 6)
		dst = m.MatchInto(dst, text)
		want := m.Match(text)
		if dst.Len() != want.Len() {
			t.Fatalf("trial %d: len %d vs %d", trial, dst.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			pa, oka := dst.Longest(i)
			pb, okb := want.Longest(i)
			if pa != pb || oka != okb {
				t.Fatalf("trial %d pos %d: %d,%v vs %d,%v", trial, i, pa, oka, pb, okb)
			}
			la, _ := dst.PrefixLen(i)
			lb, _ := want.PrefixLen(i)
			if la != lb {
				t.Fatalf("trial %d pos %d: prefix len %d vs %d", trial, i, la, lb)
			}
		}
		want.Release()
	}
	dst.Release()
}

// TestMatchZeroAllocs: the warmed MatchInto hot path must not allocate — the
// tentpole's zero-allocation steady-state claim, checked for both the plain
// and the prefiltered general engine.
func TestMatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime defeats sync.Pool caching and allocates on its own; alloc counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(29))
	var patterns [][]byte
	for i := 0; i < 16; i++ {
		p := make([]byte, 4+rng.Intn(10))
		rng.Read(p)
		patterns = append(patterns, p)
	}
	text := randTextWithPlants(rng, patterns, 4096, 10)

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", []Option{WithEngine(EngineGeneral), WithParallelism(1)}},
		{"prefilter-wide", []Option{WithEngine(EngineGeneral), WithParallelism(1), WithPrefilter(PrefilterOn)}},
		{"prefilter-scalar", []Option{WithEngine(EngineGeneral), WithParallelism(1), WithPrefilter(prefilterScalar)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMatcher(patterns, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var dst *Matches
			for i := 0; i < 5; i++ { // warm the slab, state, and ctx pools
				dst = m.MatchInto(dst, text)
			}
			if avg := testing.AllocsPerRun(100, func() {
				dst = m.MatchInto(dst, text)
			}); avg != 0 {
				t.Fatalf("warmed MatchInto allocates %.1f times per op; want 0", avg)
			}
			dst.Release()
		})
	}
}

// TestFilteredMatchKeepsNoEncodeBuffer: a filtered matcher screens the raw
// text and encodes only the windows its cascade scans, so a warmed MatchInto
// over 1 MiB of sparse-hit text holds no text-length encode buffer and
// allocates nothing, while the unfiltered matcher keeps its whole-text
// encoding in the Matches.
func TestFilteredMatchKeepsNoEncodeBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime defeats sync.Pool caching and allocates on its own; alloc counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(37))
	var patterns [][]byte
	for i := 0; i < 64; i++ {
		p := make([]byte, 6+rng.Intn(10))
		rng.Read(p)
		patterns = append(patterns, p)
	}
	text := randTextWithPlants(rng, patterns, 1<<20, 200)
	for _, tc := range []struct {
		name    string
		mode    PrefilterMode
		encoded bool
	}{
		{"unfiltered", PrefilterOff, true},
		{"filtered", PrefilterOn, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMatcher(patterns, WithEngine(EngineGeneral), WithPrefilter(tc.mode))
			if err != nil {
				t.Fatal(err)
			}
			var dst *Matches
			for i := 0; i < 3; i++ {
				dst = m.MatchInto(dst, text)
			}
			if got := cap(dst.enc) >= len(text); got != tc.encoded {
				t.Fatalf("warmed Matches holds a %d-symbol encode buffer over a %d-byte text", cap(dst.enc), len(text))
			}
			if !tc.encoded {
				if avg := testing.AllocsPerRun(5, func() { dst = m.MatchInto(dst, text) }); avg != 0 {
					t.Fatalf("warmed filtered MatchInto on 1 MiB allocates %.1f times per op; want 0", avg)
				}
			}
			dst.Release()
		})
	}
}

// BenchmarkHotPathMatch measures the steady-state MatchInto path (the E15
// experiment in cmd/benchtab sweeps this space more finely).
func BenchmarkHotPathMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	var patterns [][]byte
	for i := 0; i < 64; i++ {
		p := make([]byte, 6+rng.Intn(10))
		rng.Read(p)
		patterns = append(patterns, p)
	}
	text := randTextWithPlants(rng, patterns, 1<<16, 16)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", []Option{WithEngine(EngineGeneral)}},
		{"prefilter-wide", []Option{WithEngine(EngineGeneral), WithPrefilter(PrefilterOn)}},
		{"prefilter-scalar", []Option{WithEngine(EngineGeneral), WithPrefilter(prefilterScalar)}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, err := NewMatcher(patterns, tc.opts...)
			if err != nil {
				b.Fatal(err)
			}
			var dst *Matches
			dst = m.MatchInto(dst, text)
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = m.MatchInto(dst, text)
			}
		})
	}
}

// TestPrefilterSchedulerStats: with the obs layer on, the pool counters
// report positions scanned and screened by the prefilter.
func TestPrefilterSchedulerStats(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	pool := NewPool(1)
	defer pool.Close()
	patterns := [][]byte{[]byte("needle-in"), []byte("haystackxyz")}
	m, err := NewMatcher(patterns, WithEngine(EngineGeneral), WithPrefilter(PrefilterOn), WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	text := make([]byte, 10000)
	for i := range text {
		text[i] = byte('a' + i%3) // unrelated text: nearly everything screened
	}
	m.Match(text)
	st := pool.Stats()
	if st.PrefilterScanned != int64(len(text)) {
		t.Fatalf("PrefilterScanned = %d, want %d", st.PrefilterScanned, len(text))
	}
	if st.PrefilterSkipped <= int64(len(text))/2 {
		t.Fatalf("PrefilterSkipped = %d; expected the filter to screen most of %d positions",
			st.PrefilterSkipped, len(text))
	}
	if st.PrefilterSkipped > st.PrefilterScanned {
		t.Fatalf("skipped %d exceeds scanned %d", st.PrefilterSkipped, st.PrefilterScanned)
	}
}

// TestRejectDuplicatesWitness: the sorted chain pass must report the same
// duplicate witness the historic insertion-order map scan did — the earliest
// second occurrence, paired with that pattern's first index.
func TestRejectDuplicatesWitness(t *testing.T) {
	cases := []struct {
		encoded       [][]int32
		first, second int
	}{
		{[][]int32{{2}, {1}, {1}, {2}}, 1, 2},      // b a a b -> (1,2), not (0,3)
		{[][]int32{{1}, {2}, {1}, {2}, {2}}, 0, 2}, // a b a b b -> (0,2)
		{[][]int32{{5, 6}, {5}, {5, 6}}, 0, 2},     // prefix is not a duplicate
		{[][]int32{{7}, {8}, {9}, {7}, {8}}, 0, 3}, // earliest second occurrence wins
	}
	for i, tc := range cases {
		_, err := prefixChain(tc.encoded)
		de, ok := err.(*core.DuplicateError)
		if !ok {
			t.Fatalf("case %d: got %v, want DuplicateError", i, err)
		}
		if de.First != tc.first || de.Second != tc.second {
			t.Fatalf("case %d: witness (%d,%d), want (%d,%d)", i, de.First, de.Second, tc.first, tc.second)
		}
	}
	if _, err := prefixChain([][]int32{{1}, {2}, {1, 2}}); err != nil {
		t.Fatalf("distinct patterns rejected: %v", err)
	}
}
