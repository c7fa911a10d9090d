package streamcore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pardict/internal/ahocorasick"
	"pardict/internal/alpha"
	"pardict/internal/naive"
)

func mustCore(t *testing.T, pats ...string) *Core {
	t.Helper()
	enc := alpha.NewByteEncoder()
	encoded := make([][]int32, len(pats))
	for i, p := range pats {
		encoded[i] = enc.Encode([]byte(p))
	}
	c, err := NewCore(encoded, enc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

type scHit struct {
	pos int64
	pat int
}

// oracle computes the expected stream output: longest pattern per start
// position over the whole text at once.
func oracle(t *testing.T, c *Core, text []byte) []scHit {
	t.Helper()
	enc := alpha.NewByteEncoder()
	out := c.dfa.LongestMatchStarting(enc.Encode(text))
	var hits []scHit
	for j, p := range out {
		if p >= 0 {
			hits = append(hits, scHit{int64(j), int(p)})
		}
	}
	return hits
}

// feedAll drives a session over text in the given chunk sizes, scanning in
// segments of segLimit (0 = unbounded), and returns everything emitted.
func feedAll(t *testing.T, c *Core, text []byte, chunks []int, segLimit int) []scHit {
	t.Helper()
	s := c.NewSession()
	var got []scHit
	emit := func(pos int64, pat int) { got = append(got, scHit{pos, pat}) }
	at := 0
	for _, n := range chunks {
		end := at + n
		if end > len(text) {
			end = len(text)
		}
		s.Buffer(text[at:end])
		for s.Unscanned() > 0 {
			s.Scan(segLimit)
		}
		s.EmitFinal(emit)
		at = end
	}
	if at < len(text) {
		s.Buffer(text[at:])
		s.Scan(0)
		s.EmitFinal(emit)
	}
	s.Flush(emit)
	return got
}

func sameSC(a, b []scHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSessionEqualsOracle drives random chunkings and segment limits against
// the whole-text automaton scan.
func TestSessionEqualsOracle(t *testing.T) {
	c := mustCore(t, "abra", "abracadabra", "cad", "ra", "a")
	rng := rand.New(rand.NewSource(7))
	base := []byte("abracadabra abracad cadabra raab ")
	var text []byte
	for len(text) < 5000 {
		text = append(text, base[rng.Intn(len(base))])
	}
	want := oracle(t, c, text)
	if len(want) == 0 {
		t.Fatal("vacuous workload")
	}
	for trial := 0; trial < 25; trial++ {
		var chunks []int
		rem := len(text)
		for rem > 0 {
			n := 1 + rng.Intn(97)
			chunks = append(chunks, n)
			rem -= n
		}
		seg := []int{0, 1, 7, 64}[trial%4]
		got := feedAll(t, c, text, chunks, seg)
		if !sameSC(got, want) {
			t.Fatalf("trial %d (seg %d): %d hits, want %d", trial, seg, len(got), len(want))
		}
	}
}

// TestScannedBytesIsLinear pins the tentpole guarantee: N one-byte feeds step
// the automaton over exactly N bytes — the hold-back region is never
// re-scanned. (The pre-refactor implementation re-matched the whole carry per
// feed, i.e. ~N·MaxLen automaton steps.)
func TestScannedBytesIsLinear(t *testing.T) {
	c := mustCore(t, "abcabcabcabcabcabcabcabc", "bca", "c") // MaxLen 24
	s := c.NewSession()
	text := make([]byte, 4096)
	for i := range text {
		text[i] = "abc"[i%3]
	}
	emit := func(int64, int) {}
	for i := range text {
		s.Buffer(text[i : i+1])
		s.Scan(0)
		s.EmitFinal(emit)
	}
	if got := s.ScannedBytes(); got != int64(len(text)) {
		t.Fatalf("scanned %d bytes for %d fed; per-byte work is not O(1)", got, len(text))
	}
	s.Flush(emit)
	if got := s.ScannedBytes(); got != int64(len(text)) {
		t.Fatalf("flush rescanned: %d", got)
	}
}

// TestSessionDrainKeepsOnlyRing feeds 1 MiB in one chunk. While it is
// scanned the session holds the unscanned bytes and 8 bytes per hit (within
// the append's growth slack); once the feed is emitted it holds only its
// MaxLen-sized ring — no carry and no hit buffer.
func TestSessionDrainKeepsOnlyRing(t *testing.T) {
	c := mustCore(t, "abracadabra", "cad")
	s := c.NewSession()
	huge := make([]byte, 1<<20)
	for i := range huge {
		huge[i] = "abracadabra."[i%12]
	}
	s.Buffer(huge)
	if len(s.carry) != len(huge) || cap(s.carry) > 2*len(huge) {
		t.Fatalf("carry len %d cap %d for a %d-byte feed", len(s.carry), cap(s.carry), len(huge))
	}
	s.Scan(0)
	if s.carry != nil {
		t.Fatalf("scanned carry kept: cap %d", cap(s.carry))
	}
	if len(s.hits) == 0 || cap(s.hits) > 2*len(s.hits) {
		t.Fatalf("hit buffer len %d cap %d", len(s.hits), cap(s.hits))
	}
	var n int
	s.EmitFinal(func(int64, int) { n++ })
	if want := 2 * len(huge) / 12; n < want-1 || n > want {
		t.Fatalf("%d hits emitted, want about %d", n, want)
	}
	if s.carry != nil || s.hits != nil {
		t.Fatalf("drained session holds carry cap %d and hits cap %d", cap(s.carry), cap(s.hits))
	}
	if len(s.ring) != 16 || cap(s.ring) != 16 { // pow2 ≥ MaxLen 11
		t.Fatalf("ring len %d cap %d, want 16", len(s.ring), cap(s.ring))
	}
	if s.Pending() != c.dfa.Hold() {
		t.Fatalf("pending %d, want the hold %d", s.Pending(), c.dfa.Hold())
	}
}

// TestPartialScanKeepsEmitConservative pins the cancellation shape: scanning
// part of the buffer and emitting finalizes only positions whose longest
// match is already decided, and a later resumed scan emits the rest exactly
// once.
func TestPartialScanKeepsEmitConservative(t *testing.T) {
	c := mustCore(t, "abcd", "bc")
	text := []byte("xabcdxbcxxabcd")
	want := oracle(t, c, text)

	s := c.NewSession()
	var got []scHit
	emit := func(pos int64, pat int) { got = append(got, scHit{pos, pat}) }
	s.Buffer(text)
	s.Scan(5) // partial: automaton stops mid-buffer
	n1 := s.EmitFinal(emit)
	if wantFin := 5 - c.dfa.Hold(); n1 != wantFin {
		t.Fatalf("partial scan finalized %d, want %d", n1, wantFin)
	}
	for s.Unscanned() > 0 {
		s.Scan(3)
	}
	s.EmitFinal(emit)
	s.Flush(emit)
	if !sameSC(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestFlushThenContinue: a session continues as a fresh stream after Flush.
func TestFlushThenContinue(t *testing.T) {
	c := mustCore(t, "abc")
	s := c.NewSession()
	var got []scHit
	emit := func(pos int64, pat int) { got = append(got, scHit{pos, pat}) }
	s.Buffer([]byte("xxabc"))
	s.Scan(0)
	s.EmitFinal(emit)
	s.Flush(emit)
	if s.Offset() != 5 || s.Pending() != 0 {
		t.Fatalf("offset %d pending %d after flush", s.Offset(), s.Pending())
	}
	// "ab" before the flush and "c" after must NOT join: the flush ended the
	// stream segment and reset the automaton.
	s.Buffer([]byte("abc"))
	s.Scan(0)
	s.EmitFinal(emit)
	s.Flush(emit)
	want := []scHit{{2, 0}, {5, 0}}
	if !sameSC(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}

	// A match in the flushed tail ("c" at 4) is emitted once: the next
	// stream's first reads land on the tail's ring slots.
	c = mustCore(t, "abc", "c")
	s = c.NewSession()
	got = got[:0]
	for _, chunk := range []string{"xxabc", "zzzz"} {
		s.Buffer([]byte(chunk))
		s.Scan(0)
		s.EmitFinal(emit)
		s.Flush(emit)
	}
	if want := []scHit{{2, 0}, {4, 1}}; !sameSC(got, want) {
		t.Fatalf("tail match: got %v want %v", got, want)
	}
}

// TestEmptyDictionary: a zero-pattern core never emits and never holds bytes.
func TestEmptyDictionary(t *testing.T) {
	enc := alpha.NewByteEncoder()
	c, err := NewCore(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if c.dfa.Hold() != 0 {
		t.Fatalf("hold = %d", c.dfa.Hold())
	}
	s := c.NewSession()
	s.Buffer([]byte("anything"))
	s.Scan(0)
	if n := s.EmitFinal(func(int64, int) { t.Fatal("emit on empty dictionary") }); n != 8 {
		t.Fatalf("finalized %d", n)
	}
	s.Flush(func(int64, int) { t.Fatal("emit on empty dictionary") })
}

// tableCase is one dictionary for TestTableScanMatchesOracle: patterns and
// text over an encoder's alphabet, the text possibly holding bytes outside it.
type tableCase struct {
	name string
	enc  *alpha.Encoder
	pats [][]byte
	text []byte
}

// tableCases builds dictionaries over σ ∈ {2, 4, 26, 256} — random ones,
// nested and periodic ones, and one using all 256 byte values, which needs
// 257 classes with the no-edge class — with texts that plant pattern
// occurrences, and for the dense encoders sprinkle out-of-alphabet bytes.
func tableCases(t *testing.T, rng *rand.Rand) []tableCase {
	t.Helper()
	dense := func(sigma string) *alpha.Encoder {
		e, err := alpha.NewDenseEncoder([]byte(sigma))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	word := func(sigma string, n int) []byte {
		w := make([]byte, n)
		for i := range w {
			w[i] = sigma[rng.Intn(len(sigma))]
		}
		return w
	}
	randomDict := func(sigma string, np, maxLen int) [][]byte {
		seen := map[string]bool{}
		var pats [][]byte
		for len(pats) < np {
			p := word(sigma, 1+rng.Intn(maxLen))
			if !seen[string(p)] {
				seen[string(p)] = true
				pats = append(pats, p)
			}
		}
		return pats
	}
	// text mixes alphabet bytes, planted patterns and, when foreign is
	// non-empty, about one byte in ten from outside the alphabet.
	text := func(sigma, foreign string, pats [][]byte, n int) []byte {
		var out []byte
		for len(out) < n {
			switch r := rng.Intn(10); {
			case r < 4:
				out = append(out, pats[rng.Intn(len(pats))]...)
			case r == 4 && foreign != "":
				out = append(out, foreign[rng.Intn(len(foreign))])
			default:
				out = append(out, word(sigma, 1+rng.Intn(4))...)
			}
		}
		return out
	}
	const foreign = "N\n\xffA-"
	alphabets := map[int]string{2: "ab", 4: "acgt", 26: "abcdefghijklmnopqrstuvwxyz"}
	var cases []tableCase
	for _, sigma := range []int{2, 4, 26} {
		a := alphabets[sigma]
		pats := randomDict(a, 40, 12)
		cases = append(cases, tableCase{fmt.Sprintf("random-σ%d", sigma), dense(a), pats, text(a, foreign, pats, 6000)})
	}

	var all []byte
	for b := 0; b < 256; b++ {
		all = append(all, byte(b))
	}
	pats := randomDict(string(all), 60, 10)
	seen := map[string]bool{}
	for _, p := range pats {
		seen[string(p)] = true
	}
	for b := 0; b < 256; b++ {
		if p := []byte{byte(b), byte(255 - b), byte(b)}; !seen[string(p)] {
			pats = append(pats, p)
		}
	}
	cases = append(cases, tableCase{"all-bytes-σ256", alpha.NewByteEncoder(), pats, text(string(all), "", pats, 8000)})

	var nested [][]byte
	for l := 1; l <= 24; l++ {
		nested = append(nested, bytes.Repeat([]byte("a"), l))
	}
	nested = append(nested, []byte("ab"), []byte("aab"))
	cases = append(cases, tableCase{"nested-σ2", dense("ab"), nested, text("aaaaaaaab", foreign, nested, 6000)})

	var periodic [][]byte
	for k := 1; k <= 8; k++ {
		periodic = append(periodic, bytes.Repeat([]byte("ac"), k), bytes.Repeat([]byte("acg"), k))
	}
	periodic = append(periodic, []byte("aca"), []byte("cac"), []byte("gac"))
	cases = append(cases, tableCase{"periodic-σ4", dense("acgt"), periodic, text("acgt", foreign, periodic, 6000)})

	// About 75,000 states: at the production budget every state has a row,
	// and the entries of the rows whose targets pass 16 bits escape to the
	// sparse step. MaxLen 33 makes the hold a power of two, so a ring one
	// slot short of MaxLen would alias.
	var deep [][]byte
	for len(deep) < 4000 {
		if p := word("ab", 24+rng.Intn(10)); !seen[string(p)] {
			seen[string(p)] = true
			deep = append(deep, p)
		}
	}
	cases = append(cases, tableCase{"deep-σ2", dense("ab"), deep, text("ab", foreign, deep, 6000)})
	return cases
}

// TestTableScanMatchesOracle drives sessions over the byte-class table at
// the production budget, at an eighth of the production table (most states
// sparse) and at zero (no rows at all), under random chunkings and segment
// limits, against LongestMatchStarting of a separately built automaton fed
// the encoded text, itself checked against brute force. The table must never
// exceed its budget. The deep-σ2 dictionary has more states than a 16-bit
// entry can name, so its table escapes to the sparse step.
func TestTableScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, tc := range tableCases(t, rng) {
		encoded := make([][]int32, len(tc.pats))
		for i, p := range tc.pats {
			e, err := tc.enc.EncodePattern(p)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			encoded[i] = e
		}
		ac, err := ahocorasick.New(encoded)
		if err != nil {
			t.Fatal(err)
		}
		// The oracle automaton shares its build with the kernel, so pin it
		// to the brute-force answer first.
		textSyms := tc.enc.Encode(tc.text)
		longest, brute := ac.LongestMatchStarting(textSyms), naive.LongestPattern(encoded, textSyms)
		var want []scHit
		for j, p := range longest {
			if p != brute[j] {
				t.Fatalf("%s: oracle pos %d: %d, brute force %d", tc.name, j, p, brute[j])
			}
			if p >= 0 {
				want = append(want, scHit{int64(j), int(p)})
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: vacuous workload", tc.name)
		}
		prod, err := newCore(encoded, tc.enc, tableBudget)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "deep-σ2" && prod.dfa.States() <= 65535 {
			t.Fatalf("%s: %d states do not pass the 16-bit range", tc.name, prod.dfa.States())
		}
		for _, budget := range []int{tableBudget, prod.dfa.TableBytes() / 8, 0} {
			c, err := newCore(encoded, tc.enc, budget)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.dfa.TableBytes(); got > budget {
				t.Fatalf("%s: table %d bytes over budget %d", tc.name, got, budget)
			}
			for trial := 0; trial < 4; trial++ {
				var chunks []int
				for rem := len(tc.text); rem > 0; {
					n := 1 + rng.Intn(200)
					chunks = append(chunks, n)
					rem -= n
				}
				seg := []int{0, 1, 13, 64}[trial]
				if got := feedAll(t, c, tc.text, chunks, seg); !sameSC(got, want) {
					t.Fatalf("%s budget %d trial %d: %d hits, want %d", tc.name, budget, trial, len(got), len(want))
				}
			}
		}
	}
}
