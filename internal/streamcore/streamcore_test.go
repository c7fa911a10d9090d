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

// TestShrinkCarryBoundaries pins the reallocation policy: small buffers stay
// in place, large mostly-dead buffers are copied into right-sized ones, and
// the surviving bytes are always exactly the unfinalized tail.
func TestShrinkCarryBoundaries(t *testing.T) {
	fill := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + i%26)
		}
		return b
	}

	// Small capacity (≤ 64): reslice in place, no copy.
	small := fill(32)
	got := shrinkCarry(small, 10)
	if string(got) != string(fill(32)[10:]) {
		t.Fatalf("small: wrong tail %q", got)
	}
	if &got[0] != &small[0] {
		t.Fatalf("small carry was reallocated")
	}

	// Large buffer, live tail > cap/4: still in place.
	large := fill(1024)
	got = shrinkCarry(large, 100) // rem = 924 > 256
	if len(got) != 924 || &got[0] != &large[0] {
		t.Fatalf("large mostly-live carry should shrink in place")
	}

	// Large buffer, tiny live tail: reallocated and right-sized.
	large = fill(1024)
	got = shrinkCarry(large, 1000) // rem = 24 < 256
	if string(got) != string(fill(1024)[1000:]) {
		t.Fatalf("realloc: wrong tail %q", got)
	}
	if cap(got) > 64 {
		t.Fatalf("realloc kept %d cap for 24 live bytes", cap(got))
	}

	// Everything finalized: empty result, any representation.
	if got = shrinkCarry(fill(128), 128); len(got) != 0 {
		t.Fatalf("full finalize left %d bytes", len(got))
	}
	// Nothing finalized: unchanged.
	b := fill(16)
	if got = shrinkCarry(b, 0); string(got) != string(fill(16)) {
		t.Fatalf("zero finalize changed carry")
	}
}

// TestSessionBuffersShrink pins shrinkCarry/shrinkRing at the session
// boundary: a single huge feed grows carry and ring to cover its span; a few
// steady-state feeds later both are back near the hold-back footprint.
func TestSessionBuffersShrink(t *testing.T) {
	c := mustCore(t, "abracadabra", "cad")
	s := c.NewSession()
	emit := func(int64, int) {}

	huge := make([]byte, 1<<18)
	for i := range huge {
		huge[i] = "abracadabra."[i%12]
	}
	s.Buffer(huge)
	s.Scan(0)
	if s.RingLen() < 1<<18 {
		t.Fatalf("ring %d never grew to cover a %d-byte span", s.RingLen(), len(huge))
	}
	s.EmitFinal(emit)
	for i := 0; i < 4; i++ {
		s.Buffer([]byte("abracadabra"))
		s.Scan(0)
		s.EmitFinal(emit)
	}
	if cp := s.CarryCap(); cp > 4*(c.MaxLen()+64) {
		t.Fatalf("carry capacity %d not shrunk (hold = %d)", cp, c.Hold())
	}
	if rl := s.RingLen(); rl > 4*pow2ceil(c.MaxLen()+64) {
		t.Fatalf("ring %d not shrunk (floor %d)", rl, c.ringFloor)
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
	if wantFin := 5 - c.Hold(); n1 != wantFin {
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
}

// TestEmptyDictionary: a zero-pattern core never emits and never holds bytes.
func TestEmptyDictionary(t *testing.T) {
	enc := alpha.NewByteEncoder()
	c, err := NewCore(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hold() != 0 {
		t.Fatalf("hold = %d", c.Hold())
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
	return cases
}

// TestTableScanMatchesOracle drives sessions over the byte-class table at
// the production budget, at an eighth of the production table (most states
// sparse) and at zero (no rows at all), under random chunkings and segment
// limits, against LongestMatchStarting of a separately built automaton fed
// the encoded text, itself checked against brute force. The table must never
// exceed its budget.
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
