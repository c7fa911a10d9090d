package pardict

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pardict/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ip := workload.Dictionary(17, 64, 1, 40, 6)
	pats := make([][]byte, len(ip))
	for i, p := range ip {
		for j := range p {
			p[j] += 'a'
		}
		pats[i] = workload.Bytes(p)
	}
	m, err := NewMatcher(pats, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMatcher(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.PatternCount() != m.PatternCount() || loaded.MaxLen() != m.MaxLen() ||
		loaded.Size() != m.Size() || loaded.Engine() != EngineGeneral {
		t.Fatal("metadata mismatch after load")
	}
	for i := 0; i < m.PatternCount(); i++ {
		if string(loaded.Pattern(i)) != string(m.Pattern(i)) {
			t.Fatalf("pattern %d mismatch", i)
		}
	}
	text := workload.Bytes(workload.PlantedText(18, 20000, 6, ip, 30))
	for j := range text {
		if text[j] < 'a' {
			text[j] += 'a'
		}
	}
	r1, r2 := m.Match(text), loaded.Match(text)
	for j := range text {
		p1, ok1 := r1.Longest(j)
		p2, ok2 := r2.Longest(j)
		if p1 != p2 || ok1 != ok2 {
			t.Fatalf("pos %d: original %d,%v loaded %d,%v", j, p1, ok1, p2, ok2)
		}
		a1, a2 := r1.All(j, nil), r2.All(j, nil)
		if len(a1) != len(a2) {
			t.Fatalf("pos %d: all-matches diverge", j)
		}
	}
}

func TestSaveLoadWithAlphabet(t *testing.T) {
	pats := [][]byte{[]byte("acgt"), []byte("gat")}
	m, err := NewMatcher(pats, WithEngine(EngineGeneral), WithAlphabet([]byte("acgt")))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMatcher(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := loaded.Match([]byte("xgatx"))
	if p, ok := r.Longest(1); !ok || p != 1 {
		t.Fatalf("loaded matcher broken: %d %v", p, ok)
	}
}

func TestSaveUnsupportedEngines(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("ab"), []byte("cd")}) // equal-length auto
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&bytes.Buffer{}); err != ErrSaveUnsupported {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a matcher"),
		{0x31, 0x4D, 0x64, 0x70, 0xFF, 0xFF, 0xFF, 0xFF}, // right magic, bad version
	}
	for i, b := range cases {
		if _, err := LoadMatcher(bytes.NewReader(b)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
	// Version 1 carried no checksum; it is refused, not parsed.
	v1 := leWords(matcherMagic, 1, 0, 1, 2, 'h'|'e'<<8)
	if _, err := LoadMatcher(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version-1 stream: err = %v, want unsupported version", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("hello"), []byte("world!")}, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := LoadMatcher(bytes.NewReader(full[:cut])); !errors.Is(err, ErrCorruptSave) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorruptSave", cut, err)
		}
	}
}

func TestSaveLoadEmptyDictionary(t *testing.T) {
	m, err := NewMatcher(nil, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMatcher(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := loaded.Match([]byte("anything"))
	if r.Count() != 0 {
		t.Fatal("empty dictionary matched")
	}
}

// TestSaveFormatV2Checksum checks the trailing CRC-32, introduced by
// version 2, on a stream Save writes and on a version-2 stream with an
// engine section.
func TestSaveFormatV2Checksum(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("he"), []byte("she"), []byte("hers")}, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, full := range [][]byte{buf.Bytes(), v2Stream(nil, []string{"he", "she", "hers"}, []byte("engine"))} {
		// A pristine stream loads.
		if _, err := LoadMatcher(bytes.NewReader(full)); err != nil {
			t.Fatalf("pristine load: %v", err)
		}

		// Corrupting the trailing checksum itself is caught.
		bad := append([]byte(nil), full...)
		bad[len(bad)-1] ^= 0xff
		if _, err := LoadMatcher(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptSave) {
			t.Fatalf("flipped checksum: err = %v, want ErrCorruptSave", err)
		}

		// Flipping any payload byte past the version field must be rejected —
		// either as a parse failure or as a checksum mismatch, never accepted.
		for pos := 8; pos < len(full)-4; pos += 7 {
			bad := append([]byte(nil), full...)
			bad[pos] ^= 0x55
			if _, err := LoadMatcher(bytes.NewReader(bad)); err == nil {
				t.Fatalf("corruption at byte %d accepted", pos)
			}
		}

		// Truncating the checksum (or part of it) fails closed.
		for cut := 1; cut <= 4; cut++ {
			if _, err := LoadMatcher(bytes.NewReader(full[:len(full)-cut])); err == nil {
				t.Fatalf("stream short %d checksum bytes accepted", cut)
			}
		}
	}
}

func TestSaveV2EmptyDictionaryChecksum(t *testing.T) {
	m, err := NewMatcher(nil, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMatcher(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty load: %v", err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)-2] ^= 1
	if _, err := LoadMatcher(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptSave) {
		t.Fatalf("empty corrupt: %v", err)
	}
}

// TestLoadAllocatesByBytesRead feeds LoadMatcher short streams whose counts
// and lengths claim far more data than follows — as a forged /reload body
// would — and requires an error with under 1 MiB allocated, in the pattern
// list and in a version-2 engine section.
func TestLoadAllocatesByBytesRead(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"2^28 patterns", leWords(matcherMagic, matcherVersion, 0, 1<<28)},
		{"pattern of 2^28 bytes", leWords(matcherMagic, matcherVersion, 0, 1, 1<<28)},
		{"engine section of 2^31 bytes", binary.LittleEndian.AppendUint64(leWords(matcherMagic, matcherVersionV2, 0, 0), 1<<31)},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadMatcher(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: loaded without error", c.name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Fatalf("%s: allocated %d bytes for a %d-byte stream", c.name, d, len(c.data))
		}
	}
}

// leWords encodes words as consecutive little-endian uint32s.
func leWords(words ...uint32) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// v2Stream builds a version-2 stream, the format Save wrote while it still
// shipped the compiled tables: the version-3 sections, then engine as a
// length-prefixed engine section, then the CRC-32.
func v2Stream(sigma []byte, patterns []string, engine []byte) []byte {
	b := leWords(matcherMagic, matcherVersionV2, uint32(len(sigma)))
	b = append(b, sigma...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(patterns)))
	for _, p := range patterns {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(engine)))
	b = append(b, engine...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestLoadVersion2SkipsEngineSection: a version-2 stream loads to exactly
// its pattern list whatever its engine section holds, and the checksum still
// covers that section.
func TestLoadVersion2SkipsEngineSection(t *testing.T) {
	pats := []string{"ab", "abc", "de"}
	junk := bytes.Repeat([]byte{0xA5, 0x5A, 0xFF}, 100)
	stream := v2Stream(nil, pats, junk)
	m, err := LoadMatcher(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if m.PatternCount() != len(pats) {
		t.Fatalf("%d patterns, want %d", m.PatternCount(), len(pats))
	}
	for i, p := range pats {
		if string(m.Pattern(i)) != p {
			t.Fatalf("pattern %d is %q, want %q", i, m.Pattern(i), p)
		}
	}
	r := m.Match([]byte("xabcxdex"))
	if p, ok := r.Longest(1); !ok || p != 1 {
		t.Fatalf("Longest(1) = %d,%v, want abc", p, ok)
	}
	if p, ok := r.Longest(5); !ok || p != 2 {
		t.Fatalf("Longest(5) = %d,%v, want de", p, ok)
	}
	sharded := newSharded(t)
	if err := sharded.ReloadSaved(bytes.NewReader(stream)); err != nil || sharded.Len() != len(pats) {
		t.Fatalf("ReloadSaved: %v, %d patterns", err, sharded.Len())
	}

	engineAt := len(stream) - 4 - len(junk)
	for _, at := range []int{engineAt, engineAt + len(junk)/2, len(stream) - 5} {
		bad := bytes.Clone(stream)
		bad[at] ^= 1
		if _, err := LoadMatcher(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptSave) {
			t.Fatalf("flip at %d of the engine section: err = %v, want ErrCorruptSave", at-engineAt, err)
		}
	}
	if _, err := LoadMatcher(bytes.NewReader(stream[:engineAt+len(junk)/2])); !errors.Is(err, ErrCorruptSave) {
		t.Fatalf("stream cut inside the engine section: err = %v, want ErrCorruptSave", err)
	}
}

// fuzzSeed reads a checked-in FuzzLoadMatcher seed.
func fuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadMatcher", name))
	if err != nil {
		t.Fatal(err)
	}
	const head = "go test fuzz v1\n[]byte("
	s := strings.TrimSpace(string(raw))
	if !strings.HasPrefix(s, head) || !strings.HasSuffix(s, ")") {
		t.Fatalf("%s: not a []byte seed", name)
	}
	lit, err := strconv.Unquote(s[len(head) : len(s)-1])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(lit)
}

// TestLoadVersion2Seeds: the checked-in version-2 streams, written by Save
// when it shipped the compiled tables, load to their pattern lists and
// alphabets and match as NewMatcher does over them.
func TestLoadVersion2Seeds(t *testing.T) {
	for _, c := range []struct {
		seed  string
		sigma string
		pats  []string
	}{
		{"v2-stream", "", []string{"he", "she", "his", "hers"}},
		{"v2-stream-alphabet", "acgt", []string{"acgt", "gat", "ga"}},
	} {
		data := fuzzSeed(t, c.seed)
		m, err := LoadMatcher(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", c.seed, err)
		}
		if string(m.cfg.sigma) != c.sigma {
			t.Fatalf("%s: alphabet %q, want %q", c.seed, m.cfg.sigma, c.sigma)
		}
		pats := make([][]byte, len(c.pats))
		for i, p := range c.pats {
			pats[i] = []byte(p)
		}
		if got := m.patterns; !slices.EqualFunc(got, pats, bytes.Equal) {
			t.Fatalf("%s: patterns %q, want %q", c.seed, got, pats)
		}
		if err := agreesWithNewMatcher(m, []byte("ushers gattaca xacgtga "+c.sigma)); err != nil {
			t.Fatalf("%s: %v", c.seed, err)
		}
	}
}

// agreesWithNewMatcher compares m's Longest and All at every position of
// text with those of NewMatcher over m's pattern list and alphabet.
func agreesWithNewMatcher(m *Matcher, text []byte) error {
	want, err := NewMatcher(m.patterns, WithAlphabet(m.cfg.sigma), WithEngine(EngineGeneral))
	if err != nil {
		return fmt.Errorf("NewMatcher over the loaded patterns: %w", err)
	}
	got, ref := m.Match(text), want.Match(text)
	var all, refAll []int
	for i := 0; i < ref.Len(); i++ {
		p, ok := got.Longest(i)
		rp, rok := ref.Longest(i)
		if p != rp || ok != rok {
			return fmt.Errorf("pos %d: Longest %d,%v, NewMatcher %d,%v", i, p, ok, rp, rok)
		}
		all, refAll = got.All(i, all[:0]), ref.All(i, refAll[:0])
		if !slices.Equal(all, refAll) {
			return fmt.Errorf("pos %d: All %v, NewMatcher %v", i, all, refAll)
		}
	}
	return nil
}

// TestLoadMatcherOptions: LoadMatcher applies the caller's options as
// NewMatcher does, except the engine and alphabet, which the stream sets.
func TestLoadMatcherOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pats [][]byte
	for i := 0; i < 10; i++ {
		p := make([]byte, 12)
		rng.Read(p)
		pats = append(pats, p)
	}
	m, err := NewMatcher(pats, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	text := []byte("hello world")
	plain, err := LoadMatcher(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.Match(text).PrefixLen(0); !ok {
		t.Fatal("unfiltered load withholds PrefixLen")
	}
	filtered, err := LoadMatcher(bytes.NewReader(buf.Bytes()), WithPrefilter(PrefilterOn))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := filtered.Match(text).PrefixLen(0); ok {
		t.Fatal("LoadMatcher ignored WithPrefilter(PrefilterOn): PrefixLen reported")
	}

	dna, err := NewMatcher([][]byte{[]byte("acgt"), []byte("gat")}, WithEngine(EngineGeneral), WithAlphabet([]byte("acgt")))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := dna.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMatcher(&buf, WithEngine(EngineSmallAlphabet), WithAlphabet([]byte("xyz")))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Engine() != EngineGeneral || string(loaded.cfg.sigma) != "acgt" {
		t.Fatalf("engine %v, alphabet %q: the stream's must win", loaded.Engine(), loaded.cfg.sigma)
	}
	if p, ok := loaded.Match([]byte("xgatx")).Longest(1); !ok || p != 1 {
		t.Fatalf("Longest(1) = %d,%v, want gat", p, ok)
	}
}

// FuzzLoadMatcher feeds LoadMatcher arbitrary bytes, as /reload does with a
// request body. It must return an error or a matcher, never panic or abort.
// A stream it accepts must give, at every position of a text holding the
// input and every pattern, the Longest and All of NewMatcher over the loaded
// pattern list and alphabet, and must round-trip that list through Save. The
// checked-in seeds are version-2 streams without and with an alphabet, a
// version-1 stream, a header declaring 2^28 patterns, a version-2 stream
// whose last down-table value is 1<<20 and one whose lp table is permuted,
// both under a recomputed checksum.
func FuzzLoadMatcher(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadMatcher(bytes.NewReader(data))
		if err != nil {
			return
		}
		text := append([]byte(nil), data...)
		for _, p := range m.patterns {
			text = append(text, p...)
		}
		if err := agreesWithNewMatcher(m, text); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("save of a loaded matcher: %v", err)
		}
		again, err := LoadMatcher(&buf)
		if err != nil {
			t.Fatalf("load of a fresh save: %v", err)
		}
		if !slices.EqualFunc(again.patterns, m.patterns, bytes.Equal) || !bytes.Equal(again.cfg.sigma, m.cfg.sigma) {
			t.Fatalf("round trip: %q over %q, want %q over %q", again.patterns, again.cfg.sigma, m.patterns, m.cfg.sigma)
		}
	})
}
