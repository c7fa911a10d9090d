package pardict

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"pardict/internal/core"
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
	for _, cut := range []int{1, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := LoadMatcher(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
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

func TestSaveFormatV2Checksum(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("he"), []byte("she"), []byte("hers")}, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// A pristine stream loads.
	if _, err := LoadMatcher(bytes.NewReader(full)); err != nil {
		t.Fatalf("pristine v2 load: %v", err)
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

func TestSaveFormatV1LegacyLoad(t *testing.T) {
	pats := [][]byte{[]byte("acgt"), []byte("gat"), []byte("ga")}
	m, err := NewMatcher(pats, WithEngine(EngineGeneral), WithAlphabet([]byte("acgt")))
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := m.saveVersion(&v1, matcherVersionV1); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := m.Save(&v2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(v1.Bytes(), v2.Bytes()) {
		t.Fatal("v1 and v2 streams identical; version/checksum not written")
	}
	loaded, err := LoadMatcher(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("legacy v1 load: %v", err)
	}
	if loaded.PatternCount() != 3 {
		t.Fatalf("legacy load pattern count %d", loaded.PatternCount())
	}
	r := loaded.Match([]byte("xgatx"))
	if p, ok := r.Longest(1); !ok || p != 1 {
		t.Fatalf("legacy-loaded matcher broken: %d %v", p, ok)
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
		t.Fatalf("empty v2 load: %v", err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)-2] ^= 1
	if _, err := LoadMatcher(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptSave) {
		t.Fatalf("empty corrupt: %v", err)
	}
}

// TestLoadAllocatesByBytesRead feeds LoadMatcher short streams whose counts
// and lengths claim far more data than follows — as a forged /reload body
// would — and requires an error with under 1 MiB allocated, in both the
// matcher's own sections and the engine payload.
func TestLoadAllocatesByBytesRead(t *testing.T) {
	le := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, uint32(w))
		}
		return b
	}
	// A version-1 engine payload starts with its own header: magic,
	// version, maxLen, levels, nameCount and pattern count.
	const dictMagic, dictVersion = 0x70644431, 1
	cases := []struct {
		name string
		data []byte
	}{
		{"2^28 patterns", le(matcherMagic, matcherVersion, 0, 1<<28)},
		{"pattern of 2^28 bytes", le(matcherMagic, matcherVersion, 0, 1, 1<<28)},
		{"engine payload of 2^31 bytes", binary.LittleEndian.AppendUint64(le(matcherMagic, matcherVersion, 0, 0), 1<<31)},
		{"engine with 2^31 patterns", le(matcherMagic, matcherVersionV1, 0, 0, dictMagic, dictVersion, 1, 1, 0, 1<<31)},
		{"engine array of 2^28", le(matcherMagic, matcherVersionV1, 0, 0, dictMagic, dictVersion, 1, 1, 0, 1, 1<<28)},
		{"engine table of 2^28", le(matcherMagic, matcherVersionV1, 0, 0, dictMagic, dictVersion, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1<<28)},
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

// TestLoadRejectsForeignEngine: a checksummed stream whose engine payload
// compiles more patterns than its pattern list must not load — All would
// index the list's chain with the engine's pattern ids.
func TestLoadRejectsForeignEngine(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("he"), []byte("she"), []byte("hers")}, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	m.patterns = m.patterns[:2]
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil { // Save recomputes the checksum
		t.Fatal(err)
	}
	if _, err := LoadMatcher(&buf); !errors.Is(err, core.ErrBadFormat) {
		t.Fatalf("err = %v, want core.ErrBadFormat", err)
	}
}

// FuzzLoadMatcher feeds LoadMatcher arbitrary bytes, as /reload does with a
// request body. It must return an error or a matcher, never panic or abort;
// a stream it accepts must match (Longest and All at every position of a
// text holding the input and every pattern) and round-trip its pattern list
// through Save. The checked-in seeds are a version-2 stream, a version-1
// stream, a header declaring 2^28 patterns, and a version-2 stream whose
// last down-table value is 1<<20 under a recomputed checksum.
func FuzzLoadMatcher(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadMatcher(bytes.NewReader(data))
		if err != nil {
			return
		}
		text := append([]byte(nil), data...)
		for i := 0; i < m.PatternCount(); i++ {
			text = append(text, m.Pattern(i)...)
		}
		r := m.Match(text)
		var all []int
		for i := 0; i < r.Len(); i++ {
			r.Longest(i)
			all = r.All(i, all[:0])
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("save of a loaded matcher: %v", err)
		}
		again, err := LoadMatcher(&buf)
		if err != nil {
			t.Fatalf("load of a fresh save: %v", err)
		}
		if again.PatternCount() != m.PatternCount() {
			t.Fatalf("round trip: %d patterns, want %d", again.PatternCount(), m.PatternCount())
		}
		for i := 0; i < m.PatternCount(); i++ {
			if !bytes.Equal(again.Pattern(i), m.Pattern(i)) {
				t.Fatalf("round trip: pattern %d is %q, want %q", i, again.Pattern(i), m.Pattern(i))
			}
		}
	})
}
