package pardict

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pardict/internal/obs"
	"pardict/internal/workload"
)

func compressibleText() []byte {
	return bytes.Repeat([]byte("GET /api/v1/users/42 200 12ms\nGET /api/v1/items/7 200 9ms\n"), 2000)
}

func TestCompressedTextBasics(t *testing.T) {
	text := compressibleText()
	ct := Compress(text)
	if ct.Len() != len(text) {
		t.Fatalf("Len = %d, want %d", ct.Len(), len(text))
	}
	if ct.Phrases() <= 0 {
		t.Fatal("no phrases")
	}
	if r := ct.Ratio(); r < 5 {
		t.Fatalf("Ratio = %.2f on highly redundant text, want ≥ 5", r)
	}
	if !bytes.Equal(ct.Decode(), text) {
		t.Fatal("Decode mismatch")
	}

	// Incompressible text still round-trips; ratio reflects the overhead.
	rnd := workload.Bytes(workload.Text(3, 1<<14, 256))
	ct2 := Compress(rnd)
	if !bytes.Equal(ct2.Decode(), rnd) {
		t.Fatal("random decode mismatch")
	}
	if r := ct2.Ratio(); r > 1.2 {
		t.Fatalf("Ratio = %.2f on random bytes, want ≈ 1", r)
	}
}

// TestCompressedTextSaveLoad pins the v2 container conventions through the
// public surface: a clean round trip, then the three canonical corruption
// shapes — truncated blob, bad version byte, CRC flip — all rejected with an
// error wrapping ErrCorruptSave, mirroring LoadMatcher's contract.
func TestCompressedTextSaveLoad(t *testing.T) {
	text := compressibleText()
	ct := Compress(text)
	var buf bytes.Buffer
	if err := ct.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	got, err := LoadCompressedText(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Decode(), text) {
		t.Fatal("round trip mismatch")
	}

	// Load method replaces contents in place — and leaves them intact on error.
	var ct2 CompressedText
	if err := ct2.Load(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct2.Decode(), text) {
		t.Fatal("Load method round trip mismatch")
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 4, 12, len(blob) / 2, len(blob) - 1} {
			if _, err := LoadCompressedText(bytes.NewReader(blob[:cut])); !errors.Is(err, ErrCorruptSave) {
				t.Fatalf("cut at %d: err = %v, want ErrCorruptSave", cut, err)
			}
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := bytes.Clone(blob)
		bad[4] = 0x7f
		if _, err := LoadCompressedText(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptSave) {
			t.Fatalf("err = %v, want ErrCorruptSave", err)
		}
	})
	t.Run("crc-flip", func(t *testing.T) {
		for _, at := range []int{5, 13, len(blob) / 2, len(blob) - 2} {
			bad := bytes.Clone(blob)
			bad[at] ^= 0x01
			if _, err := LoadCompressedText(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptSave) {
				t.Fatalf("flip at %d: err = %v, want ErrCorruptSave", at, err)
			}
		}
	})
	t.Run("load-method-fails-closed", func(t *testing.T) {
		bad := bytes.Clone(blob)
		bad[len(bad)-1] ^= 0xff
		before := ct2.Len()
		if err := ct2.Load(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptSave) {
			t.Fatalf("err = %v, want ErrCorruptSave", err)
		}
		if ct2.Len() != before {
			t.Fatal("failed Load mutated the receiver")
		}
	})
}

// TestMatchCompressedEquivalenceSmoke is the quick in-package equivalence
// check (the full sweep lives in differential_test.go): empty text, text
// shorter than MaxLen, and a no-pattern-dictionary-free redundant case.
// TestLoadCompressedAllocatesByBytesRead feeds LoadCompressedText
// containers with valid checksums whose header or phrase count claims far
// more than the bytes sent, and requires ErrCorruptSave with under 1 MiB
// allocated.
func TestLoadCompressedAllocatesByBytesRead(t *testing.T) {
	phrases := binary.AppendUvarint(binary.AppendUvarint(nil, 1<<22), 1<<22) // n, z
	cases := []struct {
		name string
		data []byte
	}{
		{"2^22 phrases", lzContainer(uint64(len(phrases)), phrases)},
		{"payload of 2^24 bytes", lzContainer(1<<24, nil)},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadCompressedText(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptSave) {
			t.Fatalf("%s: err = %v, want ErrCorruptSave", c.name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Fatalf("%s: allocated %d bytes for a %d-byte container", c.name, d, len(c.data))
		}
	}
}

func TestMatchCompressedEdgeCases(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("abcab"), []byte("ab"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range [][]byte{
		nil,
		[]byte("a"),
		[]byte("ab"),
		[]byte("abcab"),
		bytes.Repeat([]byte("abcab"), 4000),
		append(bytes.Repeat([]byte("xyz"), 5000), []byte("abcab")...),
	} {
		ct := Compress(text)
		ref := m.Match(text)
		r := m.MatchCompressed(ct)
		if r.Len() != ref.Len() {
			t.Fatalf("len(text)=%d: Len %d want %d", len(text), r.Len(), ref.Len())
		}
		for j := 0; j < r.Len(); j++ {
			p, ok := r.Longest(j)
			rp, rok := ref.Longest(j)
			if p != rp || ok != rok {
				t.Fatalf("len(text)=%d pos %d: %d,%v want %d,%v", len(text), j, p, ok, rp, rok)
			}
		}
		r.Release()
		ref.Release()
	}
}

// TestMatchCompressedStats pins the headline property: on redundant text the
// compressed scan's counted Work is well below the raw scan's, and the lz
// obs counters move (windows scanned, interiors translated, bytes skipped)
// while staying outside the Work/Depth cost model.
func TestMatchCompressedStats(t *testing.T) {
	text := compressibleText()
	pats := [][]byte{[]byte("users"), []byte("items/7"), []byte("200 12ms")}
	m, err := NewMatcher(pats, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	ct := Compress(text)

	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	before := ReadLZStats()
	r := m.MatchCompressed(ct)
	after := ReadLZStats()
	ref := m.Match(text)

	if r.Stats().Work >= ref.Stats().Work {
		t.Fatalf("compressed Work %d not below raw Work %d on redundant text",
			r.Stats().Work, ref.Stats().Work)
	}
	if after.WindowsScanned <= before.WindowsScanned {
		t.Fatal("WindowsScanned did not move")
	}
	if after.InteriorTranslated <= before.InteriorTranslated {
		t.Fatal("InteriorTranslated did not move")
	}
	if after.BytesSkipped <= before.BytesSkipped {
		t.Fatal("BytesSkipped did not move")
	}
	r.Release()
	ref.Release()

	// Compress moves the phrase counter too.
	mid := ReadLZStats()
	Compress(text)
	if got := ReadLZStats(); got.Phrases <= mid.Phrases {
		t.Fatal("Phrases did not move")
	}
}

// TestMatchCompressedRaceHammer shares one CompressedText across pooled
// concurrent scans on several matchers — the race-mode contract that a
// factorization is immutable engine input. Run with -race.
func TestMatchCompressedRaceHammer(t *testing.T) {
	text := append(compressibleText(), workload.Bytes(workload.Text(9, 4096, 26))...)
	ct := Compress(text)
	pats := [][]byte{[]byte("users"), []byte("GET /"), []byte("ms\n"), []byte("qqq")}
	mGen, err := NewMatcher(pats, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	mWide, err := NewMatcher(pats, WithEngine(EngineGeneral), WithPrefilter(PrefilterOn))
	if err != nil {
		t.Fatal(err)
	}
	ref := mGen.Match(text)
	defer ref.Release()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := mGen
			if g%2 == 1 {
				m = mWide
			}
			for round := 0; round < 3; round++ {
				r := m.MatchCompressed(ct)
				for j := 0; j < r.Len(); j += 97 {
					p, ok := r.Longest(j)
					rp, rok := ref.Longest(j)
					if p != rp || ok != rok {
						t.Errorf("goroutine %d pos %d: %d,%v want %d,%v", g, j, p, ok, rp, rok)
						break
					}
				}
				r.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestCompressDeterministicAcrossParallelism pins reproducible .lzc bytes:
// the factorization (and hence Save output) is identical at every pool width.
func TestCompressDeterministicAcrossParallelism(t *testing.T) {
	text := append(compressibleText(), strings.Repeat("tail", 999)...)
	var ref []byte
	for _, procs := range []int{1, 3, 8} {
		var buf bytes.Buffer
		if err := Compress(text, WithParallelism(procs)).Save(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("Save output differs at parallelism %d", procs)
		}
	}
}
