package pardict

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// The session's memory pins live with the implementation in
// internal/streamcore (TestSessionDrainKeepsOnlyRing and
// TestSessionZeroAllocs there); at the public session boundary
// TestStreamCanceledMidFeedRetry (cancel_test.go) and
// TestStreamTinyChunkWorkIsLinear (stream_bench_test.go) assert them.

// errAfterReader yields its payload in tiny reads, then a non-EOF error.
type errAfterReader struct {
	data []byte
	step int
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := r.step
	if n > len(r.data) || n <= 0 {
		n = len(r.data)
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestMatchReaderErrorMidStream drives a reader that fails after several
// successful chunks: matches finalized before the failure must have been
// emitted, matches still held back must not, and the error must surface.
func TestMatchReaderErrorMidStream(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("abcd"), []byte("ab")})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("mid-stream failure")
	// "abcdab" + "abc…" tail: with MaxLen 4 the final 3 bytes stay held back.
	r := &errAfterReader{data: []byte("abcdabxabc"), step: 3, err: wantErr}
	var hits []int64
	err = m.MatchReader(r, 4, func(pos int64, pat int) { hits = append(hits, pos) })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// abcd@0 and ab@4 are finalized well before the failure; ab@7 sits in the
	// held-back tail (positions ≥ 10-3) — it must not have been emitted.
	if len(hits) != 2 || hits[0] != 0 || hits[1] != 4 {
		t.Fatalf("hits = %v, want [0 4]", hits)
	}
}

// TestMatchReaderChunksSmallerThanCarry feeds 1-byte reads into a dictionary
// whose MaxLen far exceeds the chunk size, so every Feed arrives with a chunk
// smaller than the held-back carry. Results must equal the whole-text scan.
func TestMatchReaderChunksSmallerThanCarry(t *testing.T) {
	pats := [][]byte{[]byte("abcabcabcabc"), []byte("bca"), []byte("c")}
	m, err := NewMatcher(pats)
	if err != nil {
		t.Fatal(err)
	}
	text := bytes.Repeat([]byte("abc"), 20)
	want := m.FindAll(text)

	var got []Occurrence
	s := m.Stream(func(pos int64, pat int) {
		got = append(got, Occurrence{Pos: int(pos), Pattern: pat})
	})
	for i := range text {
		if err := s.Feed(text[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Stream emits only the longest pattern per position; filter want the
	// same way (FindAll lists all, longest first per position).
	var longest []Occurrence
	for i, o := range want {
		if i == 0 || want[i-1].Pos != o.Pos {
			longest = append(longest, o)
		}
	}
	if len(got) != len(longest) {
		t.Fatalf("got %d hits, want %d", len(got), len(longest))
	}
	for i := range got {
		if got[i] != longest[i] {
			t.Fatalf("hit %d: got %+v, want %+v", i, got[i], longest[i])
		}
	}
}

// TestMatchReaderFinalBlock covers the Close-time flush: a stream shorter
// than MaxLen never finalizes anything during Feed — every match must come
// from the final-block handling.
func TestMatchReaderFinalBlock(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("longpattern"), []byte("ng")})
	if err != nil {
		t.Fatal(err)
	}
	var hits []struct {
		pos int64
		pat int
	}
	err = m.MatchReader(bytes.NewReader([]byte("xlongpat")), 0, func(pos int64, pat int) {
		hits = append(hits, struct {
			pos int64
			pat int
		}{pos, pat})
	})
	if err != nil {
		t.Fatal(err)
	}
	// "ng" at offset 3 only becomes final at Close (text length 8 < MaxLen 11).
	if len(hits) != 1 || hits[0].pos != 3 || hits[0].pat != 1 {
		t.Fatalf("hits = %+v, want ng@3", hits)
	}
}

// TestMatchReaderDataWithEOF exercises readers that return n > 0 together
// with io.EOF in the same call (allowed by the io.Reader contract).
func TestMatchReaderDataWithEOF(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("tail")})
	if err != nil {
		t.Fatal(err)
	}
	var hits []int64
	err = m.MatchReader(iotest{data: []byte("xxtail")}, 0, func(pos int64, pat int) {
		hits = append(hits, pos)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != 2 {
		t.Fatalf("hits = %v, want [2]", hits)
	}
}

// iotest returns all its data plus io.EOF in one Read call.
type iotest struct{ data []byte }

func (r iotest) Read(p []byte) (int, error) {
	n := copy(p, r.data)
	return n, io.EOF
}
