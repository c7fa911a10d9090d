package pardict

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"pardict/internal/ahocorasick"
	"pardict/internal/naive"
	"pardict/internal/workload"
)

// FuzzMatchOracle decodes fuzz input as (dictionary ‖ 0xFF ‖ text) with
// 0xFE-separated patterns and differentially tests every applicable engine,
// and the general engine behind either prefilter screen (over raw bytes, and
// over a dense alphabet of the patterns' bytes), against Aho–Corasick.
// `go test` runs the seed corpus; `go test -fuzz FuzzMatchOracle` explores
// further.
func FuzzMatchOracle(f *testing.F) {
	f.Add([]byte("he\xfeshe\xfehis\xfehers\xffushers"))
	f.Add([]byte("a\xfeaa\xfeaaa\xffaaaaaaa"))
	f.Add([]byte("ab\xfeba\xffabbaabba"))
	f.Add([]byte("\xfe\xff"))
	f.Add([]byte("x\xff"))
	f.Add([]byte("abc\xffabcabc"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sep := bytes.IndexByte(data, 0xFF)
		if sep < 0 {
			return
		}
		rawPats := bytes.Split(data[:sep], []byte{0xFE})
		text := data[sep+1:]
		seen := map[string]bool{}
		var pats [][]byte
		for _, p := range rawPats {
			if len(p) == 0 || len(p) > 64 || seen[string(p)] {
				continue
			}
			if bytes.IndexByte(p, 0xFF) >= 0 || bytes.IndexByte(p, 0xFE) >= 0 {
				continue
			}
			seen[string(p)] = true
			pats = append(pats, p)
			if len(pats) == 16 {
				break
			}
		}
		if len(pats) == 0 || len(text) > 4096 {
			return
		}

		ip := make([][]int32, len(pats))
		equalLen := true
		for i, p := range pats {
			ip[i] = workload.FromBytes(p)
			if len(p) != len(pats[0]) {
				equalLen = false
			}
		}
		ac, err := ahocorasick.New(ip)
		if err != nil {
			t.Fatal(err)
		}
		want := ac.LongestMatchStarting(workload.FromBytes(text))

		// The patterns' own bytes as a dense alphabet: text bytes outside it
		// stay in the text, encode to −1 and never match.
		var sigma []byte
		var inSigma [256]bool
		for _, p := range pats {
			for _, b := range p {
				if !inSigma[b] {
					inSigma[b] = true
					sigma = append(sigma, b)
				}
			}
		}
		engines := [][]Option{
			{WithEngine(EngineGeneral)},
			{WithEngine(EngineSmallAlphabet), WithCollapse(2)},
			{WithEngine(EngineSmallAlphabet), WithBinaryExpansion(), WithCollapse(3)},
			{WithEngine(EngineGeneral), WithPrefilter(PrefilterOn)},
			{WithEngine(EngineGeneral), WithPrefilter(prefilterScalar)},
			{WithEngine(EngineGeneral), WithPrefilter(PrefilterOn), WithAlphabet(sigma)},
		}
		if equalLen {
			engines = append(engines, []Option{WithEngine(EngineEqualLength)})
		}
		for ei, opts := range engines {
			m, err := NewMatcher(pats, opts...)
			if err != nil {
				t.Fatalf("engine %d: %v", ei, err)
			}
			r := m.Match(text)
			for j := range text {
				p, ok := r.Longest(j)
				w := want[j]
				if (w >= 0) != ok || (ok && int32(p) != w) {
					t.Fatalf("engine %d pos %d: got %d,%v want %d (pats=%q text=%q)",
						ei, j, p, ok, w, pats, text)
				}
			}
		}
	})
}

// FuzzStreamChunking is the stream-equivalence target over arbitrary
// dictionaries AND arbitrary chunkings: input decodes as (dictionary ‖ 0xFF
// ‖ text) like FuzzMatchOracle, plus a separate byte string whose bytes are
// the Feed sizes (cycled; 0 is a valid empty feed). The emitted hits must
// equal one-shot matching for every split.
func FuzzStreamChunking(f *testing.F) {
	f.Add([]byte("he\xfeshe\xfehis\xfehers\xffushershe"), []byte{1, 3, 0, 7})
	f.Add([]byte("ab\xfeba\xffabbaabba"), []byte{2})
	f.Add([]byte("aaa\xffaaaaaaaa"), []byte{1, 1, 5})
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		sep := bytes.IndexByte(data, 0xFF)
		if sep < 0 || len(data)-sep > 2048 {
			return
		}
		seen := map[string]bool{}
		var pats [][]byte
		for _, p := range bytes.Split(data[:sep], []byte{0xFE}) {
			if len(p) == 0 || len(p) > 64 || seen[string(p)] ||
				bytes.IndexByte(p, 0xFF) >= 0 || bytes.IndexByte(p, 0xFE) >= 0 {
				continue
			}
			seen[string(p)] = true
			pats = append(pats, p)
			if len(pats) == 12 {
				break
			}
		}
		if len(pats) == 0 {
			return
		}
		text := data[sep+1:]
		m, err := NewMatcher(pats, WithEngine(EngineGeneral))
		if err != nil {
			t.Fatal(err)
		}
		want := wholeTextHits(m, text)
		var got []hit
		s := m.Stream(func(pos int64, pat int) { got = append(got, hit{pos, pat}) })
		if bytes.Count(splits, []byte{0}) == len(splits) {
			splits = nil // only empty feeds would never advance; use 1-byte feeds
		}
		at, si := 0, 0
		for at < len(text) {
			sz := 1
			if len(splits) > 0 {
				sz = int(splits[si%len(splits)])
				si++
			}
			end := at + sz
			if end > len(text) {
				end = len(text)
			}
			if err := s.Feed(text[at:end]); err != nil {
				t.Fatal(err)
			}
			at = end
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !sameHits(got, want) {
			t.Fatalf("chunked %v != whole %v (splits=%v)", got, want, splits)
		}
	})
}

// FuzzMatch2DOracle differentially tests the 2-D matcher against the brute
// force oracles on small grids: the text is the input bytes folded to width
// w over a 4-symbol alphabet, and the patterns are squares carved out of
// the text itself (so full matches are guaranteed to occur), at corners and
// sides derived from the remaining input bytes. Every cell's Largest,
// PrefixSide and All must agree with brute force.
func FuzzMatch2DOracle(f *testing.F) {
	f.Add([]byte("abcdabcdabcdabcd"), byte(4), byte(0), byte(5))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaa"), byte(5), byte(3), byte(9))
	f.Add([]byte("xyxyxyxyxyxy"), byte(3), byte(1), byte(2))
	f.Fuzz(func(t *testing.T, gridData []byte, w, c1, c2 byte) {
		wd := int(w%6) + 1
		rows := len(gridData) / wd
		if rows == 0 {
			return
		}
		if rows > 12 {
			rows = 12
		}
		text := make([][]byte, rows)
		it := make([][]int32, rows)
		for i := range text {
			text[i] = make([]byte, wd)
			it[i] = make([]int32, wd)
			for j := range text[i] {
				v := gridData[i*wd+j] & 3
				text[i][j] = v
				it[i][j] = int32(v)
			}
		}

		// Carve square patterns out of the text at input-derived corners.
		seen := map[string]bool{}
		var pats [][][]byte
		var ip [][][]int32
		for k, c := range []byte{c1, c2, c1 ^ c2, c1 + 7} {
			side := k%3 + 1
			if side > rows || side > wd {
				continue
			}
			i := int(c>>4) % (rows - side + 1)
			j := int(c&15) % (wd - side + 1)
			p := make([][]byte, side)
			e := make([][]int32, side)
			key := make([]byte, 0, side*side)
			for a := 0; a < side; a++ {
				p[a] = append([]byte(nil), text[i+a][j:j+side]...)
				e[a] = append([]int32(nil), it[i+a][j:j+side]...)
				key = append(key, p[a]...)
				key = append(key, 0xFF)
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			pats = append(pats, p)
			ip = append(ip, e)
		}
		if len(pats) == 0 {
			return
		}

		want := naive.LargestFullMatch2D(ip, it)
		wantSide, _ := naive.LongestSquarePrefix2D(ip, it)
		m, err := NewMatcher2D(pats)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Match2D(text)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < wd; j++ {
				p, ok := r.Largest(i, j)
				w := want[i][j]
				if (w >= 0) != ok || (ok && int32(p) != w) {
					t.Fatalf("cell (%d,%d): got %d,%v want %d (grid %dx%d, %d pats)",
						i, j, p, ok, w, rows, wd, len(pats))
				}
				if got := r.PrefixSide(i, j); got != int(wantSide[i][j]) {
					t.Fatalf("cell (%d,%d): prefix side %d want %d", i, j, got, wantSide[i][j])
				}
				// Patterns matching at one cell have distinct sides, so
				// largest first is one order.
				var all []int
				for pi, q := range ip {
					if squareAt(q, it, i, j) {
						all = append(all, pi)
					}
				}
				sort.Slice(all, func(a, b int) bool { return len(ip[all[a]]) > len(ip[all[b]]) })
				if got := r.All(i, j, nil); fmt.Sprint(got) != fmt.Sprint(all) {
					t.Fatalf("cell (%d,%d): All %v want %v", i, j, got, all)
				}
			}
		}
	})
}

// squareAt reports whether square p occurs in text with its corner at (i, j).
func squareAt(p, text [][]int32, i, j int) bool {
	if i+len(p) > len(text) || j+len(p) > len(text[i]) {
		return false
	}
	for a, row := range p {
		for b, v := range row {
			if text[i+a][j+b] != v {
				return false
			}
		}
	}
	return true
}

// FuzzMatch3DOracle differentially tests the 3-D matcher against the brute
// force oracle: the text is the input bytes folded into a box of w×w rows
// over a 4-symbol alphabet, and the patterns are cubes carved out of it at
// input-derived corners and sides 1–3.
func FuzzMatch3DOracle(f *testing.F) {
	f.Add([]byte("abcdabcdabcdabcdabcdabcdabcd"), byte(3), byte(0), byte(5))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), byte(4), byte(3), byte(9))
	f.Add([]byte("xyxyxyxyxyxyxyxyxyxyxyxyxyxy"), byte(2), byte(17), byte(2))
	f.Fuzz(func(t *testing.T, data []byte, w, c1, c2 byte) {
		wd := int(w%4) + 1
		zd := len(data) / (wd * wd)
		if zd == 0 {
			return
		}
		if zd > 6 {
			zd = 6
		}
		text := make([][][]byte, zd)
		it := make([][][]int32, zd)
		for z := range text {
			text[z] = make([][]byte, wd)
			it[z] = make([][]int32, wd)
			for y := range text[z] {
				text[z][y] = make([]byte, wd)
				it[z][y] = make([]int32, wd)
				for x := range text[z][y] {
					v := data[(z*wd+y)*wd+x] & 3
					text[z][y][x] = v
					it[z][y][x] = int32(v)
				}
			}
		}

		seen := map[string]bool{}
		var pats [][][][]byte
		var ip [][][][]int32
		for k, c := range []byte{c1, c2, c1 ^ c2, c1 + 7} {
			side := k%3 + 1
			if side > zd || side > wd {
				continue
			}
			z := int(c>>5) % (zd - side + 1)
			y := int(c>>2&7) % (wd - side + 1)
			x := int(c&3) % (wd - side + 1)
			p := make([][][]byte, side)
			e := make([][][]int32, side)
			key := make([]byte, 0, side*side*side)
			for a := range p {
				p[a] = make([][]byte, side)
				e[a] = make([][]int32, side)
				for b := range p[a] {
					p[a][b] = append([]byte(nil), text[z+a][y+b][x:x+side]...)
					e[a][b] = append([]int32(nil), it[z+a][y+b][x:x+side]...)
					key = append(key, p[a][b]...)
				}
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			pats = append(pats, p)
			ip = append(ip, e)
		}
		if len(pats) == 0 {
			return
		}

		want := naive.LargestFullMatch3D(ip, it)
		m, err := NewMatcher3D(pats)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Match3D(text)
		if err != nil {
			t.Fatal(err)
		}
		for z := range want {
			for y := range want[z] {
				for x, w := range want[z][y] {
					if got[z][y][x] != w {
						t.Fatalf("cell (%d,%d,%d): got %d want %d (box %dx%dx%d, %d pats)",
							z, y, x, got[z][y][x], w, zd, wd, wd, len(pats))
					}
				}
			}
		}
	})
}

// FuzzStream checks that arbitrary chunkings of arbitrary text produce the
// same matches as whole-text matching.
func FuzzStream(f *testing.F) {
	f.Add([]byte("abcabcab"), uint8(3))
	f.Add([]byte("xxxxxxxxxx"), uint8(1))
	f.Fuzz(func(t *testing.T, text []byte, chunk uint8) {
		if len(text) > 2048 {
			return
		}
		m, err := NewMatcher([][]byte{[]byte("ab"), []byte("abca"), []byte("x")},
			WithEngine(EngineGeneral))
		if err != nil {
			t.Fatal(err)
		}
		want := wholeTextHits(m, text)
		var got []hit
		s := m.Stream(func(pos int64, pat int) { got = append(got, hit{pos, pat}) })
		step := int(chunk%32) + 1
		for at := 0; at < len(text); at += step {
			end := at + step
			if end > len(text) {
				end = len(text)
			}
			if err := s.Feed(text[at:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !sameHits(got, want) {
			t.Fatalf("stream %v != whole %v", got, want)
		}
	})
}
