package pardict

import (
	"math/rand"
	"testing"

	"pardict/internal/ahocorasick"
	"pardict/internal/naive"
	"pardict/internal/workload"
)

func bs(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestMatcherGeneral(t *testing.T) {
	m, err := NewMatcher(bs("he", "she", "his", "hers"), WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine() != EngineGeneral {
		t.Fatalf("engine = %v", m.Engine())
	}
	r := m.Match([]byte("ushers"))
	if p, ok := r.Longest(1); !ok || string(m.Pattern(p)) != "she" {
		t.Fatalf("at 1: %d %v", p, ok)
	}
	if p, ok := r.Longest(2); !ok || string(m.Pattern(p)) != "hers" {
		t.Fatalf("at 2: %d %v", p, ok)
	}
	if _, ok := r.Longest(0); ok {
		t.Fatal("no match expected at 0")
	}
	if l, ok := r.PrefixLen(2); !ok || l != 4 {
		t.Fatalf("prefix len at 2 = %d, %v", l, ok)
	}
	if r.Count() != 2 {
		t.Fatalf("count = %d", r.Count())
	}
	if r.Stats().Work <= 0 || r.Stats().Depth <= 0 {
		t.Fatal("stats not recorded")
	}
}

func TestMatcherAutoPicksEqualLength(t *testing.T) {
	m, err := NewMatcher(bs("abc", "bcd", "cde"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine() != EngineEqualLength {
		t.Fatalf("engine = %v", m.Engine())
	}
	r := m.Match([]byte("xabcdex"))
	if p, ok := r.Longest(1); !ok || p != 0 {
		t.Fatalf("at 1: %d %v", p, ok)
	}
	if p, ok := r.Longest(3); !ok || p != 2 {
		t.Fatalf("at 3: %d %v", p, ok)
	}
}

func TestMatcherAutoPicksGeneral(t *testing.T) {
	m, err := NewMatcher(bs("a", "ab"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine() != EngineGeneral {
		t.Fatalf("engine = %v", m.Engine())
	}
}

func TestMatcherSmallAlphabet(t *testing.T) {
	m, err := NewMatcher(bs("acgt", "gatt", "aca", "ttg"),
		WithEngine(EngineSmallAlphabet), WithAlphabet([]byte("acgt")), WithCollapse(3))
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("gattacagattacattg")
	r := m.Match(text)
	// Cross-check against the general engine.
	g, err := NewMatcher(bs("acgt", "gatt", "aca", "ttg"), WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	rg := g.Match(text)
	for i := range text {
		p1, ok1 := r.Longest(i)
		p2, ok2 := rg.Longest(i)
		if ok1 != ok2 || (ok1 && p1 != p2) {
			t.Fatalf("pos %d: smallalpha %d,%v vs general %d,%v", i, p1, ok1, p2, ok2)
		}
	}
}

func TestAllMatches(t *testing.T) {
	m, err := NewMatcher(bs("a", "ab", "abc", "b"), WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	r := m.Match([]byte("abc"))
	got := r.All(0, nil)
	want := []int{2, 1, 0} // abc, ab, a
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if got := r.All(1, nil); len(got) != 1 || got[0] != 3 {
		t.Fatalf("at 1: %v", got)
	}
}

func TestAllMatchesEqualLengthEngine(t *testing.T) {
	// Equal lengths: All degenerates to the single match, via the chain.
	m, err := NewMatcher(bs("aa", "ab"))
	if err != nil {
		t.Fatal(err)
	}
	r := m.Match([]byte("aab"))
	if got := r.All(0, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestDuplicateRejectedAllEngines(t *testing.T) {
	for _, e := range []Engine{EngineGeneral, EngineEqualLength} {
		if _, err := NewMatcher(bs("ab", "ab"), WithEngine(e)); err == nil {
			t.Fatalf("engine %v: duplicates accepted", e)
		}
	}
	if _, err := NewMatcher(bs("aa", "aa"), WithEngine(EngineSmallAlphabet), WithAlphabet([]byte("a"))); err == nil {
		t.Fatal("smallalpha: duplicates accepted")
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	if _, err := NewMatcher(bs("")); err == nil {
		t.Fatal("want error")
	}
}

func TestOutOfAlphabetPattern(t *testing.T) {
	if _, err := NewMatcher(bs("ax"), WithAlphabet([]byte("ab"))); err == nil {
		t.Fatal("want error")
	}
}

func TestEngineString(t *testing.T) {
	for e, want := range map[Engine]string{
		EngineAuto: "auto", EngineGeneral: "general",
		EngineSmallAlphabet: "smallalpha", EngineEqualLength: "equallength",
		Engine(9): "Engine(9)",
	} {
		if e.String() != want {
			t.Fatalf("%d -> %q", e, e.String())
		}
	}
}

func TestEnginesAgreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 25; trial++ {
		pats := workload.Dictionary(int64(trial), 1+rng.Intn(8), 1, 10, 4)
		bpats := make([][]byte, len(pats))
		for i, p := range pats {
			bpats[i] = workload.Bytes(mapSyms(p))
		}
		text := workload.Bytes(mapSyms(workload.Text(int64(trial)+500, 120, 4)))

		general, err := NewMatcher(bpats, WithEngine(EngineGeneral))
		if err != nil {
			t.Fatal(err)
		}
		small, err := NewMatcher(bpats, WithEngine(EngineSmallAlphabet),
			WithAlphabet([]byte("acgt")), WithCollapse(1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		rg, rs := general.Match(text), small.Match(text)
		for i := range text {
			pg, okg := rg.Longest(i)
			ps, oks := rs.Longest(i)
			if okg != oks || (okg && pg != ps) {
				t.Fatalf("trial %d pos %d: general %v/%d small %v/%d", trial, i, okg, pg, oks, ps)
			}
		}
	}
}

// mapSyms maps 0..3 to acgt bytes-as-symbols.
func mapSyms(syms []int32) []int32 {
	letters := []int32{'a', 'c', 'g', 't'}
	out := make([]int32, len(syms))
	for i, v := range syms {
		out[i] = letters[v]
	}
	return out
}

func TestDynamicMatcher(t *testing.T) {
	m, err := NewDynamicMatcher()
	if err != nil {
		t.Fatal(err)
	}
	id1, err := m.Insert([]byte("rose"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := m.Insert([]byte("rosette"))
	if err != nil {
		t.Fatal(err)
	}
	r := m.Match([]byte("a rosette"))
	if p, ok := r.Longest(2); !ok || p != id2 {
		t.Fatalf("at 2: %v %v, want longest %v", p, ok, id2)
	}
	if r.PrefixLen(2) != 7 {
		t.Fatalf("prefix len = %d", r.PrefixLen(2))
	}
	if err := m.Delete([]byte("rose")); err != nil {
		t.Fatal(err)
	}
	r = m.Match([]byte("a rosette"))
	if p, ok := r.Longest(2); !ok || p != id2 {
		t.Fatalf("rosette should match after rose deleted: %v %v", p, ok)
	}
	_ = id1
	if m.Has([]byte("rose")) || !m.Has([]byte("rosette")) {
		t.Fatal("Has wrong")
	}
	if m.Len() != 1 || m.Size() != 7 {
		t.Fatalf("len=%d size=%d", m.Len(), m.Size())
	}
	if r.Stats().Work <= 0 {
		t.Fatal("stats missing")
	}
}

func TestMatcher2D(t *testing.T) {
	pats := [][][]byte{
		{[]byte("ab"), []byte("cd")},
		{[]byte("b")},
	}
	pats[1] = [][]byte{[]byte("b")}
	m, err := NewMatcher2D(pats)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxSide() != 2 || m.PatternCount() != 2 {
		t.Fatal("metadata wrong")
	}
	r, err := m.Match2D([][]byte{[]byte("abx"), []byte("cdx")})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := r.Largest(0, 0); !ok || p != 0 {
		t.Fatalf("at (0,0): %d %v", p, ok)
	}
	if p, ok := r.Largest(0, 1); !ok || p != 1 {
		t.Fatalf("at (0,1): %d %v", p, ok)
	}
	if r.PrefixSide(0, 0) != 2 {
		t.Fatalf("prefix side = %d", r.PrefixSide(0, 0))
	}
	if r.Stats().Work <= 0 {
		t.Fatal("stats missing")
	}
}

func TestMatcher2DAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 10; trial++ {
		ip := workload.SquarePatterns(int64(trial), 3, 1+rng.Intn(4), 2)
		pats := make([][][]byte, len(ip))
		for i, p := range ip {
			pats[i] = make([][]byte, len(p))
			for r2, row := range p {
				pats[i][r2] = workload.Bytes(row)
			}
		}
		ig := workload.Grid(int64(trial)+50, 10, 10, 2, 0.2)
		text := make([][]byte, len(ig))
		for i, row := range ig {
			text[i] = workload.Bytes(row)
		}
		m, err := NewMatcher2D(pats)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Match2D(text)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.LargestFullMatch2D(ip, ig)
		for i := range ig {
			for j := range ig[i] {
				p, ok := r.Largest(i, j)
				wp := want[i][j]
				if (wp >= 0) != ok || (ok && int32(p) != wp) {
					t.Fatalf("trial %d cell (%d,%d): got %d,%v want %d", trial, i, j, p, ok, wp)
				}
			}
		}
	}
}

func TestMatcher3D(t *testing.T) {
	pat := [][][]byte{
		{[]byte("ab"), []byte("cd")},
		{[]byte("ef"), []byte("gh")},
	}
	m, err := NewMatcher3D([][][][]byte{pat})
	if err != nil {
		t.Fatal(err)
	}
	text := [][][]byte{
		{[]byte("abx"), []byte("cdx"), []byte("xxx")},
		{[]byte("efx"), []byte("ghx"), []byte("xxx")},
		{[]byte("xxx"), []byte("xxx"), []byte("xxx")},
	}
	got, err := m.Match3D(text)
	if err != nil {
		t.Fatal(err)
	}
	for z := range got {
		for y := range got[z] {
			for x := range got[z][y] {
				want := int32(-1)
				if z == 0 && y == 0 && x == 0 {
					want = 0
				}
				if got[z][y][x] != want {
					t.Fatalf("cell (%d,%d,%d): got %d want %d", z, y, x, got[z][y][x], want)
				}
			}
		}
	}
}

func TestWithParallelism(t *testing.T) {
	m, err := NewMatcher(bs("ab"), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	r := m.Match([]byte("abab"))
	if r.Stats().Procs != 1 {
		t.Fatalf("procs = %d", r.Stats().Procs)
	}
}

func TestAutoCollapse(t *testing.T) {
	if autoCollapse(1, 4) != 1 {
		t.Fatal("tiny m must give L=1")
	}
	if l := autoCollapse(1<<20, 1); l < 3 {
		t.Fatalf("L = %d for unary alphabet, huge m", l)
	}
	if autoCollapse(256, 256) != 1 {
		t.Fatal("big alphabet must give L=1")
	}
}

func TestMatcher3DMixedSizes(t *testing.T) {
	small := [][][]byte{{[]byte("z")}}
	big := [][][]byte{
		{[]byte("ab"), []byte("cd")},
		{[]byte("ef"), []byte("gh")},
	}
	m, err := NewMatcher3D([][][][]byte{small, big})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxSide() != 2 || m.PatternCount() != 2 {
		t.Fatal("metadata wrong")
	}
	text := [][][]byte{
		{[]byte("abz"), []byte("cdz"), []byte("zzz")},
		{[]byte("efq"), []byte("ghq"), []byte("qqq")},
		{[]byte("qqq"), []byte("qqq"), []byte("qqq")},
	}
	got, err := m.Match3D(text)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0][0] != 1 {
		t.Fatalf("big cube not found: %d", got[0][0][0])
	}
	if got[0][0][2] != 0 || got[0][2][0] != 0 {
		t.Fatalf("small cube misses: %d %d", got[0][0][2], got[0][2][0])
	}
	if got[1][0][0] != -1 {
		t.Fatalf("spurious match: %d", got[1][0][0])
	}
}

// TestMatcherShapeErrors: patterns that are not squares (cubes) and texts
// that are not boxes are rejected, including a ragged pattern whose cell
// count happens to be a square.
func TestMatcherShapeErrors(t *testing.T) {
	for _, p := range [][][]byte{
		{[]byte("abc"), []byte("d")},
		{[]byte("ab"), []byte("c")},
	} {
		if _, err := NewMatcher2D([][][]byte{p}); err == nil {
			t.Fatalf("pattern %q accepted", p)
		}
	}
	if _, err := NewMatcher2D([][][]byte{{[]byte("ab"), []byte("cd")}}, WithAlphabet([]byte("abc"))); err == nil {
		t.Fatal("pattern outside the alphabet accepted")
	}
	m, err := NewMatcher2D([][][]byte{{[]byte("a")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Match2D([][]byte{[]byte("ab"), []byte("a"), []byte("abc")}); err == nil {
		t.Fatal("ragged 2-D text accepted")
	}
	for _, p := range [][][][]byte{
		{{[]byte("ab"), []byte("cd"), []byte("ef")}, {[]byte("gh")}},
		{{[]byte("ab"), []byte("cd")}, {[]byte("ef"), []byte("g")}},
	} {
		if _, err := NewMatcher3D([][][][]byte{p}); err == nil {
			t.Fatalf("pattern %q accepted", p)
		}
	}
	m3, err := NewMatcher3D([][][][]byte{{{[]byte("a")}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range [][][][]byte{
		{{[]byte("ab"), []byte("ab")}, {[]byte("abab")}},
		{{[]byte("ab"), []byte("ab")}, {[]byte("ab"), []byte("a")}},
	} {
		if _, err := m3.Match3D(text); err == nil {
			t.Fatalf("ragged 3-D text %q accepted", text)
		}
	}
}

func TestMatches2DAll(t *testing.T) {
	pats := [][][]byte{
		{[]byte("a")},
		{[]byte("ab"), []byte("cd")},
	}
	m, err := NewMatcher2D(pats)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Match2D([][]byte{[]byte("ab"), []byte("cd")})
	if err != nil {
		t.Fatal(err)
	}
	got := r.All(0, 0, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("got %v", got)
	}
	if out := r.All(1, 1, nil); len(out) != 0 {
		t.Fatalf("cell (1,1): %v", out)
	}
	// A column past the row's end is out of range, not the next row's cell.
	defer func() {
		if recover() == nil {
			t.Fatal("Largest(0, 2) on a 2-column text did not panic")
		}
	}()
	r.Largest(0, 2)
}

func TestStreamEqualLengthEngine(t *testing.T) {
	m, err := NewMatcher(bs("abc", "bcd", "cda")) // auto: equal-length
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine() != EngineEqualLength {
		t.Fatalf("engine = %v", m.Engine())
	}
	text := []byte("abcdabcd")
	want := wholeTextHits(m, text)
	var got []hit
	s := m.Stream(func(pos int64, pat int) { got = append(got, hit{pos, pat}) })
	for i := range text {
		if err := s.Feed(text[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !sameHits(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestTortureConcatenatedPatterns: text made entirely of pattern
// concatenations so matches occur densely at irregular boundaries, across
// every engine.
func TestTortureConcatenatedPatterns(t *testing.T) {
	ip := workload.Dictionary(51, 24, 1, 17, 3)
	pats := make([][]byte, len(ip))
	for i, p := range ip {
		for j := range p {
			p[j] += 'a'
		}
		pats[i] = workload.Bytes(p)
	}
	rng := rand.New(rand.NewSource(52))
	var text []byte
	for len(text) < 6000 {
		text = append(text, pats[rng.Intn(len(pats))]...)
	}
	ac, err := ahocorasick.New(encodeAll(pats))
	if err != nil {
		t.Fatal(err)
	}
	want := ac.LongestMatchStarting(workload.FromBytes(text))
	for _, opts := range [][]Option{
		{WithEngine(EngineGeneral)},
		{WithEngine(EngineSmallAlphabet), WithAlphabet([]byte("abc")), WithCollapse(3)},
	} {
		m, err := NewMatcher(pats, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r := m.Match(text)
		for j := range text {
			p, ok := r.Longest(j)
			w := want[j]
			if (w >= 0) != ok || (ok && int32(p) != w) {
				t.Fatalf("%v pos %d: got %d,%v want %d", m.Engine(), j, p, ok, w)
			}
		}
	}
}

func encodeAll(pats [][]byte) [][]int32 {
	out := make([][]int32, len(pats))
	for i, p := range pats {
		out[i] = workload.FromBytes(p)
	}
	return out
}
