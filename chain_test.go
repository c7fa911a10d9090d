package pardict

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"pardict/internal/core"
	"pardict/internal/workload"
)

// chain_test.go checks the proper-prefix chain behind All/FindAll/Count —
// nextShorter[p] is the longest pattern that is a proper prefix of pattern
// p, or -1 — on every engine and on LoadMatcher against a brute-force
// definition, and the two hostile-stream cases of the chain: a repeated
// pattern and a forged stored chain.

// bruteChain is the definition: for each pattern, the longest other pattern
// that is a proper prefix of it.
func bruteChain(pats [][]int32) []int32 {
	out := make([]int32, len(pats))
	for i, p := range pats {
		out[i] = -1
		for j, q := range pats {
			if len(q) < len(p) && slices.Equal(q, p[:len(q)]) &&
				(out[i] < 0 || len(q) > len(pats[out[i]])) {
				out[i] = int32(j)
			}
		}
	}
	return out
}

type chainDict struct {
	name  string
	sigma int
	ip    [][]int32
}

func chainDicts() []chainDict {
	var out []chainDict
	seed := int64(900)
	for _, sigma := range []int{2, 4, 26, 256} {
		for _, shape := range []struct{ np, minLen, maxLen int }{
			{6, 1, 4}, {40, 1, 12}, {120, 2, 24}, {32, 7, 7},
		} {
			ip := workload.Dictionary(seed, shape.np, shape.minLen, shape.maxLen, sigma)
			out = append(out, chainDict{fmt.Sprintf("random/sigma%d/np%d/len%d-%d",
				sigma, len(ip), shape.minLen, shape.maxLen), sigma, ip})
			seed += 11
		}
	}
	// Nested: every pattern is a prefix of the next (a, aa, aaa, ...),
	// listed longest first so input order and length order disagree.
	nested := workload.NestedDictionary(24)
	slices.Reverse(nested)
	out = append(out, chainDict{"nested", 2, nested})
	// Periodic: prefixes of (ab)^∞ and of (ba)^∞ of every length, shuffled
	// by a stride, so each chain runs through every other length.
	var periodic [][]int32
	for l := 1; l <= 20; l++ {
		for _, first := range []int32{0, 1} {
			p := make([]int32, l)
			for k := range p {
				p[k] = (first + int32(k)) % 2
			}
			periodic = append(periodic, p)
		}
	}
	var shuffled [][]int32
	for s := 0; s < 7; s++ {
		for i := s; i < len(periodic); i += 7 {
			shuffled = append(shuffled, periodic[i])
		}
	}
	out = append(out, chainDict{"periodic", 2, shuffled})
	return out
}

func equalLengths(ip [][]int32) bool {
	for _, p := range ip {
		if len(p) != len(ip[0]) {
			return false
		}
	}
	return len(ip) > 0
}

// TestChainOracle builds each dictionary on every engine that accepts it,
// and reloads the general engine through Save/LoadMatcher, then compares the
// chain with bruteChain.
func TestChainOracle(t *testing.T) {
	for _, d := range chainDicts() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			pats := make([][]byte, len(d.ip))
			for i, p := range d.ip {
				pats[i] = workload.Bytes(p)
			}
			want := bruteChain(d.ip)
			alphabet := make([]byte, d.sigma)
			for i := range alphabet {
				alphabet[i] = byte(i)
			}
			engines := map[string][]Option{"general": {WithEngine(EngineGeneral)}}
			if d.sigma <= 26 {
				engines["smallalpha"] = []Option{WithEngine(EngineSmallAlphabet), WithAlphabet(alphabet)}
				engines["binary"] = []Option{WithEngine(EngineSmallAlphabet), WithAlphabet(alphabet), WithBinaryExpansion()}
			}
			if equalLengths(d.ip) {
				engines["equallength"] = []Option{WithEngine(EngineEqualLength)}
			}
			check := func(name string, m *Matcher) {
				t.Helper()
				if !slices.Equal(m.nextShorter, want) {
					t.Fatalf("%s: chain %v, want %v", name, m.nextShorter, want)
				}
			}
			for name, opts := range engines {
				m, err := NewMatcher(pats, opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check(name, m)
				if name != "general" {
					continue
				}
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadMatcher(&buf)
				if err != nil {
					t.Fatalf("LoadMatcher: %v", err)
				}
				check("LoadMatcher", loaded)
			}
		})
	}
}

// TestChainDuplicateWitnessAllEngines: every engine reports a repeated
// pattern as the same DuplicateError — the earliest second occurrence and
// its first occurrence.
func TestChainDuplicateWitnessAllEngines(t *testing.T) {
	pats := [][]byte{[]byte("ba"), []byte("ab"), []byte("aa"), []byte("ab"), []byte("ba")}
	for name, opts := range map[string][]Option{
		"general":     {WithEngine(EngineGeneral)},
		"smallalpha":  {WithEngine(EngineSmallAlphabet), WithAlphabet([]byte("ab"))},
		"binary":      {WithEngine(EngineSmallAlphabet), WithAlphabet([]byte("ab")), WithBinaryExpansion()},
		"equallength": {WithEngine(EngineEqualLength)},
	} {
		_, err := NewMatcher(pats, opts...)
		var de *core.DuplicateError
		if !errors.As(err, &de) || de.First != 1 || de.Second != 3 {
			t.Fatalf("%s: err = %v, want DuplicateError(1, 3)", name, err)
		}
	}
}

// TestLoadRejectsRepeatedPattern: a checksummed stream whose pattern list
// repeats a pattern loads to the same DuplicateError NewMatcher reports.
func TestLoadRejectsRepeatedPattern(t *testing.T) {
	m, err := NewMatcher([][]byte{[]byte("he"), []byte("she"), []byte("hers")}, WithEngine(EngineGeneral))
	if err != nil {
		t.Fatal(err)
	}
	m.patterns = [][]byte{[]byte("he"), []byte("she"), []byte("she"), []byte("he")}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil { // Save recomputes the checksum
		t.Fatal(err)
	}
	_, err = LoadMatcher(&buf)
	var de *core.DuplicateError
	if !errors.As(err, &de) || de.First != 1 || de.Second != 2 {
		t.Fatalf("err = %v, want DuplicateError(1, 2)", err)
	}
}
