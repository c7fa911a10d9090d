// Package smallalpha implements §4.4 of the paper: static dictionary
// matching that is more work-efficient on small alphabets (Theorem 4,
// Corollaries 1–2). With collapse parameter L:
//
//   - dictionary processing costs O(M·σ·L) work (the alphabet-dependent
//     Extend-Left table over 𝒫” = Σ × 𝒫);
//   - text matching costs O(n·log m / L) work and O(L + log m) time.
//
// Setting L = √(log m / σ) yields the headline O((M+n)·√(log m·σ)) bound.
//
// The construction: 𝒫 is the set of ≤(L−1)-suffixes of the patterns (drop up
// to L−1 leading symbols). The text keeps only anchor positions ≡ 0 (mod L);
// anchors are matched against the L-fold-shrunk 𝒫 with the general engine
// (package core), extended right by < L symbols (§4.1 incremental
// extension), and the L−1 dropped positions left of each anchor are
// recovered with the α-iteration of Step 4: α(ℓ+1) = the longest 𝒫-prefix of
// T(j−ℓ−1) ‖ α(ℓ), one table lookup each.
package smallalpha

import (
	"errors"
	"fmt"

	"pardict/internal/core"
	"pardict/internal/naming"
	"pardict/internal/pram"
)

// ErrBadL reports an out-of-range collapse parameter.
var ErrBadL = errors.New("smallalpha: L must be >= 1")

// Matcher is a preprocessed small-alphabet dictionary. Immutable after New;
// safe for concurrent Match calls.
type Matcher struct {
	l     int // collapse parameter L
	sigma int // alphabet size (symbols are 0..sigma-1)
	np    int // original pattern count
	mx    int // longest pattern length

	// 𝒫 bookkeeping: suffix s of pattern p.
	dictP *core.Dict // the suffix dictionary 𝒫, at symbol granularity

	// Symbol-level incremental extension over 𝒫 prefixes:
	// (prefixName, symbol) -> longer prefixName.
	ext *naming.Frozen

	// Extend-Left table: (symbol, 𝒫-prefix name or Empty) -> longest
	// 𝒫-prefix of symbol‖prefix (naming.Empty for the empty result).
	alphaTab *naming.Frozen

	// lpD[name] = longest original pattern that is a prefix of the named
	// 𝒫-prefix, or -1.
	lpD []int32

	// Block machinery: blockStep chains (state, symbol) -> state over the
	// aligned L-blocks of 𝒫; states of length L are the 𝒫' symbols.
	blockStep *naming.Frozen

	// The shrunk dictionary 𝒫' and the name translation
	// mapPrime[𝒫'-prefix name] = 𝒫-prefix name of the same content.
	dictPrime *core.Dict
	mapPrime  []int32
}

// L reports the collapse parameter.
func (m *Matcher) L() int { return m.l }

// MaxLen reports the longest pattern length.
func (m *Matcher) MaxLen() int { return m.mx }

// New preprocesses the dictionary for alphabet {0..sigma-1} with collapse
// parameter l. Patterns must be non-empty, distinct, and use only symbols in
// range.
func New(c *pram.Ctx, patterns [][]int32, sigma, l int) (*Matcher, error) {
	if l < 1 {
		return nil, ErrBadL
	}
	m := &Matcher{l: l, sigma: sigma, np: len(patterns)}
	for pi, p := range patterns {
		if len(p) == 0 {
			return nil, core.ErrEmptyPattern
		}
		if len(p) > m.mx {
			m.mx = len(p)
		}
		for _, s := range p {
			if s < 0 || int(s) >= sigma {
				return nil, fmt.Errorf("smallalpha: pattern %d symbol %d outside alphabet of size %d", pi, s, sigma)
			}
		}
	}
	if m.np == 0 {
		return m, nil
	}

	// --- Build 𝒫: the ≤(L-1)-suffixes, deduplicated, remembering which
	// strings are original patterns (the 0-suffixes).
	type suffix struct {
		pat  int32
		drop int32
	}
	var pstrs [][]int32
	var meta []suffix
	seen := map[string]int{}
	for pi, p := range patterns {
		for drop := 0; drop < l && drop < len(p); drop++ {
			s := p[drop:]
			k := keyOf(s)
			if prev, ok := seen[k]; ok {
				if drop == 0 {
					// A pattern equals an earlier suffix: keep pattern flag.
					if meta[prev].drop != 0 {
						meta[prev] = suffix{pat: int32(pi), drop: 0}
					} else {
						return nil, &core.DuplicateError{First: int(meta[prev].pat), Second: pi}
					}
				}
				continue
			}
			seen[k] = len(pstrs)
			pstrs = append(pstrs, s)
			meta = append(meta, suffix{pat: int32(pi), drop: int32(drop)})
		}
	}
	c.AddWork(int64(totalLen(pstrs)))
	c.AddDepth(1)

	var err error
	m.dictP, err = core.Preprocess(c, pstrs)
	if err != nil {
		return nil, err
	}

	// --- Symbol-level extension table over all 𝒫 prefixes: one entry per
	// prefix name, (parent name, last symbol) -> name, written by the name's
	// representative.
	nn := m.dictP.NameCount()
	extKeys := make([]uint64, nn)
	extVals := make([]int32, nn)
	for i, s := range pstrs {
		prev := naming.Empty
		for pos := 1; pos <= len(s); pos++ {
			name := m.dictP.PrefixName(i, pos)
			if m.dictP.RepPattern(name) == int32(i) {
				extKeys[name] = naming.EncodePair(prev, s[pos-1])
				extVals[name] = name
			}
			prev = name
		}
	}
	m.ext = naming.FreezeKeys(c, extKeys, extVals, nn)
	c.AddWork(int64(totalLen(pstrs)))
	c.AddDepth(1)

	// --- lpD: longest original pattern per 𝒫-prefix name.
	isPat := make([]int32, nn)
	pram.Fill(c, isPat, -1)
	c.For(len(pstrs), func(i int) {
		if meta[i].drop == 0 {
			isPat[m.dictP.PrefixName(i, len(pstrs[i]))] = meta[i].pat
		}
	})
	m.lpD = make([]int32, nn)
	pram.Fill(c, m.lpD, -1)
	c.For(len(pstrs), func(i int) {
		carry := int32(-1)
		for pos := 1; pos <= len(pstrs[i]); pos++ {
			name := m.dictP.PrefixName(i, pos)
			if p := isPat[name]; p >= 0 {
				carry = p
			}
			// Strings sharing the prefix compute the same value; one writer.
			if m.dictP.RepPattern(name) == int32(i) {
				m.lpD[name] = carry
			}
		}
	})

	// --- Extend-Left α-table over 𝒫'' = Σ × 𝒫 (the O(M·σ·L) step).
	m.buildAlphaTable(c, pstrs)

	// --- Block chain and the shrunk dictionary 𝒫'.
	if err := m.buildBlocks(c, pstrs); err != nil {
		return nil, err
	}
	return m, nil
}

func keyOf(s []int32) string {
	b := make([]byte, 4*len(s))
	for i, v := range s {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}

func totalLen(ss [][]int32) int {
	t := 0
	for _, s := range ss {
		t += len(s)
	}
	return t
}

// buildAlphaTable computes, for every σ ∈ Σ and every 𝒫-prefix p, the
// longest 𝒫-prefix of σ‖p, by scanning each string of 𝒫” once (prefixes of
// a string form a chain, and 𝒫-prefixes are prefix-closed, so the longest
// valid prefix evolves monotonically along the scan). Each σ owns a row of
// NameCount+1 entries: the empty prefix first, then one per prefix name,
// written by the name's representative.
func (m *Matcher) buildAlphaTable(c *pram.Ctx, pstrs [][]int32) {
	nn := m.dictP.NameCount()
	keys := make([]uint64, m.sigma*(nn+1))
	vals := make([]int32, len(keys))
	for sym := int32(0); int(sym) < m.sigma; sym++ {
		row := int(sym) * (nn + 1)
		// Key (σ, Empty): the string "σ" alone.
		lpEmpty := m.ext.Lookup(naming.EncodePair(naming.Empty, sym))
		valid0 := lpEmpty != naming.None
		if !valid0 {
			lpEmpty = naming.Empty
		}
		keys[row] = naming.EncodePair(sym, naming.Empty)
		vals[row] = lpEmpty
		for i, s := range pstrs {
			full := lpEmpty // name of σ‖s[0..pos-1] while still a 𝒫-prefix
			valid := valid0
			lp := lpEmpty // longest 𝒫-prefix of σ‖s[0..pos-1] (Empty-able)
			for pos := 1; pos <= len(s); pos++ {
				if valid {
					nxt, ok := m.ext.Get(naming.EncodePair(full, s[pos-1]))
					if ok {
						full = nxt
						lp = nxt
					} else {
						valid = false
					}
				}
				if name := m.dictP.PrefixName(i, pos); m.dictP.RepPattern(name) == int32(i) {
					keys[row+1+int(name)] = naming.EncodePair(sym, name)
					vals[row+1+int(name)] = lp
				}
			}
		}
	}
	m.alphaTab = naming.FreezeKeys(c, keys, vals, len(keys))
	c.AddWork(int64(m.sigma) * int64(totalLen(pstrs)))
	// On the PRAM this is σ independent 4.2-style scans: O(log m) depth.
	c.AddDepth(int64(log2ceil(m.mx)) + 1)
}

// buildBlocks names the aligned L-blocks of 𝒫 via a length-L chain of
// per-step naming rounds, builds 𝒫' from the block names, preprocesses it
// with the general engine, and records the 𝒫'→𝒫 prefix-name translation.
func (m *Matcher) buildBlocks(c *pram.Ctx, pstrs [][]int32) error {
	l := m.l
	nblocks := make([]int, len(pstrs))
	c.For(len(pstrs), func(i int) { nblocks[i] = len(pstrs[i]) / l })
	offs := append([]int(nil), nblocks...)
	total := c.ExclusiveScanInt(offs)

	// One blockStep entry per distinct (state, symbol) key of each step,
	// taken at its representative; the steps' names are disjoint ranges.
	var stepKeys []uint64
	var stepVals []int32
	state := make([]int32, total) // current chain state per block
	base := int32(0)
	for step := 0; step < l; step++ {
		keys := make([]uint64, total)
		c.For(len(pstrs), func(i int) {
			for b := 0; b < nblocks[i]; b++ {
				prev := naming.Empty
				if step > 0 {
					prev = state[offs[i]+b]
				}
				keys[offs[i]+b] = naming.EncodePair(prev, pstrs[i][b*l+step])
			}
		})
		names, reps, distinct := naming.BatchNameRep(c, keys)
		for e := 0; e < total; e++ {
			state[e] = base + names[e]
		}
		for id, r := range reps {
			stepKeys = append(stepKeys, keys[r])
			stepVals = append(stepVals, base+int32(id))
		}
		c.AddWork(int64(total))
		c.AddDepth(1)
		base += int32(distinct)
	}
	m.blockStep = naming.FreezeKeys(c, stepKeys, stepVals, int(base))

	// 𝒫' strings (blockwise); drop strings with zero blocks.
	var prime [][]int32
	var primeSrc []int // 𝒫 index of each 𝒫' string
	for i := range pstrs {
		if nblocks[i] == 0 {
			continue
		}
		prime = append(prime, state[offs[i]:offs[i]+nblocks[i]])
		primeSrc = append(primeSrc, i)
	}
	c.AddWork(int64(len(pstrs)))
	c.AddDepth(1)

	var err error
	m.dictPrime, err = dedupPreprocess(c, prime, &primeSrc)
	if err != nil {
		return err
	}
	m.mapPrime = make([]int32, m.dictPrime.NameCount())
	c.For(len(primeSrc), func(pi int) {
		i := primeSrc[pi]
		for b := 1; b <= len(m.dictPrime.Pattern(pi)); b++ {
			// Strings sharing a 𝒫'-prefix map it to the same 𝒫-prefix; only
			// the name's representative writes it.
			if name := m.dictPrime.PrefixName(pi, b); m.dictPrime.RepPattern(name) == int32(pi) {
				m.mapPrime[name] = m.dictP.PrefixName(i, b*l)
			}
		}
	})
	return nil
}

// dedupPreprocess removes duplicate strings (two suffixes can shrink to the
// same block sequence) before handing them to core.Preprocess, keeping src
// aligned with the surviving strings.
func dedupPreprocess(c *pram.Ctx, strs [][]int32, src *[]int) (*core.Dict, error) {
	seen := map[string]bool{}
	var outStrs [][]int32
	var outSrc []int
	for i, s := range strs {
		k := keyOf(s)
		if seen[k] {
			continue
		}
		seen[k] = true
		outStrs = append(outStrs, s)
		outSrc = append(outSrc, (*src)[i])
	}
	c.AddWork(int64(totalLen(strs)))
	c.AddDepth(1)
	*src = outSrc
	return core.Preprocess(c, outStrs)
}

func log2ceil(x int) int {
	b := 0
	for 1<<b < x {
		b++
	}
	return b
}
