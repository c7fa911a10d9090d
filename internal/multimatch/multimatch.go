// Package multimatch implements §7 of the paper: optimal-speedup dictionary
// matching when every pattern has the same length (the multi-pattern string
// matching problem of [KLP89]) — O(log m) time and O(n + M) work, Theorem 11.
//
// The linear work comes from the asymmetric shrink-and-spawn step: the
// dictionary is shrunk by 4 while the text spawns 4 copies of which the two
// even-offset ones are deleted, so text size halves per level while the
// dictionary (doubled to the leading-suffix/trailing-prefix set
// P = {P^s, P^p}) also halves. Deleted positions are recovered on the way
// back up by the Extend-Left step 3c: an odd position j matches pattern P
// iff T(j) = P(1) and P's leading suffix P^s matches at j's right neighbor —
// which survived the deletion.
//
// The recursion keeps, per level, the set of live text positions as explicit
// "copies" (arithmetic progressions with stride 4^d), exactly the spawned
// strings of §3.1.
package multimatch

import (
	"errors"

	"pardict/internal/naming"
	"pardict/internal/pram"
)

// ErrUnequalLengths reports patterns of differing lengths.
var ErrUnequalLengths = errors.New("multimatch: patterns must have equal length")

// ErrEmptyPattern reports a zero-length pattern.
var ErrEmptyPattern = errors.New("multimatch: empty pattern")

// Matcher is a preprocessed equal-length dictionary. Immutable after New;
// safe for concurrent Match calls.
type Matcher struct {
	m      int // common pattern length
	levels []*level
	np     int

	// patOf[name] = representative pattern index for a top-level pattern
	// name (smallest index among equal patterns).
	patOf []int32
	// patNames[i] = top-level name of pattern i (equal patterns share it).
	patNames []int32
}

// level holds the per-recursion-level tables. Level d operates on symbols of
// width 4^d original characters, text stride 4^d.
type level struct {
	lambda int // pattern length at this level (in level symbols)
	mPrime int // shrunk length floor((lambda-1)/4)
	resLen int // residue length (lambda-1) mod 4

	// Shrink tables (only when mPrime >= 1): 2-block and 4-block names.
	pair1, pair2 *naming.Frozen
	// Residue naming tables (resLen 2 or 3).
	res2, res3 *naming.Frozen
	// Step 3a/3b tables: (shrunkName, resName) -> t1; (t1, lastSym) -> beta.
	tb1, tb2 *naming.Frozen
	// Step 3c tables: (shrunkSufName, resName) -> u1; (u1, firstSym) -> beta.
	tc1, tc2 *naming.Frozen
	// Base case (mPrime == 0): composition tables keyed by symbol pairs.
	base2, base3, base4 *naming.Frozen
}

// New preprocesses patterns (all the same length) in O(M) work.
func New(c *pram.Ctx, patterns [][]int32) (*Matcher, error) {
	np := len(patterns)
	mm := &Matcher{np: np}
	if np == 0 {
		return mm, nil
	}
	mm.m = len(patterns[0])
	if mm.m == 0 {
		return nil, ErrEmptyPattern
	}
	for _, p := range patterns {
		if len(p) != mm.m {
			return nil, ErrUnequalLengths
		}
	}
	beta := mm.build(c, patterns)
	mm.patNames = beta
	maxName := c.MaxInt(np, -1, func(i int) int { return int(beta[i]) })
	mm.patOf = make([]int32, maxName+1)
	for i := np - 1; i >= 0; i-- {
		mm.patOf[beta[i]] = int32(i) // smallest index wins among duplicates
	}
	c.AddWork(int64(np))
	c.AddDepth(1)
	return mm, nil
}

// M reports the common pattern length.
func (mm *Matcher) M() int { return mm.m }

// PatternCount reports the number of patterns given to New.
func (mm *Matcher) PatternCount() int { return mm.np }

// PatternName returns the top-level name of pattern i: the name MatchNames
// reports wherever pattern i matches. Equal patterns share a name.
func (mm *Matcher) PatternName(i int) int32 { return mm.patNames[i] }

// NameToPattern maps a name reported by MatchNames back to the
// representative pattern index, or -1 for naming.None / unknown names.
func (mm *Matcher) NameToPattern(name int32) int32 {
	if name < 0 || int(name) >= len(mm.patOf) {
		return -1
	}
	return mm.patOf[name]
}

// build recursively constructs level tables for dict (equal-length lambda
// strings) and returns a name per dictionary string (equal strings get equal
// names; names are dense per level).
func (mm *Matcher) build(c *pram.Ctx, dict [][]int32) []int32 {
	lambda := len(dict[0])
	lv := &level{lambda: lambda, mPrime: (lambda - 1) / 4, resLen: (lambda - 1) % 4}
	mm.levels = append(mm.levels, lv)

	if lv.mPrime == 0 {
		return mm.buildBase(c, lv, dict)
	}

	nd := len(dict)
	// --- Step 1: P = {P^s, P^p}; shrink by 4 via two pair-naming rounds.
	// P^s_j = dict[j][1:], P^p_j = dict[j][:lambda-1]; both length lambda-1.
	// Work per string: lambda/2 pair keys + lambda/4 block keys.
	half := (lambda - 1) / 2
	keys1 := make([]uint64, 2*nd*half)
	c.For(nd, func(j int) {
		p := dict[j]
		for t := 0; t < half; t++ {
			// P^s pairs: symbols 1+2t, 2+2t; P^p pairs: symbols 2t, 1+2t.
			keys1[(2*j)*half+t] = naming.EncodePair(p[1+2*t], p[2+2*t])
			keys1[(2*j+1)*half+t] = naming.EncodePair(p[2*t], p[1+2*t])
		}
	})
	names1, n1 := naming.BatchName(c, keys1)
	lv.pair1 = naming.FreezeKeys(c, keys1, names1, n1)

	quarter := lv.mPrime
	keys2 := make([]uint64, 2*nd*quarter)
	c.For(2*nd, func(r int) {
		for t := 0; t < quarter; t++ {
			keys2[r*quarter+t] = naming.EncodePair(names1[r*half+2*t], names1[r*half+2*t+1])
		}
	})
	names2, n2 := naming.BatchName(c, keys2)
	lv.pair2 = naming.FreezeKeys(c, keys2, names2, n2)

	// Shrunk dictionary: 2 strings per pattern (P^s at 2j, P^p at 2j+1).
	shrunk := make([][]int32, 2*nd)
	c.For(2*nd, func(r int) {
		shrunk[r] = names2[r*quarter : (r+1)*quarter : (r+1)*quarter]
	})

	// --- Residue names for P^s and P^p (last resLen symbols before the end
	// of each P-string, i.e. symbols 4*mPrime .. 4*mPrime+resLen-1 of the
	// P-string).
	resS := make([]int32, nd)
	resP := make([]int32, nd)
	mm.buildResidueTables(c, lv, dict, resS, resP)

	// --- Recursive step.
	betaPrime := mm.build(c, shrunk)

	// --- Step 3a: beta(P_j) from (betaPrime(P^p'), resName(P^p), last sym).
	k1 := make([]uint64, nd)
	c.For(nd, func(j int) {
		k1[j] = naming.EncodePair(betaPrime[2*j+1], resP[j])
	})
	t1, nt1 := naming.BatchName(c, k1)
	lv.tb1 = naming.FreezeKeys(c, k1, t1, nt1)
	k2 := make([]uint64, nd)
	c.For(nd, func(j int) {
		k2[j] = naming.EncodePair(t1[j], dict[j][lambda-1])
	})
	beta, nbeta := naming.BatchName(c, k2)
	lv.tb2 = naming.FreezeKeys(c, k2, beta, nbeta)

	// --- Step 3c tables: (betaPrime(P^s'), resName(P^s)) and first symbol.
	k3 := make([]uint64, nd)
	c.For(nd, func(j int) {
		k3[j] = naming.EncodePair(betaPrime[2*j], resS[j])
	})
	u1, nu1 := naming.BatchName(c, k3)
	lv.tc1 = naming.FreezeKeys(c, k3, u1, nu1)
	k4 := make([]uint64, nd)
	c.For(nd, func(j int) {
		k4[j] = naming.EncodePair(u1[j], dict[j][0])
	})
	// Values must be the SAME beta names as step 3a: name the (u1, first)
	// tuple set by stamping it with beta (the tuples are in bijection with
	// patterns, and equal patterns produce equal tuples and equal betas, so
	// there are as many distinct tuples as betas).
	lv.tc2 = naming.FreezeKeys(c, k4, beta, nbeta)

	return beta
}

// buildResidueTables names the length-resLen residue strings of every P^s
// and P^p, filling resS/resP and the level's residue lookup tables.
func (mm *Matcher) buildResidueTables(c *pram.Ctx, lv *level, dict [][]int32, resS, resP []int32) {
	nd := len(dict)
	off := 4 * lv.mPrime // residue start within each P-string
	switch lv.resLen {
	case 0:
		pram.Fill(c, resS, 0)
		pram.Fill(c, resP, 0)
	case 1:
		c.For(nd, func(j int) {
			resS[j] = dict[j][1+off]
			resP[j] = dict[j][off]
		})
	case 2:
		keys := make([]uint64, 2*nd)
		c.For(nd, func(j int) {
			keys[2*j] = naming.EncodePair(dict[j][1+off], dict[j][2+off])
			keys[2*j+1] = naming.EncodePair(dict[j][off], dict[j][1+off])
		})
		names, n := naming.BatchName(c, keys)
		lv.res2 = naming.FreezeKeys(c, keys, names, n)
		c.For(nd, func(j int) { resS[j] = names[2*j]; resP[j] = names[2*j+1] })
	case 3:
		keys := make([]uint64, 2*nd)
		c.For(nd, func(j int) {
			keys[2*j] = naming.EncodePair(dict[j][1+off], dict[j][2+off])
			keys[2*j+1] = naming.EncodePair(dict[j][off], dict[j][1+off])
		})
		names, n := naming.BatchName(c, keys)
		lv.res2 = naming.FreezeKeys(c, keys, names, n)
		keys3 := make([]uint64, 2*nd)
		c.For(nd, func(j int) {
			keys3[2*j] = naming.EncodePair(names[2*j], dict[j][3+off])
			keys3[2*j+1] = naming.EncodePair(names[2*j+1], dict[j][2+off])
		})
		names3, n3 := naming.BatchName(c, keys3)
		lv.res3 = naming.FreezeKeys(c, keys3, names3, n3)
		c.For(nd, func(j int) { resS[j] = names3[2*j]; resP[j] = names3[2*j+1] })
	}
}

// buildBase handles lambda in 1..4: name whole patterns by composing at most
// two pair rounds, retaining the tables for text lookups.
func (mm *Matcher) buildBase(c *pram.Ctx, lv *level, dict [][]int32) []int32 {
	nd := len(dict)
	beta := make([]int32, nd)
	switch lv.lambda {
	case 1:
		keys := make([]uint64, nd)
		c.For(nd, func(j int) { keys[j] = naming.EncodePair(dict[j][0], 0) })
		names, n := naming.BatchName(c, keys)
		lv.base2 = naming.FreezeKeys(c, keys, names, n)
		copy(beta, names)
		c.AddWork(int64(nd))
	case 2:
		keys := make([]uint64, nd)
		c.For(nd, func(j int) { keys[j] = naming.EncodePair(dict[j][0], dict[j][1]) })
		names, n := naming.BatchName(c, keys)
		lv.base2 = naming.FreezeKeys(c, keys, names, n)
		copy(beta, names)
		c.AddWork(int64(nd))
	case 3:
		keys := make([]uint64, nd)
		c.For(nd, func(j int) { keys[j] = naming.EncodePair(dict[j][0], dict[j][1]) })
		names, n := naming.BatchName(c, keys)
		lv.base2 = naming.FreezeKeys(c, keys, names, n)
		keys3 := make([]uint64, nd)
		c.For(nd, func(j int) { keys3[j] = naming.EncodePair(names[j], dict[j][2]) })
		names3, n3 := naming.BatchName(c, keys3)
		lv.base3 = naming.FreezeKeys(c, keys3, names3, n3)
		copy(beta, names3)
		c.AddWork(int64(nd))
	case 4:
		keysA := make([]uint64, 2*nd)
		c.For(nd, func(j int) {
			keysA[2*j] = naming.EncodePair(dict[j][0], dict[j][1])
			keysA[2*j+1] = naming.EncodePair(dict[j][2], dict[j][3])
		})
		namesA, nA := naming.BatchName(c, keysA)
		lv.base2 = naming.FreezeKeys(c, keysA, namesA, nA)
		keysB := make([]uint64, nd)
		c.For(nd, func(j int) { keysB[j] = naming.EncodePair(namesA[2*j], namesA[2*j+1]) })
		namesB, nB := naming.BatchName(c, keysB)
		lv.base4 = naming.FreezeKeys(c, keysB, namesB, nB)
		copy(beta, namesB)
		c.AddWork(int64(nd))
	}
	return beta
}
