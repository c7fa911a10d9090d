package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"time"

	"pardict"
	"pardict/internal/ahocorasick"
	"pardict/internal/alpha"
	"pardict/internal/trace"
	"pardict/internal/workload"
)

// scan-bulk: one caller runs Matcher.MatchInto (general engine,
// PrefilterAuto) over 1 MiB slices of the log corpus and expands every hit
// with Matches.All. It is the per-byte kernel path — encode, prefilter,
// cascade, expansion — with no per-request, shard or write cost, and the
// only workload that runs the prefilter.
const (
	bulkCorpus   = 8 << 20
	bulkText     = 1 << 20
	bulkTexts    = 16
	bulkPatterns = 2000
)

// headAlphabet holds capital letters the log corpus never produces (its
// methods use only D, E, G, L, O, P, S, T and U). Every scan-bulk pattern
// starts with three of them and continues with corpus bytes, like a
// signature dictionary scanned over traffic it rarely matches: the
// prefilter can reject almost every position, and the planted occurrences
// (about one per 1000 positions) are the hits.
const headAlphabet = "ABCFHIJKMNQRVWXYZ"

func signatureDictionary(rng *rand.Rand, corpus []byte, np int) [][]byte {
	var seen [256]bool
	for _, c := range corpus {
		seen[c] = true
	}
	var tail []byte
	for c := range seen {
		if seen[c] && c != '\n' {
			tail = append(tail, byte(c))
		}
	}
	uniq := map[string]bool{}
	out := make([][]byte, 0, np)
	for len(out) < np {
		p := make([]byte, 6+rng.Intn(11))
		for i := range p {
			if i < 3 {
				p[i] = headAlphabet[rng.Intn(len(headAlphabet))]
			} else {
				p[i] = tail[rng.Intn(len(tail))]
			}
		}
		if !uniq[string(p)] {
			uniq[string(p)] = true
			out = append(out, p)
		}
	}
	return out
}

// expand walks every position with a match and expands it to all patterns
// starting there, folding them into an order-independent digest.
func expand(r *pardict.Matches, buf []int) (hits int64, sum uint64, _ []int) {
	for i, n := 0, r.Len(); i < n; i++ {
		if _, ok := r.Longest(i); !ok {
			continue
		}
		buf = r.All(i, buf[:0])
		for _, p := range buf {
			sum += mix(int64(i), p)
			hits++
		}
	}
	return hits, sum, buf
}

type bulkResult struct {
	text int
	hits int64
	sum  uint64
}

func runScanBulk(b *bench) error {
	seed := b.cfg.seed
	rng := rand.New(rand.NewSource(seed))
	corpus := workload.LogsText(seed, bulkCorpus)
	if bytes.ContainsAny(corpus, headAlphabet) {
		return errors.New("the log corpus contains a pattern head letter")
	}
	dict := signatureDictionary(rng, corpus, bulkPatterns)
	workload.PlantBytes(seed+1, corpus, dict, 1)
	texts := slicesOf(rng, corpus, bulkTexts, bulkText)

	b.markHeap()
	setup := &setupTimer[*pardict.Matcher]{
		build: func() (*pardict.Matcher, error) {
			return pardict.NewMatcher(dict, pardict.WithPool(b.pool),
				pardict.WithEngine(pardict.EngineGeneral), pardict.WithPrefilter(pardict.PrefilterAuto))
		},
		discard: func(*pardict.Matcher) {},
	}
	m, err := setup.first()
	if err != nil {
		return err
	}

	var (
		dst     *pardict.Matches
		buf     []int
		next    int
		t       tally
		hits    int64
		results []bulkResult
		traced  bool
	)
	tr := newTracer(4096)
	op := func(int) {
		i := next % len(texts)
		next++
		text := texts[i]
		var h int64
		var sum uint64
		if !b.cfg.trace {
			t0 := time.Now()
			dst = m.MatchInto(dst, text)
			h, sum, buf = expand(dst, buf)
			t.lat = append(t.lat, msSince(t0))
			st := dst.Stats()
			t.work += float64(st.Work)
			t.depth += float64(st.Depth)
		} else {
			// MatchInto takes no context, so no trace can ride it: both
			// halves of a traced run call MatchContext, and only the
			// traced half puts a trace on the context.
			ctx := context.Background()
			var tt *trace.T
			if traced {
				tt, ctx = tr.start(0, "scan-bulk")
			}
			r, err := m.MatchContext(ctx, text)
			if err != nil {
				tt.Finish()
				b.fail(1, "MatchContext: %v", err)
				return
			}
			sp := tt.StartSpan("matches.expand", 0)
			h, sum, buf = expand(r, buf)
			sp.End()
			st := r.Stats()
			r.Release()
			if traced {
				b.bd.addTrace(tr.finish(0, tt), h)
			}
			t.work += float64(st.Work)
			t.depth += float64(st.Depth)
		}
		t.ops++
		t.scans++
		t.bytes += int64(len(text))
		hits += h
		results = append(results, bulkResult{i, h, sum})
	}

	closedLoop(1, warmup, op, nil)
	b.setMem()
	if !b.cfg.trace {
		segs, err := b.segmented(setup.sample, func() { closedLoop(1, rewarm, op, nil) }, func(d time.Duration) segment {
			t = tally{}
			el := closedLoop(1, d, op, nil)
			return segment{t: t, el: el}
		})
		if err != nil {
			return err
		}
		b.setE2E(segs, setup.times)
	} else {
		if err := b.setKernels(dict, texts, kernelEncode|kernelPrefilter); err != nil {
			return err
		}
		t, hits = tally{}, 0
		a := b.snap()
		el := closedLoop(1, b.window(), op, nil)
		b.setCounterLayers(a, b.snap(), float64(t.ops))
		b.setScanLayers(t)
		b.layer["matches.hits_per_mb"] = ratio(float64(hits), float64(t.bytes)/1e6)
		untraced := float64(t.ops) / el.Seconds()
		t, traced = tally{}, true
		el = closedLoop(1, b.window(), op, nil)
		b.setOverhead(untraced, float64(t.ops)/el.Seconds())
	}
	b.attempted.Add(int64(len(results)))
	return b.checkBulk(dict, texts, results)
}

// checkBulk compares every scan's expanded matches with the Aho–Corasick
// automaton's occurrences on the same text.
func (b *bench) checkBulk(dict, texts [][]byte, results []bulkResult) error {
	enc := alpha.NewByteEncoder()
	pats, err := encodeAll(enc, dict)
	if err != nil {
		return err
	}
	ac, err := ahocorasick.New(pats)
	if err != nil {
		return err
	}
	want := map[int]bulkResult{}
	var bad int64
	for _, r := range results {
		w, ok := want[r.text]
		if !ok {
			w.text = r.text
			ac.AllMatches(enc.Encode(texts[r.text]), func(start int, pat int32) {
				w.hits++
				w.sum += mix(int64(start), int(pat))
			})
			want[r.text] = w
		}
		if r.hits != w.hits || r.sum != w.sum {
			bad++
		}
	}
	if bad > 0 {
		b.fail(bad, "scans disagree with the Aho–Corasick oracle")
	}
	return nil
}
