package main

import (
	"context"
	"time"

	"pardict"
)

// serve-read: two clients run ShardedMatcher.MatchContext back to back on
// 4 KiB log slices; default shard count, joined phase, a fixed dictionary
// sampled from the corpus, no writes. Per-request overhead dominates:
// encode, scatter to S shards each running the cascade on the whole text,
// many small pool phases, the S-way merge, allocation. The write, overlay
// and reconcile machinery stays idle, so this workload predicts "no change"
// for write-path changes.

// scanSample is one kept scan output: its text and the digest of its
// per-position longest-match lengths.
type scanSample struct {
	text   int
	digest uint64
}

// lenDigest folds per-position longest-match lengths into one value.
func lenDigest(n int, at func(i int) int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		h = (h ^ uint64(at(i))) * 1099511628211
	}
	return h
}

// scanClient is one closed-loop client scanning 4 KiB texts on a
// ShardedMatcher; every sampleEvery-th output is kept for the oracle.
type scanClient struct {
	t       tally
	next    int
	n       int64
	samples []scanSample
	tr      *tracer
}

// scan runs the client's next scan and returns its latency in ms.
func (c *scanClient) scan(b *bench, m *pardict.ShardedMatcher, texts [][]byte, ctx context.Context) float64 {
	i := c.next % len(texts)
	c.next++
	t0 := time.Now()
	r, err := m.MatchContext(ctx, texts[i])
	lat := msSince(t0)
	if err != nil {
		b.fail(1, "MatchContext: %v", err)
		return lat
	}
	st := r.Stats()
	c.t.scans++
	c.t.bytes += int64(len(texts[i]))
	c.t.work += float64(st.Work)
	c.t.depth += float64(st.Depth)
	c.n++
	if c.n%sampleEvery == 0 {
		c.samples = append(c.samples, scanSample{i, lenDigest(r.Len(), r.MatchLen)})
	}
	return lat
}

// checkScans compares the kept sharded scan outputs with a static Matcher
// over the same dictionary.
func (b *bench) checkScans(dict, texts [][]byte, samples []scanSample) error {
	sm, err := pardict.NewMatcher(dict, pardict.WithPool(b.pool), pardict.WithEngine(pardict.EngineGeneral))
	if err != nil {
		return err
	}
	want := map[int]uint64{}
	var bad int64
	for _, s := range samples {
		w, ok := want[s.text]
		if !ok {
			r := sm.Match(texts[s.text])
			w = lenDigest(r.Len(), func(i int) int {
				if p, ok := r.Longest(i); ok {
					return len(dict[p])
				}
				return 0
			})
			want[s.text] = w
		}
		if w != s.digest {
			bad++
		}
	}
	if bad > 0 {
		b.fail(bad, "sampled sharded scans disagree with the static Matcher")
	}
	return nil
}

func runServeRead(b *bench) error {
	in := newServeInputs(b.cfg.seed)
	b.markHeap()
	setup := &setupTimer[*pardict.ShardedMatcher]{
		build:   func() (*pardict.ShardedMatcher, error) { return newSharded(b.pool, in.dict, pardict.WritePhaseJoined) },
		discard: (*pardict.ShardedMatcher).Close,
	}
	m, err := setup.first()
	if err != nil {
		return err
	}
	defer m.Close()

	clients := []*scanClient{{tr: newTracer(1024)}, {next: serveTexts / 2, tr: newTracer(1024)}}
	traced := false
	op := func(c int) {
		cl := clients[c]
		cl.t.ops++
		if !traced {
			cl.t.lat = append(cl.t.lat, cl.scan(b, m, in.texts, context.Background()))
			return
		}
		tt, ctx := cl.tr.start(0, "serve-read")
		cl.scan(b, m, in.texts, ctx)
		b.bd.addTrace(cl.tr.finish(0, tt), 0)
	}
	total := func() tally {
		ts := make([]*tally, len(clients))
		for i, c := range clients {
			ts[i] = &c.t
		}
		return sumTallies(ts)
	}
	reset := func() {
		for _, c := range clients {
			b.attempted.Add(c.t.ops)
			c.t = tally{}
		}
	}

	closedLoop(len(clients), warmup, op, nil)
	b.setMem()
	reset()
	if !b.cfg.trace {
		segs, err := b.segmented(setup.sample, func() { closedLoop(len(clients), rewarm, op, nil) }, func(d time.Duration) segment {
			reset()
			el := closedLoop(len(clients), d, op, nil)
			return segment{t: total(), el: el}
		})
		if err != nil {
			return err
		}
		b.setE2E(segs, setup.times)
	} else {
		if err := b.setKernels(in.dict, in.texts, kernelEncode); err != nil {
			return err
		}
		a := b.snap()
		el := closedLoop(len(clients), b.window(), op, nil)
		t := total()
		b.setCounterLayers(a, b.snap(), float64(t.ops))
		b.setScanLayers(t)
		untraced := float64(t.ops) / el.Seconds()
		reset()
		traced = true
		el = closedLoop(len(clients), b.window(), op, nil)
		b.setOverhead(untraced, float64(total().ops)/el.Seconds())
	}
	reset()
	var samples []scanSample
	for _, c := range clients {
		samples = append(samples, c.samples...)
	}
	return b.checkScans(in.dict, in.texts, samples)
}
