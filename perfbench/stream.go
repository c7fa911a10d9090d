package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"pardict"
	"pardict/internal/trace"
	"pardict/internal/workload"
)

// stream-fanout: one feeder goroutine round-robins 1–4 KiB log chunks into a
// few hundred ServerStreams on one StreamServer. Each stream is a closed
// loop: the feeder sends a stream its next chunk only after the previous
// chunk's marker has been emitted. It is the only path through streamcore
// (an Aho–Corasick session) and the StreamServer dispatcher's batching, and
// it never touches the prefilter, the cascade or the shards.
const (
	streamCount    = 256
	chunkPool      = 2048
	streamPatterns = 500
	verifyEvery    = 32        // every 32nd stream's emits are checked against FindAll
	verifyBytes    = 256 << 10 // over the stream's first 256 KiB
	ackTimeout     = 5 * time.Second
	marker         = "<<MARK>>" // planted once per chunk; '<' and '>' never occur in the corpus
)

// chunk is one pooled feed: log bytes with the marker planted at mark, at
// least MaxLen bytes before the end so the marker's match is final within
// the chunk's own scan.
type chunk struct {
	data []byte
	mark int
}

type streamState struct {
	id   int
	st   *pardict.ServerStream
	ack  chan struct{} // holds a token while no chunk of the stream is in flight
	dead bool          // the feeder gave up on the stream

	// Feeder side, written before each Feed.
	off    int64         // bytes fed
	seq    int           // chunks fed
	expect int64         // stream offset of the in-flight chunk's marker
	fedAt  time.Duration // Feed start of the in-flight chunk, since the run's epoch

	// Emit side: the server serializes a stream's emits.
	lat      []float64 // ms, Feed start → marker emit
	markWall []int64   // UnixNano of each marker emit, by chunk sequence
	bad      int64     // marker emits at an unexpected offset
	verify   bool
	vCount   int64
	vSum     uint64
}

// feedRec is one Feed call, in the order the single feeder made them.
type feedRec struct {
	stream, seq int
	start, end  int64 // UnixNano
}

func runStreamFanout(b *bench) error {
	seed := b.cfg.seed
	corpus := workload.LogsText(seed, logCorpus)
	dict := append(workload.SampleDictionary(seed+1, corpus, streamPatterns, 4, 16), []byte(marker))
	markerIdx := len(dict) - 1
	maxLen := 0
	for _, p := range dict {
		maxLen = max(maxLen, len(p))
	}
	rng := rand.New(rand.NewSource(seed + 2))
	chunks := make([]chunk, chunkPool)
	texts := make([][]byte, chunkPool)
	for i := range chunks {
		n := 1024 + rng.Intn(3*1024+1)
		at := rng.Intn(len(corpus) - n + 1)
		data := append([]byte(nil), corpus[at:at+n]...)
		mark := rng.Intn(n - maxLen + 1)
		copy(data[mark:], marker)
		chunks[i], texts[i] = chunk{data, mark}, data
	}
	chunkOf := func(stream, seq int) chunk { return chunks[(seq*streamCount+stream)%chunkPool] }

	epoch := time.Now()
	states := make([]*streamState, streamCount)
	for s := range states {
		states[s] = &streamState{id: s, ack: make(chan struct{}, 1), verify: s%verifyEvery == 0}
		states[s].ack <- struct{}{}
	}
	emitFor := func(ss *streamState) func(pos int64, pat int) {
		return func(pos int64, pat int) {
			if ss.verify && pos < verifyBytes {
				ss.vCount++
				ss.vSum += mix(pos, pat)
			}
			if pat != markerIdx {
				return
			}
			if pos != ss.expect {
				ss.bad++
				return
			}
			ss.lat = append(ss.lat, float64((time.Since(epoch)-ss.fedAt).Nanoseconds())/1e6)
			ss.markWall = append(ss.markWall, time.Now().UnixNano())
			ss.ack <- struct{}{}
		}
	}

	type fanout struct {
		m       *pardict.Matcher
		srv     *pardict.StreamServer
		streams []*pardict.ServerStream
	}
	b.markHeap()
	setup := &setupTimer[*fanout]{
		build: func() (*fanout, error) {
			m, err := pardict.NewMatcher(dict, pardict.WithPool(b.pool))
			if err != nil {
				return nil, err
			}
			f := &fanout{m: m, srv: m.NewStreamServer()}
			for _, ss := range states {
				st, err := f.srv.Open(emitFor(ss))
				if err != nil {
					f.srv.Close()
					return nil, err
				}
				f.streams = append(f.streams, st)
			}
			return f, nil
		},
		discard: func(f *fanout) { f.srv.Close() },
	}
	f, err := setup.first()
	if err != nil {
		return err
	}
	defer f.srv.Close()
	for i, ss := range states {
		ss.st = f.streams[i]
	}

	var (
		g      int
		feeds  []feedRec
		feedUs []float64
		t      tally
	)
	feedOne := func(int) {
		ss := states[g%streamCount]
		g++
		if ss.dead {
			return
		}
		select {
		case <-ss.ack:
		default:
			select {
			case <-ss.ack:
			case <-time.After(ackTimeout):
				ss.dead = true
				b.fail(1, "stream %d: marker of chunk %d not emitted within %v", ss.id, ss.seq-1, ackTimeout)
				return
			}
		}
		ch := chunkOf(ss.id, ss.seq)
		ss.expect = ss.off + int64(ch.mark)
		ss.fedAt = time.Since(epoch)
		w0 := time.Now()
		err := ss.st.Feed(ch.data)
		w1 := time.Now()
		t.ops++
		if err != nil {
			ss.dead = true
			b.fail(1, "stream %d: Feed: %v", ss.id, err)
			return
		}
		feeds = append(feeds, feedRec{ss.id, ss.seq, w0.UnixNano(), w1.UnixNano()})
		feedUs = append(feedUs, float64(w1.Sub(w0).Nanoseconds())/1e3)
		ss.off += int64(len(ch.data))
		ss.seq++
		t.scans++
		t.bytes += int64(len(ch.data))
	}
	// window feeds for d, then waits until every in-flight chunk's marker
	// is emitted; the elapsed time includes the drain. The chunk latencies
	// of the window land in t.lat.
	window := func(d time.Duration) time.Duration {
		b.attempted.Add(t.ops)
		t, feeds, feedUs = tally{}, feeds[:0], feedUs[:0]
		from := make([]int, streamCount)
		for s, ss := range states {
			from[s] = len(ss.lat)
		}
		t0 := time.Now()
		closedLoop(1, d, feedOne, nil)
		for _, ss := range states {
			if ss.dead {
				continue
			}
			select {
			case <-ss.ack:
				ss.ack <- struct{}{}
			case <-time.After(ackTimeout):
				ss.dead = true
				b.fail(1, "stream %d: marker of chunk %d not emitted within %v", ss.id, ss.seq-1, ackTimeout)
			}
		}
		el := time.Since(t0)
		for s, ss := range states {
			if !ss.dead {
				t.lat = append(t.lat, ss.lat[from[s]:]...)
			}
		}
		return el
	}

	window(warmup)
	b.setMem()
	if !b.cfg.trace {
		segs, err := b.segmented(setup.sample, func() { window(rewarm) }, func(d time.Duration) segment {
			el := window(d)
			return segment{t: t, el: el}
		})
		if err != nil {
			return err
		}
		b.setE2E(segs, setup.times)
	} else {
		if err := b.setKernels(dict, texts, kernelStream); err != nil {
			return err
		}
		a, sa := b.snap(), f.srv.Stats()
		el := window(b.window())
		z, sz := b.snap(), f.srv.Stats()
		b.setCounterLayers(a, z, float64(t.ops))
		batches := float64(sz.Batches - sa.Batches)
		b.layer["stream.streams_per_batch"] = ratio(float64(sz.BatchStreams-sa.BatchStreams), batches)
		b.layer["stream.bytes_per_batch"] = ratio(float64(sz.BatchBytes-sa.BatchBytes), batches)
		b.layer["stream.carry_bytes"] = float64(sz.CarryBytes)
		b.layer["stream.feed_block_us"] = mean(feedUs)
		untraced := float64(t.bytes) / el.Seconds()

		// The dispatcher traces its batches through the Default recorder;
		// sample about a thousand of them so the reservoir keeps them all.
		every := max(1, int(batches/el.Seconds()*b.window().Seconds()/1000))
		trace.Default.Configure(every, 2000, 2*streamCount+16)
		since := time.Now()
		el = window(b.window())
		trace.Default.Configure(0, 0, 0)
		b.setOverhead(untraced, float64(t.bytes)/el.Seconds())
		b.joinStreamTraces(trace.Default.Slowest(), since, feeds, states)
	}
	b.attempted.Add(t.ops)
	return b.checkStreams(f.m, states, chunkOf, maxLen)
}

// joinStreamTraces rebuilds each sampled chunk's life from three sources:
// the benchmark's own feed record, the dispatcher's stream.wait span
// (enqueue → scan start) and stream.scan span, and the marker's emit time.
// The stream.wait span starts at the enqueue stamp taken inside Feed, which
// identifies the feed; wait and scan spans of one chunk share the scan
// start. Each joined chunk is one traced operation, Feed start → marker
// emit.
func (b *bench) joinStreamTraces(infos []trace.Info, since time.Time, feeds []feedRec, states []*streamState) {
	key := func(us float64) int64 { return int64(math.Round(us * 10)) } // 100 ns buckets
	for _, inf := range infos {
		if inf.Start.Before(since) {
			continue
		}
		t0 := float64(inf.Start.UnixNano())
		scans := map[int64]trace.SpanInfo{}
		for _, s := range inf.Spans {
			if s.Name == "stream.scan" {
				scans[key(s.StartUs)] = s
			}
		}
		for _, w := range inf.Spans {
			if w.Name != "stream.wait" {
				continue
			}
			k := key(w.StartUs + w.DurUs)
			sc, ok := scans[k]
			if !ok {
				if sc, ok = scans[k-1]; !ok {
					sc, ok = scans[k+1]
				}
			}
			stamp := int64(t0 + w.StartUs*1e3)
			i := sort.Search(len(feeds), func(i int) bool { return feeds[i].end >= stamp })
			if !ok || i == len(feeds) || feeds[i].start > stamp {
				continue
			}
			fr := feeds[i]
			ss := states[fr.stream]
			if fr.seq >= len(ss.markWall) {
				continue
			}
			base := float64(fr.start)
			sp := []span{
				{Name: "feed", Start: 0, End: float64(fr.end) - base},
				{Name: "stream.wait", Start: float64(stamp) - base, End: t0 + (w.StartUs+w.DurUs)*1e3 - base},
				{Name: "stream.scan", Start: t0 + sc.StartUs*1e3 - base, End: t0 + (sc.StartUs+sc.DurUs)*1e3 - base},
			}
			b.bd.add("chunk", float64(ss.markWall[fr.seq])-base, sp, 0, 0)
		}
	}
}

// checkStreams closes every verified stream, which flushes its tail, and
// compares its emits over the first verifyBytes with the longest match per
// position that Matcher.FindAll reports over the stream's concatenated
// bytes. Misplaced markers count too.
func (b *bench) checkStreams(m *pardict.Matcher, states []*streamState, chunkOf func(stream, seq int) chunk, maxLen int) error {
	for _, ss := range states {
		if ss.bad > 0 {
			b.fail(ss.bad, "stream %d: marker emitted at an unexpected offset", ss.id)
		}
		if !ss.verify || ss.dead {
			continue
		}
		if err := ss.st.Close(); err != nil {
			return err
		}
		limit := min(ss.off, verifyBytes)
		need := min(ss.off, verifyBytes+int64(maxLen)-1)
		var text []byte
		for k := 0; int64(len(text)) < need; k++ {
			text = append(text, chunkOf(ss.id, k).data...)
		}
		var count int64
		var sum uint64
		last := -1
		for _, o := range m.FindAll(text[:need]) {
			if int64(o.Pos) >= limit || o.Pos == last {
				continue
			}
			last = o.Pos
			count++
			sum += mix(int64(o.Pos), o.Pattern)
		}
		if count != ss.vCount || sum != ss.vSum {
			b.fail(1, "stream %d: emits disagree with FindAll over its bytes", ss.id)
		}
	}
	return nil
}
