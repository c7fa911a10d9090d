package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pardict"
	"pardict/internal/benchrow"
	"pardict/internal/obs"
)

// streamLatBounds mirror the StreamServer's internal accept→scan-complete
// latency buckets (1µs doubling), so the goroutine baseline is measured at
// the same granularity and both arms' p99 come from identical histograms.
var streamLatBounds = obs.ExpBounds(1_000, 2, 23)

// e16: the multiplexed streaming claim — one StreamServer coalescing N tenant
// streams into batched phases vs N independent StreamMatcher instances each
// behind its own goroutine and bounded channel. Both arms scan the identical
// per-stream byte sequences with the same per-stream queue capacity (4
// chunks) and closed-loop producers, and measure per-chunk latency with the
// same histogram buckets, so the comparison isolates the scheduling layer:
// one dispatcher amortizing wakeups across whole batches vs N goroutines each
// paying channel park/unpark per chunk.
func e16() {
	header("E16", "Streaming: multiplexed StreamServer vs per-stream goroutine baseline")

	patterns := streamDict()
	m := 0
	for _, p := range patterns {
		if len(p) > m {
			m = len(p)
		}
	}
	const chunkBytes = 512
	totalBytes := int64(scale(16<<20, 2<<20))
	sweeps := []int{64, 256, 1000}
	if *quick {
		sweeps = []int{32, 128}
	}

	gomax := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		gomax = append(gomax, n)
	}
	f := record("E16", map[string]any{"patterns": len(patterns), "max_len": m, "chunk_bytes": chunkBytes})

	fmt.Printf("%12s %8s %6s %12s %12s %10s %10s %9s %12s\n",
		"mode", "streams", "procs", "total MB", "agg MB/s", "p50 µs", "p99 µs", "matches", "batch size")
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, g := range gomax {
		runtime.GOMAXPROCS(g)
		for _, streams := range sweeps {
			chunks := streamChunks(totalBytes, chunkBytes, streams, patterns)
			for _, mode := range []string{"server", "goroutines"} {
				run := runStreamServerArm
				if mode == "goroutines" {
					run = runStreamGoroutineArm
				}
				p := run(patterns, g, chunks, chunkBytes)
				f.Add(mode, benchrow.Params{"streams": streams}, g, 1, p)
				row("%12s %8d %6d %12.1f %12.1f %10.0f %10.0f %9.0f %12.1f",
					mode, streams, g, p["total_bytes"]/(1<<20), p["agg_mb_per_sec"],
					p["p50_latency_us"], p["p99_latency_us"], p["matches"], p["mean_batch_streams"])
			}
		}
	}
	fmt.Println("shape check: both arms scan identical bytes (equal match totals); the server")
	fmt.Println("arm's aggregate MB/s and p99 beat the N-goroutine baseline, and the gap grows")
	fmt.Println("with N — one dispatcher batching ready streams amortizes scheduling that the")
	fmt.Println("baseline pays per chunk (N channel park/unpark cycles and N hot goroutines).")
}

// streamDict is the E16 signature bank: mixed lengths with shared prefixes,
// long enough that the hold-back carry does real work.
func streamDict() [][]byte {
	var out [][]byte
	for i := 0; i < 48; i++ {
		out = append(out, []byte(fmt.Sprintf("sig-%04d-%04d", i, i*7919%9973)))
	}
	out = append(out,
		[]byte("GET /etc/passwd"), []byte("UNION SELECT"), []byte("<script>alert("),
		[]byte("../../.."), []byte("\x90\x90\x90\x90\x90\x90\x90\x90"),
	)
	return out
}

// streamChunks pre-splits the workload: chunks[i] is the chunk sequence of
// stream i, identical for both arms. Patterns are planted about every 40
// chunks, sometimes straddling a chunk boundary so cross-chunk joining is
// exercised.
func streamChunks(totalBytes int64, chunkBytes, streams int, patterns [][]byte) [][][]byte {
	perStream := int(totalBytes) / streams / chunkBytes
	if perStream < 4 {
		perStream = 4
	}
	out := make([][][]byte, streams)
	for s := range out {
		text := make([]byte, perStream*chunkBytes)
		for i := range text {
			text[i] = byte('a' + (i*131+s*17+i/9)%23)
		}
		for at := 137 + s%61; at+32 < len(text); at += 40*chunkBytes + s%257 {
			p := patterns[(at+s)%len(patterns)]
			copy(text[at:], p)
		}
		cs := make([][]byte, perStream)
		for c := range cs {
			cs[c] = text[c*chunkBytes : (c+1)*chunkBytes]
		}
		out[s] = cs
	}
	return out
}

// streamProducers drives the closed-loop load: nProd producers, each owning a
// disjoint set of streams, feeding them round-robin one chunk per visit so a
// slow stream exerts backpressure without starving its siblings.
func streamProducers(chunks [][][]byte, feed func(stream int, chunk []byte), closeStream func(stream int)) {
	nProd := 8
	if nProd > len(chunks) {
		nProd = len(chunks)
	}
	var wg sync.WaitGroup
	for p := 0; p < nProd; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var own []int
			for s := p; s < len(chunks); s += nProd {
				own = append(own, s)
			}
			for round := 0; ; round++ {
				live := false
				for _, s := range own {
					if round < len(chunks[s]) {
						feed(s, chunks[s][round])
						live = true
					} else if round == len(chunks[s]) {
						closeStream(s)
					}
				}
				if !live {
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// runStreamServerArm: one multiplexed StreamServer over a shared matcher.
// Latency is chunk accept→scan-complete; batches and mean_batch_streams give
// the dispatch-phase shape.
func runStreamServerArm(patterns [][]byte, procs int, chunks [][][]byte, chunkBytes int) map[string]float64 {
	m, err := pardict.NewMatcher(patterns, pardict.WithParallelism(procs))
	check(err)
	srv := m.NewStreamServer(pardict.WithStreamQueue(4 * chunkBytes))
	var matches atomic.Int64
	streams := make([]*pardict.ServerStream, len(chunks))
	for i := range streams {
		st, err := srv.Open(func(int64, int) { matches.Add(1) })
		check(err)
		streams[i] = st
	}
	t0 := time.Now()
	streamProducers(chunks,
		func(s int, chunk []byte) { check(streams[s].Feed(chunk)) },
		func(s int) { check(streams[s].Close()) })
	elapsed := time.Since(t0)
	st := srv.Stats()
	check(srv.Close())

	p := streamMetrics(st.FedBytes, elapsed, st.Latency, matches.Load())
	p["batches"] = float64(st.Batches)
	if st.Batches > 0 {
		p["mean_batch_streams"] = float64(st.BatchStreams) / float64(st.Batches)
	}
	return p
}

// streamMetrics are the readings both E16 arms report.
func streamMetrics(total int64, elapsed time.Duration, lat pardict.HistogramSnapshot, matches int64) map[string]float64 {
	return map[string]float64{
		"total_bytes":    float64(total),
		"agg_mb_per_sec": float64(total) / (1 << 20) / elapsed.Seconds(),
		"p99_latency_us": float64(lat.Quantile(0.99)) / 1e3,
		"p50_latency_us": float64(lat.Quantile(0.50)) / 1e3,
		"matches":        float64(matches),
	}
}

// stampedChunk carries the enqueue time so the baseline measures the same
// accept→scan-complete interval the server stamps internally.
type stampedChunk struct {
	b []byte
	t time.Time
}

// runStreamGoroutineArm: the pre-refactor architecture at scale — one
// StreamMatcher and one consumer goroutine per stream, fed through a bounded
// channel with the same capacity as the server arm's queue (4 chunks).
func runStreamGoroutineArm(patterns [][]byte, procs int, chunks [][][]byte, chunkBytes int) map[string]float64 {
	m, err := pardict.NewMatcher(patterns, pardict.WithParallelism(procs))
	check(err)
	var matches atomic.Int64
	hist := obs.NewHistogram(streamLatBounds)
	chans := make([]chan stampedChunk, len(chunks))
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan stampedChunk, 4)
		wg.Add(1)
		go func(ch chan stampedChunk) {
			defer wg.Done()
			s := m.Stream(func(int64, int) { matches.Add(1) })
			for c := range ch {
				check(s.Feed(c.b))
				hist.Observe(time.Since(c.t).Nanoseconds())
			}
			check(s.Close())
		}(chans[i])
	}
	var total atomic.Int64
	t0 := time.Now()
	streamProducers(chunks,
		func(s int, chunk []byte) {
			chans[s] <- stampedChunk{b: chunk, t: time.Now()}
			total.Add(int64(len(chunk)))
		},
		func(s int) { close(chans[s]) })
	wg.Wait()
	elapsed := time.Since(t0)

	hs := hist.Snapshot()
	snap := pardict.HistogramSnapshot{Bounds: hs.Bounds, Counts: hs.Counts, Count: hs.Count, Sum: hs.Sum}
	return streamMetrics(total.Load(), elapsed, snap, matches.Load())
}
