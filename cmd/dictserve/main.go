// Command dictserve exposes a sharded, online-updatable dictionary matcher
// as an HTTP service: optionally seed a dictionary (plain or saved) at
// startup, then POST text to /scan and mutate the pattern set live.
//
// Endpoints:
//
//	POST   /scan            body = text; response = JSON match list
//	POST   /scan?mode=count body = text; response = {"count": N}
//	POST   /scanbatch       body = {"texts": [...]}; scans pipelined in one call
//	POST   /patterns        body = {"patterns": [...]}; online inserts
//	DELETE /patterns        body = {"patterns": [...]}; online removals
//	POST   /reload          body = saved dictionary (Save format, as written
//	                        by dictmatch -compile); its pattern list replaces
//	                        the dictionary atomically, checksum-verified,
//	                        failing closed with the old dictionary intact
//	POST   /stream                 open a tenant stream; 201 + {"id": ...}
//	POST   /stream/{id}/feed       body = next bytes of the stream; 204, or
//	                               429 when backpressure holds the body past
//	                               the request deadline (retryable)
//	GET    /stream/{id}/events     SSE push of matches; with ?once=1 a single
//	                               long-poll JSON response instead
//	DELETE /stream/{id}            close the stream; response carries the
//	                               drained tail matches
//	GET    /healthz         liveness + dictionary/shard metadata
//	GET    /metrics         every series, in the Prometheus text format
//	GET    /debug/vars      the same series as JSON, beside memstats and cmdline
//	GET    /debug/trace     slowest-N sampled request traces with per-shard,
//	                        per-phase, and per-stream-chunk span timings
//	                        (?recent=K adds recently finished traces);
//	                        sampling is set by -trace (1-in-k, 0 = off)
//	GET    /debug/pprof/    net/http/pprof handlers, mounted only with -debug
//
// Both render one table of series, listed in README.md's metrics reference;
// among them is a sliding-window latency SLO view (-slotarget, -sloobjective,
// -slowindow). Every request to a route above is counted once, by endpoint
// and status. cmd/dictload drives all of it under load.
//
// Scans honor request cancellation (a disconnected client aborts its match
// within one parallel phase) and the -timeout per-request deadline (exceeding
// it returns 504); any other matching failure returns 500 rather than an
// empty success. Mutations are cheap log appends; compiled engine rebuilds
// run on a background reconciler and swap in atomically, so scans never block
// on writes.
//
// Streams are multiplexed: all of them share one pardict.StreamServer over a
// frozen snapshot of the dictionary, so thousands of mostly-idle streams cost
// per-stream state plus a bounded queue, not a matcher each. A stream keeps
// the snapshot it was created against for its whole life; the first stream
// created after a /patterns or /reload mutation compiles a fresh snapshot.
// Streams idle past -streamidle are evicted.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// requests get up to -drain to finish, then the process exits.
//
// Usage:
//
//	dictserve -dict patterns.txt [-addr :8844] [-shards S] [-procs N]
//	dictserve -load saved.pdm
//	dictserve                       (start empty; populate via /patterns)
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pardict"
	"pardict/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dictserve: ")
	var (
		dictPath = flag.String("dict", "", "file with one pattern per line")
		loadPath = flag.String("load", "", "saved dictionary, written by dictmatch -compile")
		addr     = flag.String("addr", ":8844", "listen address")
		shards   = flag.Int("shards", 0, "dictionary partitions (0 = 2×GOMAXPROCS, capped at 32)")
		procs    = flag.Int("procs", 0, "parallelism (0 = GOMAXPROCS)")
		wphase   = flag.String("writephase", "joined", "mutation coordination: joined (read-your-writes), auto (switch to per-core logs under write storms), split (force per-core logs)")
		maxBody  = flag.Int64("maxbody", 16<<20, "maximum request body size in bytes")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request scan deadline (0 = none)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")

		streamIdle   = flag.Duration("streamidle", 5*time.Minute, "evict streams unused this long (0 = never)")
		streamQueue  = flag.Int("streamqueue", 0, "per-stream feed queue bound in bytes (0 = library default)")
		streamEvents = flag.Int("streamevents", 1024, "per-stream buffered match events before the oldest drop")

		debugMode    = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
		traceEvery   = flag.Int("trace", 1, "trace 1-in-N requests (0 = tracing off)")
		traceN       = flag.Int("tracen", 32, "slowest traces retained for GET /debug/trace")
		traceSpans   = flag.Int("tracespans", 256, "span capacity per trace (excess spans are dropped and counted)")
		sloTarget    = flag.Duration("slotarget", 100*time.Millisecond, "latency SLO target for /scan and /scanbatch")
		sloObjective = flag.Float64("sloobjective", 0.999, "SLO success-fraction objective")
		sloWindow    = flag.Duration("slowindow", time.Minute, "sliding window the SLO is measured over")
	)
	flag.Parse()

	trace.Default.Configure(*traceEvery, *traceN, *traceSpans)
	phase, err := pardict.ParseWritePhase(*wphase)
	if err != nil {
		log.Fatal(err)
	}
	m, err := buildMatcher(*dictPath, *loadPath, *procs, *shards, phase)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	srv := newServer(m, *maxBody, *timeout,
		streamOpts{idle: *streamIdle, queue: *streamQueue, maxEvents: *streamEvents},
		obsOpts{debug: *debugMode, sloTarget: *sloTarget, sloObjective: *sloObjective, sloWindow: *sloWindow})
	defer srv.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	st := m.Stats()
	log.Printf("serving %d patterns (m=%d, M=%d, shards=%d) on %s",
		st.Patterns, st.MaxLen, st.Size, st.Shards, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, &http.Server{Handler: srv}, ln, *drain); err != nil {
		log.Fatal(err)
	}
	log.Print("drained, shutting down")
}

// run serves hs on ln until ctx is canceled (SIGINT/SIGTERM in production),
// then shuts down gracefully: the listener closes immediately, in-flight
// requests get up to drain to finish, and stragglers are cut off after that.
func run(ctx context.Context, hs *http.Server, ln net.Listener, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		// Serve never returns nil; this is a listener/accept failure.
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// buildMatcher constructs the serving dictionary: seeded from a plain
// pattern file, from the pattern list of a Save-format file
// (checksum-verified), or — with neither — empty, to be populated online via
// /patterns and /reload.
func buildMatcher(dictPath, loadPath string, procs, shards int, phase pardict.WritePhase) (*pardict.ShardedMatcher, error) {
	m, err := pardict.NewShardedMatcher(
		pardict.WithParallelism(procs), pardict.WithShards(shards),
		pardict.WithWritePhase(phase))
	if err != nil {
		return nil, err
	}
	switch {
	case loadPath != "":
		f, err := os.Open(loadPath)
		if err != nil {
			m.Close()
			return nil, err
		}
		defer f.Close()
		if err := m.ReloadSaved(f); err != nil {
			m.Close()
			return nil, err
		}
	case dictPath != "":
		patterns, err := readLines(dictPath)
		if err != nil {
			m.Close()
			return nil, err
		}
		if err := m.Reload(patterns); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}
