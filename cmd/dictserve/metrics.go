package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pardict"
	"pardict/internal/obs"
	"pardict/internal/shard"
	"pardict/internal/trace"
)

// latencyBoundsNs are the scan-latency histogram buckets, in nanoseconds:
// 100µs to 10s, roughly 2.5×–4× apart — wide enough to cover both a cache-hot
// small scan and a deadline-bounded worst case.
var latencyBoundsNs = []int64{
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
	10_000_000, 25_000_000, 50_000_000, 100_000_000, 250_000_000,
	500_000_000, 1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
}

// serverMetrics is the serving-path observability state: request counts per
// endpoint and status, the scan-latency histogram, the outcome counters the
// request-cancel/timeout plumbing feeds, and the accumulated engine
// Work/Depth of every completed scan.
type serverMetrics struct {
	scanLatency *obs.Histogram // ns per matching call (scan and scanbatch)

	timeouts    obs.Counter // 504: per-request deadline expired mid-match
	cancels     obs.Counter // client disconnected mid-match; nothing written
	matchErrors obs.Counter // 500: genuine engine failure

	engineWork  obs.Counter // sum of Stats().Work over completed matches
	engineDepth obs.Counter // sum of Stats().Depth over completed matches
	texts       obs.Counter // texts scanned (batch counts each text)
	bytes       obs.Counter // text bytes scanned

	mu       sync.Mutex
	requests map[reqKey]int64
}

type reqKey struct {
	endpoint string
	code     int
}

// scrape is everything one render of the table reads, taken once per
// request: each layer's stats struct, under the field name the table's rows
// address it by.
type scrape struct {
	Server            serverStats
	Requests          []sample // pardict_requests_total, sorted by endpoint, then code
	SLOSnapshot       obs.SLOSnapshot
	TraceStats        trace.Stats
	ShardStats        pardict.ShardStats
	ShardMetrics      shard.Metrics // process-wide; only the timing histograms are read
	Tier              tierStats
	StreamServerStats pardict.StreamServerStats
	LZStats           pardict.LZStats
	SchedulerStats    pardict.SchedulerStats
}

// serverStats is a snapshot of serverMetrics' counters.
type serverStats struct {
	ScanLatency obs.HistSnapshot

	Timeouts, Cancels, Errors, EngineWork, EngineDepth, Texts, Bytes int64
}

func (s *server) scrape() *scrape {
	m := s.metrics
	sc := &scrape{
		Server: serverStats{ScanLatency: m.scanLatency.Snapshot(), Timeouts: m.timeouts.Load(),
			Cancels: m.cancels.Load(), Errors: m.matchErrors.Load(), EngineWork: m.engineWork.Load(),
			EngineDepth: m.engineDepth.Load(), Texts: m.texts.Load(), Bytes: m.bytes.Load()},
		SLOSnapshot:    s.slo.Snapshot(),
		TraceStats:     trace.Default.RecorderStats(),
		ShardStats:     s.m.Stats(),
		ShardMetrics:   shard.GlobalMetrics(),
		LZStats:        pardict.ReadLZStats(),
		SchedulerStats: s.m.SchedulerStats(),
	}
	sc.Tier, sc.StreamServerStats = s.stream.stats()
	m.mu.Lock()
	for k, n := range m.requests {
		sc.Requests = append(sc.Requests, sample{labels: []string{k.endpoint, strconv.Itoa(k.code)}, v: float64(n)})
	}
	m.mu.Unlock()
	sort.Slice(sc.Requests, func(i, j int) bool {
		return strings.Join(sc.Requests[i].labels, ",") < strings.Join(sc.Requests[j].labels, ",")
	})
	return sc
}

// field resolves a dotted path of scrape field names, such as
// "ShardStats.Shards".
func (sc *scrape) field(path string) reflect.Value {
	v := reflect.ValueOf(sc).Elem()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// series is one row of the table both /metrics and /debug/vars render. A
// plain row reads the one scrape field named in from; a row with read
// computes its samples, and from then names the fields read consumes.
// derived names the field a row recomputes from a value another row already
// exports. Durations are integer nanoseconds in every stats struct; a series
// whose name ends in _seconds renders them in seconds.
type series struct {
	name, typ, help string
	labels          []string
	from            []string
	derived         string
	read            func(*scrape) []sample
}

func row(typ, name, from, help string) series {
	return series{name: name, typ: typ, help: help, from: []string{from}}
}

// sample is one value of a series: its label values, parallel to the
// series' label keys, and a number or, for a histogram, its snapshot.
type sample struct {
	labels []string
	v      float64
	h      *obs.HistSnapshot
}

func (r series) unit() float64 {
	if strings.HasSuffix(r.name, "_seconds") {
		return 1e9
	}
	return 1
}

func (r series) samples(sc *scrape) []sample {
	if r.read != nil {
		return r.read(sc)
	}
	v := sc.field(r.from[0])
	if r.typ == "histogram" {
		h := v.Convert(reflect.TypeOf(obs.HistSnapshot{})).Interface().(obs.HistSnapshot)
		return []sample{{h: &h}}
	}
	x := v.Convert(reflect.TypeOf(0.0)).Float()
	if v.Kind() != reflect.Float64 {
		x /= r.unit()
	}
	return []sample{{v: x}}
}

// cumulative returns h's counts summed up to each bound, then to +Inf. A
// never-observed snapshot may carry no counts at all; it yields zeros.
func cumulative(h *obs.HistSnapshot) []int64 {
	cum := make([]int64, len(h.Bounds)+1)
	var c int64
	for i, n := range h.Counts {
		c += n
		cum[i] = c
	}
	return cum
}

func info(labels ...string) []sample { return []sample{{labels: labels, v: 1}} }

// table defines every series dictserve exports. TestFieldLint checks that
// each exported field of the stats structs feeds exactly one row, and
// TestMetricsReference that README.md lists exactly these rows.
var table = []series{
	{name: "pardict_build_info", typ: "gauge", help: "Build and runtime identity (value is always 1).",
		labels: []string{"version", "go", "gomaxprocs"}, read: func(*scrape) []sample {
			return info(buildVersion(), runtime.Version(), strconv.Itoa(runtime.GOMAXPROCS(0)))
		}},
	{name: "pardict_requests_total", typ: "counter",
		help:   "Finished HTTP requests by endpoint and status code (code 0: client gone, nothing written).",
		labels: []string{"endpoint", "code"}, read: func(sc *scrape) []sample { return sc.Requests }},
	row("histogram", "pardict_scan_latency_seconds", "Server.ScanLatency", "Matching latency per /scan or /scanbatch request."),

	row("gauge", "pardict_slo_target_seconds", "SLOSnapshot.TargetNs", "Configured latency target."),
	row("gauge", "pardict_slo_objective", "SLOSnapshot.Objective", "Configured success-fraction objective."),
	row("gauge", "pardict_slo_window_seconds", "SLOSnapshot.WindowSeconds", "Sliding-window length the SLO is measured over."),
	row("gauge", "pardict_slo_requests_window", "SLOSnapshot.Count", "Matching requests observed in the current window."),
	row("gauge", "pardict_slo_breaches_window", "SLOSnapshot.Breaches", "Requests over the latency target in the current window."),
	{name: "pardict_slo_latency_seconds", typ: "gauge", help: "Windowed matching-latency quantiles (bucket upper bounds).",
		labels: []string{"quantile"}, from: []string{"SLOSnapshot.P50", "SLOSnapshot.P90", "SLOSnapshot.P99", "SLOSnapshot.P999"},
		read: func(sc *scrape) []sample {
			q := sc.SLOSnapshot
			return []sample{{labels: []string{"0.5"}, v: float64(q.P50) / 1e9}, {labels: []string{"0.9"}, v: float64(q.P90) / 1e9},
				{labels: []string{"0.99"}, v: float64(q.P99) / 1e9}, {labels: []string{"0.999"}, v: float64(q.P999) / 1e9}}
		}},
	row("gauge", "pardict_slo_latency_mean_seconds", "SLOSnapshot.MeanNs", "Windowed mean matching latency."),
	row("gauge", "pardict_slo_burn_rate", "SLOSnapshot.BurnRate", "Error-budget burn rate ((breach fraction)/(1-objective)); >1 violates the SLO."),

	row("gauge", "pardict_trace_sample_every", "TraceStats.SampleEvery", "Trace sampling rate (1-in-k requests; 0 = disabled)."),
	row("counter", "pardict_trace_started_total", "TraceStats.Started", "Request traces begun (sampled in)."),
	row("counter", "pardict_trace_finished_total", "TraceStats.Finished", "Request traces finished and retained or discarded."),
	row("counter", "pardict_trace_sampled_out_total", "TraceStats.SampledOut", "Requests skipped by trace sampling."),
	row("gauge", "pardict_trace_retained", "TraceStats.Retained", "Traces currently held in the slowest-N reservoir."),

	row("counter", "pardict_scan_timeouts_total", "Server.Timeouts", "Scans aborted by the per-request deadline (HTTP 504)."),
	row("counter", "pardict_scan_cancels_total", "Server.Cancels", "Scans aborted by client disconnect."),
	row("counter", "pardict_scan_errors_total", "Server.Errors", "Scans failed with a genuine engine error (HTTP 500)."),
	row("counter", "pardict_engine_work_total", "Server.EngineWork", "Accumulated PRAM work (element operations) of completed matches."),
	row("counter", "pardict_engine_depth_total", "Server.EngineDepth", "Accumulated PRAM depth (dependent parallel phases) of completed matches."),
	row("counter", "pardict_texts_scanned_total", "Server.Texts", "Texts matched (each batch entry counts once)."),
	row("counter", "pardict_bytes_scanned_total", "Server.Bytes", "Text bytes matched."),

	{name: "pardict_dictionary_info", typ: "gauge", help: "Dictionary shape (value is always 1).",
		labels: []string{"engine"}, read: func(*scrape) []sample { return info("sharded") }},
	row("gauge", "pardict_dictionary_patterns", "ShardStats.Patterns", "Live pattern count."),
	row("gauge", "pardict_dictionary_max_len", "ShardStats.MaxLen", "Longest live pattern length m (high-water)."),
	row("gauge", "pardict_dictionary_bytes", "ShardStats.Size", "Total live pattern size M."),

	row("gauge", "pardict_shard_count", "ShardStats.Shards", "Dictionary partition count S."),
	row("gauge", "pardict_shard_pending_ops", "ShardStats.PendingOps", "Mutation-log records awaiting reconciliation, all shards."),
	row("gauge", "pardict_shard_pending_bytes", "ShardStats.PendingBytes", "Encoded pattern bytes in unreconciled log records."),
	row("gauge", "pardict_shard_epoch", "ShardStats.Epoch", "Max shard snapshot generation."),
	row("gauge", "pardict_shard_pinned_snapshots", "ShardStats.PinnedSnapshots", "Scans currently holding shard snapshots pinned."),
	row("counter", "pardict_shard_snapshot_swaps_total", "ShardStats.SnapshotSwaps", "Snapshot publishes (rebuilds and reloads)."),
	row("counter", "pardict_shard_rebuilds_total", "ShardStats.Rebuilds", "Background engine recompiles completed."),
	row("counter", "pardict_shard_rebuild_errors_total", "ShardStats.RebuildErrors", "Background engine recompiles failed."),
	row("counter", "pardict_shard_reconcile_work_total", "ShardStats.ReconcileWork", "Accumulated PRAM work of background rebuilds."),
	row("counter", "pardict_shard_reconcile_depth_total", "ShardStats.ReconcileDepth", "Accumulated PRAM depth of background rebuilds."),
	row("histogram", "pardict_shard_rebuild_seconds", "ShardMetrics.RebuildNs", "Wall time per background shard rebuild (process-wide)."),

	{name: "pardict_shard_write_phase", typ: "gauge",
		help:   "Mutation-coordination state: requested mode and operating phase (value is always 1).",
		labels: []string{"mode", "phase"}, from: []string{"ShardStats.WriteMode", "ShardStats.WritePhase"},
		read: func(sc *scrape) []sample { return info(sc.ShardStats.WriteMode, sc.ShardStats.WritePhase) }},
	{name: "pardict_shard_phase_split", typ: "gauge",
		help:    "1 while the split (private-log) write phase is operating (derived from pardict_shard_write_phase).",
		derived: "ShardStats.WritePhase", read: func(sc *scrape) []sample {
			if sc.ShardStats.WritePhase == "split" {
				return []sample{{v: 1}}
			}
			return []sample{{v: 0}}
		}},
	row("counter", "pardict_shard_phase_switches_total", "ShardStats.PhaseSwitches", "Joined-split write-phase transitions."),
	row("counter", "pardict_shard_joined_writes_total", "ShardStats.JoinedWrites", "Mutations through the locked per-shard path."),
	row("counter", "pardict_shard_split_writes_total", "ShardStats.SplitWrites", "Mutations appended to split-phase private logs."),
	row("gauge", "pardict_shard_split_pending_ops", "ShardStats.SplitPendingOps", "Private-log records accepted but not yet merged."),
	row("counter", "pardict_shard_merges_total", "ShardStats.Merges", "Private-log merge passes completed."),
	row("counter", "pardict_shard_merged_ops_total", "ShardStats.MergedOps", "Private-log records folded into shard overlays."),
	row("histogram", "pardict_shard_merge_seconds", "ShardMetrics.MergeNs", "Wall time per private-log merge pass (process-wide)."),

	row("gauge", "pardict_stream_sessions", "StreamServerStats.Sessions", "Open multiplexed streams."),
	row("gauge", "pardict_stream_generation", "Tier.Generation", "Dictionary mutations observed by the streaming tier."),
	row("counter", "pardict_stream_creates_total", "StreamServerStats.Opened", "Streams opened over the tier's lifetime."),
	row("counter", "pardict_stream_closes_total", "StreamServerStats.Closed", "Streams fully closed (tail flushed)."),
	row("counter", "pardict_stream_evictions_total", "Tier.Evictions", "Streams evicted for idleness."),
	row("counter", "pardict_stream_events_dropped_total", "Tier.EventsDropped", "Match events dropped on full per-stream buffers."),
	row("counter", "pardict_stream_feeds_total", "StreamServerStats.Feeds", "Chunks accepted into stream queues."),
	row("counter", "pardict_stream_fed_bytes_total", "StreamServerStats.FedBytes", "Bytes accepted into stream queues."),
	row("counter", "pardict_stream_chunks_total", "StreamServerStats.Chunks", "Chunks scanned."),
	row("counter", "pardict_stream_batches_total", "StreamServerStats.Batches", "Batched scan phases executed."),
	row("counter", "pardict_stream_batch_streams_total", "StreamServerStats.BatchStreams", "Sum of streams per batch."),
	row("counter", "pardict_stream_batch_bytes_total", "StreamServerStats.BatchBytes", "Bytes scanned across batches."),
	row("histogram", "pardict_stream_batch_size", "StreamServerStats.BatchSize", "Streams per batched scan phase."),
	row("gauge", "pardict_stream_queued_bytes", "StreamServerStats.QueuedBytes", "Bytes queued awaiting a scan phase."),
	row("gauge", "pardict_stream_carry_bytes", "StreamServerStats.CarryBytes", "Hold-back bytes across open sessions."),
	row("histogram", "pardict_stream_latency_seconds", "StreamServerStats.Latency", "Chunk accept-to-scan-complete latency."),

	row("counter", "pardict_lz_phrases_parsed_total", "LZStats.Phrases", "LZ phrases emitted by Compress."),
	row("counter", "pardict_lz_windows_scanned_total", "LZStats.WindowsScanned", "Phrase-boundary window segments scanned by MatchCompressed."),
	row("counter", "pardict_lz_window_bytes_total", "LZStats.WindowBytes", "Positions handed to the engine inside window segments (with lookahead)."),
	row("counter", "pardict_lz_interior_translated_total", "LZStats.InteriorTranslated", "Positions resolved by occurrence translation instead of a scan."),
	row("counter", "pardict_lz_bytes_skipped_total", "LZStats.BytesSkipped", "Decoded positions MatchCompressed never scanned."),

	row("counter", "pardict_scheduler_phases_total", "SchedulerStats.Phases", "Parallel phases issued (including inline short phases)."),
	row("counter", "pardict_scheduler_pooled_phases_total", "SchedulerStats.PooledPhases", "Phases fanned out to the worker pool."),
	row("counter", "pardict_scheduler_chunks_total", "SchedulerStats.Chunks", "Grain-sized chunks executed by pooled phases."),
	row("counter", "pardict_scheduler_steals_total", "SchedulerStats.Steals", "Chunks claimed outside the claimant's own span."),
	row("counter", "pardict_scheduler_parks_total", "SchedulerStats.Parks", "Worker park events between phases."),
	row("counter", "pardict_scheduler_unparks_total", "SchedulerStats.Unparks", "Worker wake events."),
	row("counter", "pardict_scheduler_grain_sum", "SchedulerStats.GrainSum", "Sum of per-phase chosen grains (divide by phases for the mean)."),
	row("counter", "pardict_scheduler_queue_sum", "SchedulerStats.QueueSum", "Sum of active-phase occupancy samples at submit."),
	row("gauge", "pardict_scheduler_queue_max", "SchedulerStats.QueueMax", "Peak concurrently active phases."),
	row("counter", "pardict_scheduler_prefilter_scanned_total", "SchedulerStats.PrefilterScanned", "Text positions examined by the prefilter."),
	row("counter", "pardict_scheduler_prefilter_skipped_total", "SchedulerStats.PrefilterSkipped", "Text positions the prefilter screened out before the cascade."),
}

// writeProm renders the table in the Prometheus text exposition format, by
// hand: the format is a few line shapes, and a client library would be the
// module's first dependency.
func (sc *scrape) writeProm(w io.Writer) {
	for _, r := range table {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", r.name, r.help, r.name, r.typ)
		for _, x := range r.samples(sc) {
			if h := x.h; h != nil {
				cum := cumulative(h)
				for i, b := range h.Bounds {
					fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", r.name, float64(b)/r.unit(), cum[i])
				}
				fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
					r.name, cum[len(h.Bounds)], r.name, float64(h.Sum)/r.unit(), r.name, h.Count)
				continue
			}
			labels := make([]string, len(x.labels))
			for i, v := range x.labels {
				labels[i] = fmt.Sprintf("%s=\"%s\"", r.labels[i], escapeLabel(v))
			}
			name := r.name
			if len(labels) > 0 {
				name += "{" + strings.Join(labels, ",") + "}"
			}
			fmt.Fprintf(w, "%s %s\n", name, strconv.FormatFloat(x.v, 'f', -1, 64))
		}
	}
}

// vars renders the table as the "pardict" object of /debug/vars, keyed by
// series name in the
// same units as /metrics. A labeled series becomes an object keyed by its
// label values joined with ","; a histogram becomes its count, sum and
// cumulative buckets keyed by upper bound.
func (sc *scrape) vars() map[string]any {
	out := make(map[string]any, len(table))
	for _, r := range table {
		vals := map[string]any{}
		for _, x := range r.samples(sc) {
			var v any = x.v
			if h := x.h; h != nil {
				cum := cumulative(h)
				buckets := map[string]int64{"+Inf": cum[len(h.Bounds)]}
				for i, b := range h.Bounds {
					buckets[fmt.Sprintf("%g", float64(b)/r.unit())] = cum[i]
				}
				v = map[string]any{"count": h.Count, "sum": float64(h.Sum) / r.unit(), "buckets": buckets}
			}
			vals[strings.Join(x.labels, ",")] = v
		}
		out[r.name] = vals
		if r.labels == nil {
			out[r.name] = vals[""]
		}
	}
	return out
}

// escapeLabel escapes a label value per the text exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// buildVersion resolves the module version recorded in the binary ("dev" for
// plain `go build` of a working tree).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return httpError(w, "GET required", http.StatusMethodNotAllowed)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.scrape().writeProm(w)
	return http.StatusOK
}

// handleVars serves Go's expvar set (memstats, cmdline) with the table under
// "pardict".
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) int {
	vars := map[string]any{"pardict": s.scrape().vars()}
	expvar.Do(func(kv expvar.KeyValue) { vars[kv.Key] = json.RawMessage(kv.Value.String()) })
	return writeJSON(w, http.StatusOK, vars)
}
