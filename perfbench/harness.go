package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pardict"
	"pardict/internal/shard"
	"pardict/internal/trace"
)

// procs pins GOMAXPROCS and the pool width. The benchmark host has two CPUs,
// and no workload runs more than two client goroutines.
const procs = 2

// An untraced window runs as segments segments of equal length. Before each
// one the clients stop for a break that times setupPerBreak set-up builds,
// then the workload runs rewarm unmeasured to get back to its steady state.
// Spreading the builds over the run, rather than timing them all before it,
// lets set-up time see the same stretch of machine time as every other
// metric, and each rate and quantile is the median of its segment values, so
// one slow stretch of a shared host moves it less.
const (
	segments      = 6
	setupPerBreak = 4
	rewarm        = 100 * time.Millisecond
)

// warmup is how long every workload runs before its measured window, so pool
// workers, slab pools and lazily built tables exist before timing starts.
const warmup = 500 * time.Millisecond

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansOut string // "" or "-": do not write spans
}

type benchWorkload struct {
	name string
	run  func(b *bench) error
}

var workloads = []benchWorkload{
	{"scan-bulk", runScanBulk},
	{"serve-read", runServeRead},
	{"write-storm", runWriteStorm},
	{"stream-fanout", runStreamFanout},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

type metricDef struct{ name, unit string }

// e2eMetrics are printed by every workload with --trace 0. An operation is
// the workload's request: a 1 MiB scan (scan-bulk), a 4 KiB scan
// (serve-read), a toggle, scan or probe (write-storm), a fed chunk
// (stream-fanout). README.md defines each metric per workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"mem_mb", "MiB"},
	{"mb_per_s", "MB/s"},
	{"scan_qps", "1/s"},
	{"ops_qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"visible_ms", "ms"},
}

// layerMetrics are printed by every workload with --trace 1. A layer the
// workload does not exercise reads 0; checkIsolation asserts which.
var layerMetrics = []metricDef{
	{"alpha.encode_ns_per_byte", "ns/B"},
	{"alpha.encode_self_us", "us"},
	{"prefilter.pass_frac", "ratio"},
	{"prefilter.ns_per_byte", "ns/B"},
	{"prefilter.self_ms_per_op", "ms"},
	{"core.work_per_byte", "count/B"},
	{"core.depth", "count"},
	{"core.phase_self_ms_per_op", "ms"},
	{"matches.expand_self_ms_per_op", "ms"},
	{"matches.expand_ns_per_hit", "ns"},
	{"matches.hits_per_mb", "1/MB"},
	{"pram.phases_per_op", "count"},
	{"pram.pooled_frac", "ratio"},
	{"pram.steals_per_phase", "count"},
	{"pram.parks_per_op", "count"},
	{"pram.mean_grain", "count"},
	{"pram.chunk_imbalance", "ratio"},
	{"shard.scatter_self_us", "us"},
	{"shard.base_us", "us"},
	{"shard.overlay_us", "us"},
	{"shard.merge_us", "us"},
	{"shard.overlay_frac", "ratio"},
	{"shard.write_self_us", "us"},
	{"shard.write_p50_us", "us"},
	{"shard.write_qps", "1/s"},
	{"shard.split_frac", "ratio"},
	{"shard.phase_switches", "count"},
	{"shard.merges_per_s", "1/s"},
	{"shard.merged_ops_per_merge", "count"},
	{"shard.merge_ms", "ms"},
	{"shard.pending_ops", "count"},
	{"shard.rebuilds_per_s", "1/s"},
	{"shard.rebuild_ms", "ms"},
	{"streamcore.scan_ns_per_byte", "ns/B"},
	{"stream.streams_per_batch", "count"},
	{"stream.bytes_per_batch", "B"},
	{"stream.feed_self_us", "us"},
	{"stream.wait_ms", "ms"},
	{"stream.scan_self_us", "us"},
	{"stream.feed_block_us", "us"},
	{"stream.carry_bytes", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.op_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"unattributed_frac", "ratio"},
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Fingerprint stamps a result with the machine and inputs it came from.
type Fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PoolProcs  int    `json:"pool_procs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// bench is one workload run: the shared pool, the metrics measured so far,
// the attempted/failed tally and, in a traced run, the layer breakdown.
type bench struct {
	cfg   config
	pool  *pardict.Pool
	e2e   map[string]float64
	layer map[string]float64
	bd    *breakdown

	heapBase  uint64 // live heap before set-up
	attempted atomic.Int64
	failed    atomic.Int64
}

// run executes one workload and assembles its result line.
func run(cfg config) (Result, Fingerprint, error) {
	fp := Fingerprint{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), PoolProcs: procs,
		GoVersion: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT"),
	}
	if fp.Commit == "" {
		fp.Commit = "unknown"
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return Result{}, fp, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	pool := pardict.NewPool(procs)
	defer pool.Close()
	b := &bench{cfg: cfg, pool: pool, e2e: map[string]float64{}, layer: map[string]float64{}}
	if cfg.trace {
		b.bd = newBreakdown()
	}
	if err := w.run(b); err != nil {
		return Result{}, fp, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defs, values := e2eMetrics, b.e2e
	if cfg.trace {
		if err := b.finishBreakdown(); err != nil {
			return Result{}, fp, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		b.checkIsolation()
		if cfg.spansOut != "" && cfg.spansOut != "-" {
			if err := b.bd.write(cfg.spansOut, fp, b.layer); err != nil {
				return Result{}, fp, err
			}
		}
		defs, values = layerMetrics, b.layer
	}
	res := Result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: map[string]Metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !cfg.trace {
			return Result{}, fp, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Result{}, fp, fmt.Errorf("%s: metric %s is %v", cfg.workload, d.name, v)
		}
		res.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, fp, nil
}

// fail counts n failed operations and says why on standard error.
func (b *bench) fail(n int64, format string, args ...any) {
	b.failed.Add(n)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d failed: %s\n", b.cfg.workload, n, fmt.Sprintf(format, args...))
}

// window is the measured run length; a traced run spends half of it untraced
// and half traced.
func (b *bench) window() time.Duration {
	d := time.Duration(b.cfg.seconds * float64(time.Second))
	if b.cfg.trace {
		d /= 2
	}
	return d
}

// settle forces a steady heap: the second collection also empties the
// sync.Pool victim caches the first one filled.
func settle() {
	runtime.GC()
	runtime.GC()
}

func heapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// markHeap records the live heap before set-up — the generated inputs —
// after a forced collection.
func (b *bench) markHeap() {
	settle()
	b.heapBase = heapBytes()
}

// setMem records mem_mb: the live heap after set-up and warm-up, minus the
// heap markHeap recorded. Called with the clients stopped, it reads the
// settled heap three times, 50 ms apart, and keeps the median: a single
// reading lands inside a background shard rebuild often enough to move
// write-storm's figure by a megabyte. It is read once, before the window,
// because the benchmark's own records of the window grow the heap.
func (b *bench) setMem() {
	var xs []float64
	for i := 0; i < 3; i++ {
		time.Sleep(50 * time.Millisecond)
		settle()
		xs = append(xs, float64(heapBytes())-float64(b.heapBase))
	}
	b.e2e["mem_mb"] = quantile(xs, 0.5) / (1 << 20)
}

// setupTimer times a workload's library construction calls, and only them.
// Every build runs on a settled heap with collection paused: on a freshly
// settled small heap, whether a collection happens to start inside a
// few-millisecond build is a coin toss that made set-up times bimodal. The
// allocation itself still shows in mem_mb and runtime.allocs_per_op. The
// first, cold build is the one the workload runs on and is not timed;
// setup_s is the median of the warm builds sampled in the breaks — the
// rebuild a live server pays on Reload. build must not touch state the
// running workload uses; discard releases a sampled build.
type setupTimer[T any] struct {
	build   func() (T, error)
	discard func(T)
	times   []float64
}

func (s *setupTimer[T]) once() (T, float64, error) {
	settle()
	gc := debug.SetGCPercent(-1)
	t0 := time.Now()
	v, err := s.build()
	d := time.Since(t0).Seconds()
	debug.SetGCPercent(gc)
	return v, d, err
}

// first makes the build the workload runs on.
func (s *setupTimer[T]) first() (T, error) {
	v, _, err := s.once()
	return v, err
}

// sample times n more builds, releasing each.
func (s *setupTimer[T]) sample(n int) error {
	for i := 0; i < n; i++ {
		v, d, err := s.once()
		if err != nil {
			return err
		}
		s.discard(v)
		s.times = append(s.times, d)
	}
	return nil
}

// segment is one measured stretch of an untraced window.
type segment struct {
	t  tally
	el time.Duration
}

// segmented measures the untraced window as segments segments. In the break
// before each it times setupPerBreak builds with sample, then runs warm
// unmeasured and calls measure, which clears the workload's tallies, runs it
// for the given time and returns what it recorded and the elapsed wall time.
func (b *bench) segmented(sample func(int) error, warm func(), measure func(time.Duration) segment) ([]segment, error) {
	segs := make([]segment, segments)
	for i := range segs {
		if err := sample(setupPerBreak); err != nil {
			return nil, err
		}
		warm()
		segs[i] = measure(b.window() / segments)
	}
	return segs, nil
}

// medianOf is the median over segments of f.
func medianOf(segs []segment, f func(segment) float64) float64 {
	xs := make([]float64, len(segs))
	for i, s := range segs {
		xs[i] = f(s)
	}
	return quantile(xs, 0.5)
}

// closedLoop runs one goroutine per client, each calling op back to back
// until d has passed, and returns the elapsed wall time. tick, when not nil,
// runs on the calling goroutine every sampleTick while the clients run.
func closedLoop(clients int, d time.Duration, op func(client int), tick func()) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				op(c)
			}
		}(c)
	}
	for {
		left := d - time.Since(t0)
		if left <= 0 {
			break
		}
		if tick == nil || left < sampleTick {
			time.Sleep(left)
			continue
		}
		time.Sleep(sampleTick)
		tick()
	}
	stop.Store(true)
	wg.Wait()
	return time.Since(t0)
}

// sampleTick spaces the gauge samples closedLoop's tick takes.
const sampleTick = 50 * time.Millisecond

// tally is one client's record of one measured window.
type tally struct {
	ops, scans, writes int64
	bytes              int64     // text bytes matched (scans) or fed (chunks)
	lat                []float64 // ms; the workload's latency population
	visible            []float64 // ms from Insert return to the first scan reporting it
	work, depth        float64   // Σ counted Work and Depth over scans
}

func sumTallies(ts []*tally) tally {
	var s tally
	for _, t := range ts {
		s.ops += t.ops
		s.scans += t.scans
		s.writes += t.writes
		s.bytes += t.bytes
		s.lat = append(s.lat, t.lat...)
		s.visible = append(s.visible, t.visible...)
		s.work += t.work
		s.depth += t.depth
	}
	return s
}

// setE2E records the end-to-end metrics of an untraced window, each the
// median of its segment values, and setup_s. The latency population is the
// workload's own (t.lat); a result is visible as soon as the call returns
// unless the workload sets visible_ms itself.
func (b *bench) setE2E(segs []segment, setupTimes []float64) {
	rate := func(n func(tally) int64) float64 {
		return medianOf(segs, func(s segment) float64 { return float64(n(s.t)) / s.el.Seconds() })
	}
	b.e2e["setup_s"] = quantile(setupTimes, 0.5)
	b.e2e["mb_per_s"] = rate(func(t tally) int64 { return t.bytes }) / 1e6
	b.e2e["scan_qps"] = rate(func(t tally) int64 { return t.scans })
	b.e2e["ops_qps"] = rate(func(t tally) int64 { return t.ops })
	lat := func(q float64) float64 {
		return medianOf(segs, func(s segment) float64 { return quantile(s.t.lat, q) })
	}
	b.e2e["p50_ms"] = lat(0.50)
	b.e2e["p99_ms"] = lat(0.99)
	b.e2e["visible_ms"] = b.e2e["p50_ms"]
	n := 0
	for _, s := range segs {
		n += len(s.t.lat)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d latency samples in %d segments, %d set-up builds\n", b.cfg.workload, n, len(segs), len(setupTimes))
}

// setScanLayers records the counted-cost metrics of a window's scans.
func (b *bench) setScanLayers(t tally) {
	b.layer["core.work_per_byte"] = ratio(t.work, float64(t.bytes))
	b.layer["core.depth"] = ratio(t.depth, float64(t.scans))
}

// quantile returns the q-quantile of xs by linear interpolation (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// mix hashes one reported match; digests sum it, so they do not depend on
// the order in which matches are reported.
func mix(pos int64, pat int) uint64 {
	x := uint64(pos)*0x9E3779B97F4A7C15 ^ uint64(pat+1)*0xC2B2AE3D27D4EB4F
	x ^= x >> 29
	return x * 0xBF58476D1CE4E5B9
}

// counters is a snapshot of the counters the program exports that a window
// takes deltas of.
type counters struct {
	at       time.Time
	sched    pardict.SchedulerStats
	chunks   []int64
	mallocs  uint64
	gcCPU    float64
	totalCPU float64
	shard    shard.Metrics
}

func (b *bench) snap() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	c := counters{
		at: time.Now(), sched: b.pool.Stats(), chunks: b.pool.WorkerChunks(),
		mallocs: ms.Mallocs, shard: shard.GlobalMetrics(),
	}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

// setCounterLayers records the per-layer metrics that come from counter
// deltas over an untraced window of ops operations.
func (b *bench) setCounterLayers(a, z counters, ops float64) {
	d := func(x, y int64) float64 { return float64(y - x) }
	phases := d(a.sched.Phases, z.sched.Phases)
	pooled := d(a.sched.PooledPhases, z.sched.PooledPhases)
	b.layer["pram.phases_per_op"] = ratio(phases, ops)
	b.layer["pram.pooled_frac"] = ratio(pooled, phases)
	b.layer["pram.steals_per_phase"] = ratio(d(a.sched.Steals, z.sched.Steals), pooled)
	b.layer["pram.parks_per_op"] = ratio(d(a.sched.Parks, z.sched.Parks), ops)
	b.layer["pram.mean_grain"] = ratio(d(a.sched.GrainSum, z.sched.GrainSum), phases)
	var maxC, sumC float64
	for i := range z.chunks {
		var prev int64
		if i < len(a.chunks) {
			prev = a.chunks[i]
		}
		v := float64(z.chunks[i] - prev)
		sumC += v
		maxC = math.Max(maxC, v)
	}
	if len(z.chunks) > 0 {
		b.layer["pram.chunk_imbalance"] = ratio(maxC, sumC/float64(len(z.chunks)))
	}
	if scanned := d(a.sched.PrefilterScanned, z.sched.PrefilterScanned); scanned > 0 {
		b.layer["prefilter.pass_frac"] = 1 - d(a.sched.PrefilterSkipped, z.sched.PrefilterSkipped)/scanned
	}
	b.layer["runtime.allocs_per_op"] = ratio(float64(z.mallocs-a.mallocs), ops)
	b.layer["runtime.gc_cpu_frac"] = ratio(z.gcCPU-a.gcCPU, z.totalCPU-a.totalCPU)

	secs := z.at.Sub(a.at).Seconds()
	merges := d(a.shard.Merges, z.shard.Merges)
	b.layer["shard.merges_per_s"] = ratio(merges, secs)
	b.layer["shard.merged_ops_per_merge"] = ratio(d(a.shard.MergedOps, z.shard.MergedOps), merges)
	b.layer["shard.merge_ms"] = ratio(d(a.shard.MergeNs.Sum, z.shard.MergeNs.Sum), d(a.shard.MergeNs.Count, z.shard.MergeNs.Count)) / 1e6
	b.layer["shard.rebuilds_per_s"] = ratio(d(a.shard.Rebuilds, z.shard.Rebuilds), secs)
	b.layer["shard.rebuild_ms"] = ratio(d(a.shard.RebuildNs.Sum, z.shard.RebuildNs.Sum), d(a.shard.RebuildNs.Count, z.shard.RebuildNs.Count)) / 1e6
	b.layer["shard.phase_switches"] = d(a.shard.PhaseSwitches, z.shard.PhaseSwitches)
	joined, split := d(a.shard.JoinedWrites, z.shard.JoinedWrites), d(a.shard.SplitWrites, z.shard.SplitWrites)
	b.layer["shard.split_frac"] = ratio(split, joined+split)
}

// setOverhead records trace.overhead_frac: the closed-loop throughput lost
// when the same operations run traced.
func (b *bench) setOverhead(untraced, traced float64) {
	b.layer["trace.overhead_frac"] = 1 - ratio(traced, untraced)
}

// tracer records one client's operations through private trace recorders,
// one per span budget, so a trace just finished is the newest in its
// recorder and can be read back with Recent(1).
type tracer struct {
	recs []*trace.Recorder
}

func newTracer(spanBudgets ...int) *tracer {
	t := &tracer{}
	for _, n := range spanBudgets {
		r := trace.NewRecorder(1, 1)
		r.Configure(1, 1, n)
		t.recs = append(t.recs, r)
	}
	return t
}

// start opens an operation's trace on the recorder of the given budget and
// returns a context that carries the trace into the library.
func (t *tracer) start(budget int, name string) (*trace.T, context.Context) {
	tr := t.recs[budget].Start(name)
	return tr, trace.NewContext(context.Background(), tr)
}

// finish closes the trace and returns it rendered.
func (t *tracer) finish(budget int, tr *trace.T) trace.Info {
	tr.Finish()
	return t.recs[budget].Recent(1)[0]
}
