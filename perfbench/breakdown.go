package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"pardict/internal/trace"
)

// Layer attribution of traced operations.
//
// A traced operation is one trace. Its spans come from the library (encode,
// shard, shard.base, shard.overlay, merge, phase, prefilter, stream.wait,
// stream.scan) and from the benchmark, around the public calls it makes
// (matches.expand, shard.insert, shard.delete, feed). Spans carry no parent
// ids, so nesting is inferred: a span's parent is the smallest other span
// whose interval contains it.
//
// Self time is assigned on the wall clock. The operation's interval is cut
// at every span boundary; each piece goes to the innermost open spans (those
// with no open child), split evenly when several run at once, as the shards
// of one scatter do. A piece no span covers is the operation's own time and
// counts as unattributed. The layer self times plus the unattributed
// remainder therefore add up to the operation's traced time, which
// finishBreakdown checks.

const unattributed = "unattributed"

var layers = []string{
	"alpha.encode", "prefilter", "core.phase", "shard.base", "shard.scatter", "shard.overlay",
	"shard.merge", "matches.expand", "shard.write", "stream.feed", "stream.wait", "stream.scan",
	unattributed,
}

var layerIndex = func() map[string]int {
	m := map[string]int{}
	for i, l := range layers {
		m[l] = i
	}
	return m
}()

// spanLayer names the layer a span's self time belongs to. A phase span
// takes the layer of the span it runs inside (see attribute).
var spanLayer = map[string]string{
	"encode":         "alpha.encode",
	"prefilter":      "prefilter",
	"shard":          "shard.scatter",
	"shard.base":     "shard.base",
	"shard.overlay":  "shard.overlay",
	"merge":          "shard.merge",
	"matches.expand": "matches.expand",
	"shard.insert":   "shard.write",
	"shard.delete":   "shard.write",
	"feed":           "stream.feed",
	"stream.wait":    "stream.wait",
	"stream.scan":    "stream.scan",
}

// spanDepth breaks ties between spans with identical intervals: the smaller
// depth is the outer span. Names not listed have depth 1.
var spanDepth = map[string]int{"shard.base": 2, "shard.overlay": 2, "phase": 3, "prefilter": 3}

type span struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_ns"`
	End   float64 `json:"end_ns"`
}

func (s span) len() float64 { return s.End - s.Start }

func depthOf(name string) int {
	if d, ok := spanDepth[name]; ok {
		return d
	}
	return 1
}

// encloses reports whether span j contains span i and is the outer of the
// two.
func encloses(sp []span, j, i int) bool {
	a, b := sp[j], sp[i]
	if a.Start > b.Start || b.End > a.End {
		return false
	}
	if a.len() != b.len() {
		return true
	}
	da, db := depthOf(a.Name), depthOf(b.Name)
	return da < db || (da == db && j < i)
}

// attribute splits one operation of duration dur into per-layer self times
// (indexed like layers). It clips sp to the operation in place.
func attribute(dur float64, sp []span) []float64 {
	self := make([]float64, len(layers))
	n := len(sp)
	for i := range sp {
		sp[i].Start = math.Min(math.Max(sp[i].Start, 0), dur)
		sp[i].End = math.Min(math.Max(sp[i].End, sp[i].Start), dur)
	}
	// Phases and prefilter passes never contain other spans, so only the
	// other spans are parent candidates.
	parent := make([]int, n)
	for i := range sp {
		parent[i] = -1
		for j := range sp {
			if j == i || sp[j].Name == "phase" || sp[j].Name == "prefilter" || !encloses(sp, j, i) {
				continue
			}
			p := parent[i]
			if p < 0 || encloses(sp, p, j) || (!encloses(sp, j, p) && sp[j].len() < sp[p].len()) {
				parent[i] = j
			}
		}
	}
	layer := make([]int, n)
	for i, s := range sp {
		name, ok := spanLayer[s.Name]
		if s.Name == "phase" {
			name, ok = "core.phase", true
			if p := parent[i]; p >= 0 {
				switch sp[p].Name {
				case "merge", "shard.overlay", "shard":
					name = spanLayer[sp[p].Name]
				}
			}
		}
		if !ok {
			name = unattributed
		}
		layer[i] = layerIndex[name]
	}

	type event struct {
		t    float64
		i    int
		open bool
	}
	ev := make([]event, 0, 2*n)
	for i, s := range sp {
		if s.End > s.Start {
			ev = append(ev, event{s.Start, i, true}, event{s.End, i, false})
		}
	}
	sort.Slice(ev, func(a, b int) bool { return ev[a].t < ev[b].t })
	active, kids := make([]bool, n), make([]int, n)
	leafCnt, leaves := make([]int, len(layers)), 0
	un := layerIndex[unattributed]
	prev := 0.0
	credit := func(t float64) {
		if t <= prev {
			return
		}
		dt := t - prev
		prev = t
		if leaves == 0 {
			self[un] += dt
			return
		}
		for l, c := range leafCnt {
			if c > 0 {
				self[l] += dt * float64(c) / float64(leaves)
			}
		}
	}
	leaf := func(i, d int) { leafCnt[layer[i]] += d; leaves += d }
	for _, e := range ev {
		credit(e.t)
		i, p := e.i, parent[e.i]
		if e.open {
			active[i] = true
			if kids[i] == 0 {
				leaf(i, 1)
			}
			if p >= 0 {
				kids[p]++
				if kids[p] == 1 && active[p] {
					leaf(p, -1)
				}
			}
			continue
		}
		if kids[i] == 0 {
			leaf(i, -1)
		}
		active[i] = false
		if p >= 0 {
			kids[p]--
			if kids[p] == 0 && active[p] {
				leaf(p, 1)
			}
		}
	}
	credit(dur)
	return self
}

// keepOps is how many traced operations keep their spans for the span dump;
// the breakdown itself covers every traced operation.
const keepOps = 64

type keptOp struct {
	Name  string  `json:"name"`
	DurNs float64 `json:"dur_ns"`
	Spans []span  `json:"spans"`
}

// breakdown accumulates the attribution of every traced operation.
type breakdown struct {
	mu      sync.Mutex
	ops     int64
	opNs    float64
	self    []float64
	spans   map[string]int64 // spans seen, per name
	hits    float64          // matches expanded inside matches.expand spans
	dropped int64            // spans lost to a full trace span budget
	kept    []keptOp
}

func newBreakdown() *breakdown {
	return &breakdown{self: make([]float64, len(layers)), spans: map[string]int64{}}
}

// add attributes one operation of duration dur (ns) with its spans.
func (bd *breakdown) add(name string, dur float64, sp []span, dropped, hits int64) {
	self := attribute(dur, sp)
	bd.mu.Lock()
	defer bd.mu.Unlock()
	bd.ops++
	bd.opNs += dur
	for l, v := range self {
		bd.self[l] += v
	}
	for _, s := range sp {
		bd.spans[s.Name]++
	}
	bd.hits += float64(hits)
	bd.dropped += dropped
	if len(bd.kept) < keepOps {
		bd.kept = append(bd.kept, keptOp{Name: name, DurNs: dur, Spans: sp})
	}
}

// addTrace adds one rendered trace; its bounds are the operation's.
func (bd *breakdown) addTrace(inf trace.Info, hits int64) {
	sp := make([]span, len(inf.Spans))
	for i, s := range inf.Spans {
		sp[i] = span{Name: s.Name, Start: s.StartUs * 1e3, End: (s.StartUs + s.DurUs) * 1e3}
	}
	bd.add(inf.Name, inf.DurationUs*1e3, sp, inf.DroppedSpans, hits)
}

// finishBreakdown turns the accumulated attribution into per-op layer
// metrics, checks that they reconcile with the traced operation time, and
// reports the table on standard error.
func (b *bench) finishBreakdown() error {
	bd := b.bd
	if bd.ops == 0 {
		return errors.New("the traced window completed no operation")
	}
	var sum float64
	for _, v := range bd.self {
		sum += v
	}
	if math.Abs(sum-bd.opNs) > 1e-6*bd.opNs {
		return fmt.Errorf("layer self times sum to %.0f ns but the traced operations took %.0f ns", sum, bd.opNs)
	}
	if bd.dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans dropped by full trace budgets; their time counts toward their parents\n", b.cfg.workload, bd.dropped)
	}
	ops := float64(bd.ops)
	per := func(layer string, unit float64) float64 { return bd.self[layerIndex[layer]] / ops / unit }
	const us, ms = 1e3, 1e6
	l := b.layer
	l["trace.op_ms"] = bd.opNs / ops / ms
	l["unattributed_frac"] = bd.self[layerIndex[unattributed]] / bd.opNs
	l["alpha.encode_self_us"] = per("alpha.encode", us)
	l["prefilter.self_ms_per_op"] = per("prefilter", ms)
	l["core.phase_self_ms_per_op"] = per("core.phase", ms)
	l["shard.base_us"] = per("shard.base", us)
	l["shard.scatter_self_us"] = per("shard.scatter", us)
	l["shard.overlay_us"] = per("shard.overlay", us)
	l["shard.merge_us"] = per("shard.merge", us)
	l["matches.expand_self_ms_per_op"] = per("matches.expand", ms)
	l["matches.expand_ns_per_hit"] = ratio(bd.self[layerIndex["matches.expand"]], bd.hits)
	l["shard.write_self_us"] = per("shard.write", us)
	l["stream.feed_self_us"] = per("stream.feed", us)
	l["stream.wait_ms"] = per("stream.wait", ms)
	l["stream.scan_self_us"] = per("stream.scan", us)
	l["shard.overlay_frac"] = ratio(float64(bd.spans["shard.overlay"]), float64(bd.spans["shard"]))
	for _, d := range layerMetrics {
		if _, ok := l[d.name]; !ok {
			l[d.name] = 0
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: breakdown of %d traced ops, %.4f ms each:\n", b.cfg.workload, bd.ops, bd.opNs/ops/ms)
	for i, name := range layers {
		if bd.self[i] > 0 {
			fmt.Fprintf(os.Stderr, "  %-16s %10.2f us/op %6.1f%%\n", name, bd.self[i]/ops/us, 100*bd.self[i]/bd.opNs)
		}
	}
	return nil
}

// checkIsolation asserts the workload design README.md promises: each layer
// runs only on the workloads that name it, so a later change has a workload
// on which "no change" is the prediction. A violation counts as a failed
// operation.
func (b *bench) checkIsolation() {
	w, l := b.cfg.workload, b.layer
	expect := func(ok bool, what string) {
		if !ok {
			b.fail(1, "layer isolation: %s", what)
		}
	}
	prefilter := []float64{l["prefilter.pass_frac"], l["prefilter.self_ms_per_op"], l["prefilter.ns_per_byte"]}
	if w == "scan-bulk" {
		expect(!slices.Contains(prefilter, 0), "the prefilter must run on scan-bulk")
	} else {
		expect(slices.Max(prefilter) == 0, "the prefilter must not run outside scan-bulk")
	}
	writePath := l["shard.write_qps"] + l["shard.split_frac"] + l["shard.merges_per_s"] + l["shard.rebuilds_per_s"]
	if w == "write-storm" {
		expect(l["shard.write_qps"] > 0, "write-storm must write")
	} else {
		expect(writePath == 0, "writes, split phase, merges and rebuilds must stay idle outside write-storm")
	}
	if w == "serve-read" {
		expect(l["shard.overlay_frac"] == 0 && l["shard.overlay_us"] == 0, "serve-read must scan clean shards only")
	}
	stream := l["stream.feed_self_us"] + l["stream.wait_ms"] + l["stream.scan_self_us"] + l["streamcore.scan_ns_per_byte"]
	if w == "stream-fanout" {
		expect(stream > 0, "stream spans must appear on stream-fanout")
	} else {
		expect(stream == 0, "stream spans and the streamcore kernel must appear only on stream-fanout")
	}
}

// write dumps the traced run: fingerprint, per-layer metrics, the breakdown
// per op, span counts, and the spans of the first keepOps operations.
func (bd *breakdown) write(path string, fp Fingerprint, layer map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	ops := float64(bd.ops)
	self := map[string]float64{}
	for i, l := range layers {
		self[l] = bd.self[i] / ops
	}
	doc := struct {
		Fingerprint Fingerprint        `json:"fingerprint"`
		Ops         int64              `json:"traced_ops"`
		OpNs        float64            `json:"op_ns"`
		SelfNs      map[string]float64 `json:"self_ns_per_op"`
		Spans       map[string]int64   `json:"spans"`
		Layer       map[string]float64 `json:"per_layer"`
		Kept        []keptOp           `json:"ops"`
	}{fp, bd.ops, bd.opNs / ops, self, bd.spans, layer, bd.kept}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
