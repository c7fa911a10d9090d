package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pardict"
	"pardict/internal/benchrow"
	"pardict/internal/shard"
)

// stormVariant is one way of absorbing a mutation storm while readers scan:
// the sharded matcher in a forced (or auto) write phase, or the dynamic
// matcher behind an RWMutex.
type stormVariant struct {
	name      string
	scan      func(text []byte)
	mutate    func(insert bool, p []byte)
	drain     func()                  // quiesce all buffered writes
	matchLens func(text []byte) []int // per-position longest-match lengths
	stats     func(m map[string]float64)
	close     func()
}

func shardedStormVariant(base [][]byte, shards int, phase pardict.WritePhase) *stormVariant {
	m, err := pardict.NewShardedMatcher(
		pardict.WithShards(shards), pardict.WithWritePhase(phase))
	check(err)
	check(m.Reload(base))
	return &stormVariant{
		name: "sharded-" + phase.String(),
		scan: func(text []byte) { m.Match(text) },
		mutate: func(insert bool, p []byte) {
			if insert {
				_, err := m.Insert(p)
				check(err)
			} else {
				check(m.Delete(p))
			}
		},
		drain: func() { m.SetWritePhase(pardict.WritePhaseJoined) },
		matchLens: func(text []byte) []int {
			r := m.Match(text)
			out := make([]int, len(text))
			for j := range out {
				out[j] = r.MatchLen(j)
			}
			return out
		},
		stats: func(out map[string]float64) {
			st := m.Stats()
			out["phase_switches"] = float64(st.PhaseSwitches)
			out["merges"] = float64(st.Merges)
			out["merged_ops"] = float64(st.MergedOps)
		},
		close: m.Close,
	}
}

func dynamicStormVariant(base [][]byte) *stormVariant {
	m, err := pardict.NewDynamicMatcher()
	check(err)
	var mu sync.RWMutex
	plens := map[pardict.PatternID]int{}
	ins := func(p []byte) {
		id, err := m.Insert(p)
		check(err)
		plens[id] = len(p)
	}
	for _, p := range base {
		ins(p)
	}
	return &stormVariant{
		name: "dynamic-rwmutex",
		scan: func(text []byte) {
			mu.RLock()
			m.Match(text)
			mu.RUnlock()
		},
		mutate: func(insert bool, p []byte) {
			mu.Lock()
			defer mu.Unlock()
			if insert {
				ins(p)
			} else {
				check(m.Delete(p))
			}
		},
		drain: func() {},
		matchLens: func(text []byte) []int {
			mu.RLock()
			defer mu.RUnlock()
			r := m.Match(text)
			out := make([]int, len(text))
			for j := range out {
				if id, ok := r.Longest(j); ok {
					out[j] = plens[id]
				}
			}
			return out
		},
		stats: func(map[string]float64) {}, // no phases to report
		close: func() {},
	}
}

// stormKeys is one writer's disjoint toggle ring plus its exact liveness
// tracking — since no other writer touches these keys and merges preserve
// per-goroutine program order, `live` is ground truth at quiesce.
type stormKeys struct {
	keys [][]byte
	live []bool
}

// uniformKeys gives writer w a ring of keys spread over all shards;
// hotShardStormKeys filters the same namespace so every key of every writer
// lands on shard 0 of nShards — the adversarial all-writers-one-shard storm.
func uniformKeys(w, count int) *stormKeys {
	ks := make([][]byte, count)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("storm-w%d-%05d", w, i))
	}
	return &stormKeys{keys: ks, live: make([]bool, count)}
}

func hotShardStormKeys(w, count, nShards int) *stormKeys {
	ks := make([][]byte, 0, count)
	for i := 0; len(ks) < count; i++ {
		k := []byte(fmt.Sprintf("storm-w%d-%05d", w, i))
		if shard.ShardOf(k, nShards) == 0 {
			ks = append(ks, k)
		}
	}
	return &stormKeys{keys: ks, live: make([]bool, len(ks))}
}

// e20: the write-storm sweep behind the phase-reconciled write path. Joined
// writes pay an O(pending) overlay refresh under the shard lock on every
// mutation; split writes are O(1) appends to per-core private logs that a
// background merge folds in (last-writer-wins) every couple of milliseconds.
// The sweep drives 10–100x the E14 write rates through both phases (plus
// auto, which must track split) and a dynamic-RWMutex baseline, in two
// skews: uniform across shards, and the adversarial hot-shard storm where
// every writer's keys hash to one shard, which collapses joined writes onto
// a single mutex but leaves per-core logs untouched. After each point the
// matcher is quiesced (rejoin drains the private logs) and its Match output
// is compared position-by-position against a dynamic oracle built from the
// writers' exact liveness tracking — throughput that loses writes does not
// count.
func e20() {
	header("E20", "Write storms: split-phase per-core logs vs joined writes vs RWMutex, uniform and hot-shard skew")

	const nShards = 8
	const textLen = 2048
	const ringLen = 192
	baseDict := scale(512, 128)
	dur := time.Duration(scale(int(400*time.Millisecond), int(150*time.Millisecond)))
	readers := 2

	base := make([][]byte, baseDict)
	for i := range base {
		base[i] = []byte(fmt.Sprintf("base-%05d-%05d", i, i*7919%99991))
	}
	text := make([]byte, textLen)
	for i := range text {
		text[i] = byte('a' + (i*131+i/7)%26)
	}
	for i := 0; i+20 < textLen; i += 256 {
		copy(text[i:], base[i/256%baseDict])
	}

	f := record("E20", map[string]any{
		"shards": nShards, "base_dict": baseDict, "text_len": textLen,
		"duration_ms": dur.Milliseconds(), "readers": readers,
	})
	fmt.Printf("%16s %9s %7s %12s %10s %10s %9s %7s %8s %6s\n",
		"arm", "skew", "writers", "writes/s", "wp50 µs", "wp99 µs", "scans/s", "merges", "switches", "oracle")

	writerCounts := []int{1, 4, 8}
	arms := []struct {
		name string
		mk   func() *stormVariant
	}{
		{"sharded-joined", func() *stormVariant { return shardedStormVariant(base, nShards, pardict.WritePhaseJoined) }},
		{"sharded-split", func() *stormVariant { return shardedStormVariant(base, nShards, pardict.WritePhaseSplit) }},
		{"sharded-auto", func() *stormVariant { return shardedStormVariant(base, nShards, pardict.WritePhaseAuto) }},
		{"dynamic-rwmutex", func() *stormVariant { return dynamicStormVariant(base) }},
	}
	for _, skew := range []string{"uniform", "hotshard"} {
		for _, nw := range writerCounts {
			for _, arm := range arms {
				if arm.name == "dynamic-rwmutex" && skew != "uniform" {
					continue // no shards: skew is meaningless
				}
				ws := make([]*stormKeys, nw)
				for w := range ws {
					if skew == "hotshard" {
						ws[w] = hotShardStormKeys(w, ringLen, nShards)
					} else {
						ws[w] = uniformKeys(w, ringLen)
					}
				}
				v := arm.mk()
				m := runStormPoint(v, text, readers, ws, dur)
				m["oracle_ok"] = 0
				if stormOracleOK(v, base, ws) {
					m["oracle_ok"] = 1
				}
				v.close()
				f.Add(arm.name, benchrow.Params{"skew": skew, "writers": nw}, runtime.GOMAXPROCS(0), 1, m)
				row("%16s %9s %7d %12.0f %10.2f %10.2f %9.0f %7.0f %8.0f %6v",
					arm.name, skew, nw, m["writes_per_sec"], m["write_p50_us"], m["write_p99_us"],
					m["scans_per_sec"], m["merges"], m["phase_switches"], m["oracle_ok"] == 1)
			}
		}
	}
	fmt.Println("shape check: split writes/s stays well above joined at high write rates — the")
	fmt.Println("per-core append replaces the per-write overlay refresh — and, unlike joined,")
	fmt.Println("it barely degrades when every key hashes to one shard (the private logs never")
	fmt.Println("see the shard lock). auto must track split under storm; every arm's quiesced")
	fmt.Println("state must equal the oracle built from the writers' own liveness tracking.")
}

// runStormPoint drives nw closed-loop toggle writers (each on its own
// disjoint key ring) and `readers` scanning goroutines for dur. Per-write
// latency is sampled on every 8th write — a time.Now() pair costs a good
// fraction of a split-phase append, so timing every op would bias the very
// throughput ratio the sweep exists to measure.
func runStormPoint(v *stormVariant, text []byte, readers int, ws []*stormKeys, dur time.Duration) map[string]float64 {
	var stop atomic.Bool
	var scans, writes atomic.Int64
	lats := make([][]time.Duration, len(ws))
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v.scan(text)
				scans.Add(1)
			}
		}()
	}
	for w, keys := range ws {
		wg.Add(1)
		go func(w int, keys *stormKeys) {
			defer wg.Done()
			var own []time.Duration
			n := int64(0)
			for i := 0; !stop.Load(); i++ {
				k := i % len(keys.keys)
				if i%8 == 0 {
					t0 := time.Now()
					v.mutate(!keys.live[k], keys.keys[k])
					own = append(own, time.Since(t0))
				} else {
					v.mutate(!keys.live[k], keys.keys[k])
				}
				keys.live[k] = !keys.live[k]
				n++
			}
			writes.Add(n)
			lats[w] = own
		}(w, keys)
	}
	t0 := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)

	pct := percentilesUs(lats)
	m := map[string]float64{
		"writes":         float64(writes.Load()),
		"writes_per_sec": float64(writes.Load()) / elapsed.Seconds(),
		"write_p50_us":   pct(0.50),
		"write_p99_us":   pct(0.99),
		"scans":          float64(scans.Load()),
		"scans_per_sec":  float64(scans.Load()) / elapsed.Seconds(),
	}
	v.stats(m)
	return m
}

// stormOracleOK quiesces the variant and compares its Match output,
// position by position, against a dynamic matcher compiled from the base
// dictionary plus each writer's tracked-live keys. A single lost or
// resurrected pattern shows up as a length mismatch on a text built from
// the touched keys.
func stormOracleOK(v *stormVariant, base [][]byte, ws []*stormKeys) bool {
	v.drain()
	o, err := pardict.NewDynamicMatcher()
	check(err)
	olens := map[pardict.PatternID]int{}
	var alive, deadKeys [][]byte
	add := func(p []byte) {
		id, err := o.Insert(p)
		check(err)
		olens[id] = len(p)
	}
	for _, p := range base {
		add(p)
	}
	for _, w := range ws {
		for k := range w.keys {
			if w.live[k] {
				add(w.keys[k])
				alive = append(alive, w.keys[k])
			} else {
				deadKeys = append(deadKeys, w.keys[k])
			}
		}
	}
	pool := append(append([][]byte(nil), alive...), deadKeys...)
	pool = append(pool, base[:min(8, len(base))]...)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		var text []byte
		for len(text) < 500 {
			text = append(text, pool[rng.Intn(len(pool))]...)
			for f := rng.Intn(3); f > 0; f-- {
				text = append(text, byte('a'+rng.Intn(3)))
			}
		}
		got := v.matchLens(text)
		want := o.Match(text)
		for j := range text {
			wl := 0
			if id, ok := want.Longest(j); ok {
				wl = olens[id]
			}
			if got[j] != wl {
				return false
			}
		}
	}
	return true
}
