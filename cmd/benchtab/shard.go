package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pardict"
	"pardict/internal/benchrow"
)

// serveVariant abstracts one way of serving scans while the dictionary
// mutates: the sharded RCU matcher, a single dynamic matcher behind an
// RWMutex (writers exclude all readers), and the naive
// recompile-the-whole-dictionary-per-mutation baseline.
type serveVariant struct {
	name   string
	shards int // 0 for the non-sharded baselines
	scan   func(text []byte)
	mutate func(insert bool, p []byte)
	close  func()

	// Per-scan PRAM cost, accumulated by scan. Depth is the per-scan
	// critical path: on a machine with P ≥ S processors the scatter-gather
	// fan-out rides free, so flat depth in S is the scaling claim the
	// 1-core wall clock cannot show directly.
	work, depth atomic.Int64
}

func shardedVariant(base [][]byte, shards int) *serveVariant {
	m, err := pardict.NewShardedMatcher(pardict.WithShards(shards))
	check(err)
	check(m.Reload(base))
	v := &serveVariant{
		name:   fmt.Sprintf("sharded-S%d", shards),
		shards: shards,
		mutate: func(insert bool, p []byte) {
			if insert {
				_, err := m.Insert(p)
				check(err)
			} else {
				check(m.Delete(p))
			}
		},
		close: m.Close,
	}
	v.scan = func(text []byte) {
		st := m.Match(text).Stats()
		v.work.Add(st.Work)
		v.depth.Add(st.Depth)
	}
	return v
}

func dynamicRWVariant(base [][]byte) *serveVariant {
	m, err := pardict.NewDynamicMatcher()
	check(err)
	for _, p := range base {
		_, err := m.Insert(p)
		check(err)
	}
	var mu sync.RWMutex
	v := &serveVariant{
		name: "dynamic-rwmutex",
		mutate: func(insert bool, p []byte) {
			mu.Lock()
			defer mu.Unlock()
			if insert {
				_, err := m.Insert(p)
				check(err)
			} else {
				check(m.Delete(p))
			}
		},
		close: func() {},
	}
	v.scan = func(text []byte) {
		mu.RLock()
		st := m.Match(text).Stats()
		mu.RUnlock()
		v.work.Add(st.Work)
		v.depth.Add(st.Depth)
	}
	return v
}

func rebuildWorldVariant(base [][]byte) *serveVariant {
	build := func(pats [][]byte) *pardict.Matcher {
		m, err := pardict.NewMatcher(pats, pardict.WithEngine(pardict.EngineGeneral))
		check(err)
		return m
	}
	live := append([][]byte(nil), base...)
	cur := build(live)
	var mu sync.RWMutex
	v := &serveVariant{
		name: "rebuild-world",
		mutate: func(insert bool, p []byte) {
			mu.Lock()
			defer mu.Unlock()
			if insert {
				live = append(live, p)
			} else {
				for i := range live {
					if string(live[i]) == string(p) {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
			cur = build(live)
		},
		close: func() {},
	}
	v.scan = func(text []byte) {
		mu.RLock()
		st := cur.Match(text).Stats()
		mu.RUnlock()
		v.work.Add(st.Work)
		v.depth.Add(st.Depth)
	}
	return v
}

// e14: the serving ablation behind the sharded subsystem — scan throughput,
// tail latency, and instrumented PRAM cost under a concurrent insert/delete
// stream, sweeping the shard count S and the write rate. The scaling claim
// is read through the same lens as E1–E12: scatter-gather adds ~S× Work per
// scan but leaves Depth (the critical path) near-flat, so with P ≥ S
// processors the fan-out is free; a single-core wall clock pays the Work
// serially instead. What the wall clock does show, even on one core, is the
// availability claim: RCU readers never block on writers, so the sharded
// p99 stays near its read-only level under churn, while the RWMutex'd
// dynamic matcher convoys readers behind every write and the
// rebuild-the-world baseline stalls everything for a full compile per
// mutation.
func e14() {
	header("E14", "Serving: sharded RCU snapshots vs locked dynamic vs rebuild-the-world under writes")

	const textLen = 4096
	baseDict := scale(1024, 256)
	dur := time.Duration(scale(int(600*time.Millisecond), int(200*time.Millisecond)))

	base := make([][]byte, baseDict)
	for i := range base {
		base[i] = []byte(fmt.Sprintf("pat-%05d-%05d", i, i*7919%99991))
	}
	text := make([]byte, textLen)
	for i := range text {
		text[i] = byte('a' + (i*131+i/7)%26)
	}

	readers := runtime.GOMAXPROCS(0)
	if readers > 8 {
		readers = 8
	}
	if readers < 2 {
		readers = 2
	}
	const writers = 4

	f := record("E14", map[string]any{
		"base_dict": baseDict, "text_len": textLen, "duration_ms": dur.Milliseconds(), "readers": readers,
	})
	fmt.Printf("%18s %7s %7s %11s %10s %9s %9s %9s %12s %10s\n",
		"variant", "readers", "writers", "write-delay", "scans/s", "p50 µs", "p99 µs", "muts", "work/scan", "depth/scan")

	rates := []struct {
		writers int
		delay   time.Duration // per-writer pause between mutations; 0 = unthrottled
	}{
		{0, 0},                          // read-only: the scatter-gather overhead floor
		{writers, 1 * time.Millisecond}, // moderate churn
		{writers, 0},                    // saturating churn: rebuild/overlay cost dominates
	}
	for _, rate := range rates {
		variants := []*serveVariant{
			shardedVariant(base, 1),
			shardedVariant(base, 2),
			shardedVariant(base, 4),
			shardedVariant(base, 8),
			dynamicRWVariant(base),
		}
		// The rebuild baseline recompiles the whole dictionary per mutation;
		// without writes it is just another static matcher, so only run it
		// where it differs.
		if rate.writers > 0 {
			variants = append(variants, rebuildWorldVariant(base))
		}
		for _, v := range variants {
			m := runServePoint(v, text, readers, rate.writers, rate.delay, dur)
			params := benchrow.Params{"writers": rate.writers, "write_delay": rate.delay.String()}
			if v.shards > 0 {
				params["shards"] = v.shards
			}
			f.Add(v.name, params, runtime.GOMAXPROCS(0), 1, m)
			row("%18s %7d %7d %11s %10.0f %9.0f %9.0f %9.0f %12.0f %10.0f",
				v.name, readers, rate.writers, rate.delay, m["scans_per_sec"], m["p50_us"],
				m["p99_us"], m["mutations"], m["mean_scan_work"], m["mean_scan_depth"])
			v.close()
		}
	}
	fmt.Println("shape check: scan depth stays near-flat in S while work grows ~S× — with P ≥ S")
	fmt.Println("processors the scatter-gather fan-out rides free (on this single-core wall")
	fmt.Println("clock the full work is paid serially, so read-only scans/s falls with S).")
	fmt.Println("Under churn the sharded p99 stays near its read-only level (readers never")
	fmt.Println("block on writers); dynamic-rwmutex and rebuild-world pay lock-convoy and")
	fmt.Println("whole-dictionary-recompile stalls in their p99. Writers are closed-loop, so")
	fmt.Println("the mutations column is sustained write throughput, not a controlled rate —")
	fmt.Println("and it scales with S (per-shard logs and 1/S-sized rebuilds) where the")
	fmt.Println("locked baselines flatten.")
}

// runServePoint drives readers scanning in a closed loop and writers issuing
// an insert+delete churn (each writer owns a disjoint key space, so mutations
// never conflict) for dur, then reduces the per-scan latencies. The mean_scan_*
// metrics are the instrumented PRAM cost per scan: Work grows with S (every
// shard walks the text) but Depth — the critical path — stays near-flat.
func runServePoint(v *serveVariant, text []byte, readers, writers int, writeDelay time.Duration, dur time.Duration) map[string]float64 {
	var stop atomic.Bool
	var scans, mutations atomic.Int64
	lats := make([][]time.Duration, readers)
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var own []time.Duration
			for !stop.Load() {
				t0 := time.Now()
				v.scan(text)
				own = append(own, time.Since(t0))
				scans.Add(1)
			}
			lats[r] = own
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := []byte(fmt.Sprintf("live-%d-%d", w, i))
				v.mutate(true, p)
				mutations.Add(1)
				if writeDelay > 0 {
					time.Sleep(writeDelay)
				}
				if stop.Load() {
					// Leave the pattern in; the run is over.
					return
				}
				v.mutate(false, p)
				mutations.Add(1)
				if writeDelay > 0 {
					time.Sleep(writeDelay)
				}
			}
		}(w)
	}
	t0 := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)

	pct := percentilesUs(lats)
	m := map[string]float64{
		"scans":         float64(scans.Load()),
		"mutations":     float64(mutations.Load()),
		"scans_per_sec": float64(scans.Load()) / elapsed.Seconds(),
		"p50_us":        pct(0.50),
		"p99_us":        pct(0.99),
	}
	if n := scans.Load(); n > 0 {
		m["mean_scan_work"] = float64(v.work.Load()) / float64(n)
		m["mean_scan_depth"] = float64(v.depth.Load()) / float64(n)
	}
	return m
}

// percentilesUs pools per-goroutine latency samples and returns a lookup of
// the q-quantile in µs (0 with no samples).
func percentilesUs(lats [][]time.Duration) func(q float64) float64 {
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return func(q float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return float64(all[int(q*float64(len(all)-1))].Nanoseconds()) / 1e3
	}
}
