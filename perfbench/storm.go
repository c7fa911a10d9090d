package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"pardict"
	"pardict/internal/trace"
)

// write-storm: two clients drive the serve-read dictionary and texts under
// WithWritePhase(WritePhaseAuto), after dictload -preset writestorm.
// Most operations toggle a key (insert if absent, else delete) drawn from a
// Zipf(1.4)-skewed ring the client owns; 3% are 4 KiB scans; 1% are
// visibility probes, which insert a fresh sentinel and scan a short text
// containing it until the sentinel appears, then delete it. dictload's 10%
// scan share would hold two clients on two CPUs below Auto's 20k writes/s
// entry rate (a 4 KiB sharded scan costs about 2 ms there), and the storm
// would never leave the joined phase. The
// workload runs the shard layer's write path beside its reads: split-phase
// private logs, last-writer-wins merges, overlays, rebuilds and phase
// decisions. A change that buys write throughput with staleness or scan
// speed shows in visible_ms and scan_qps.
const (
	stormRing      = 256     // toggle keys each client owns
	stormSchedule  = 1 << 16 // pre-generated operations per client, cycled
	stormScanPct   = 3
	stormProbePct  = 1
	stormSentinels = 4096 // probe sentinels per client, cycled
	probeTimeout   = time.Second
	splitTimeout   = 3 * time.Second // warm-up waits this long for Auto to reach split
	probePrefix    = "GET /x "       // the sentinel starts right after it
)

const (
	opToggle = iota
	opScan
	opProbe
)

// Span budgets of a storm client's tracer, per operation kind.
const (
	budgetToggle = iota
	budgetScan
	budgetProbe
)

type stormOp struct {
	kind uint8
	arg  uint16 // key index (toggle) or text index (scan)
}

type stormClient struct {
	scanClient
	id         int
	sched      []stormOp
	at         int
	keys       [][]byte
	live       []bool
	log        []uint32 // key<<1 | 1 for an insert: every toggle, in program order
	sentinels  [][]byte
	probeTexts [][]byte
	probes     int
}

func newStormClient(seed int64, id int) *stormClient {
	rng := rand.New(rand.NewSource(seed*31 + int64(id) + 5))
	zipf := rand.NewZipf(rng, 1.4, 1, stormRing-1)
	c := &stormClient{id: id, live: make([]bool, stormRing), sched: make([]stormOp, stormSchedule)}
	c.tr = newTracer(8, 1024, 4096)
	for i := range c.sched {
		switch r := rng.Intn(100); {
		case r < stormProbePct:
			c.sched[i] = stormOp{kind: opProbe}
		case r < stormProbePct+stormScanPct:
			c.sched[i] = stormOp{kind: opScan, arg: uint16(rng.Intn(serveTexts))}
		default:
			c.sched[i] = stormOp{kind: opToggle, arg: uint16(zipf.Uint64())}
		}
	}
	for k := 0; k < stormRing; k++ {
		c.keys = append(c.keys, []byte(fmt.Sprintf("ws-c%d-k%04d", id, k)))
	}
	for j := 0; j < stormSentinels; j++ {
		s := []byte(fmt.Sprintf("@probe-c%d-%04d@", id, j))
		c.sentinels = append(c.sentinels, s)
		c.probeTexts = append(c.probeTexts, []byte(probePrefix+string(s)+" 200\n"))
	}
	return c
}

// write inserts or deletes key, timing the call and, when tt is not nil,
// recording a shard.insert or shard.delete span around it. The write
// latencies are write-storm's latency population: writes are 96% of its
// operations, and a 4 KiB scan, which shares the two CPUs with the other
// client's writes and with the merges and rebuilds, has the less steady
// latency (README.md).
func (c *stormClient) write(m *pardict.ShardedMatcher, ins bool, key []byte, tt *trace.T) error {
	name := "shard.delete"
	if ins {
		name = "shard.insert"
	}
	sp := tt.StartSpan(name, 0)
	t0 := time.Now()
	var err error
	if ins {
		_, err = m.Insert(key)
	} else {
		err = m.Delete(key)
	}
	c.t.lat = append(c.t.lat, msSince(t0))
	sp.End()
	c.t.writes++
	return err
}

func (c *stormClient) toggle(b *bench, m *pardict.ShardedMatcher, k int, tt *trace.T) {
	ins := !c.live[k]
	err := c.write(m, ins, c.keys[k], tt)
	switch {
	case err == nil:
	case errors.Is(err, pardict.ErrDuplicatePattern):
		b.fail(1, "insert of %q: key was already live", c.keys[k])
		ins = true
	case errors.Is(err, pardict.ErrPatternNotFound):
		b.fail(1, "delete of %q: key was not live", c.keys[k])
		ins = false
	default:
		b.fail(1, "write of %q: %v", c.keys[k], err)
		return
	}
	c.live[k] = ins
	bit := uint32(0)
	if ins {
		bit = 1
	}
	c.log = append(c.log, uint32(k)<<1|bit)
}

// probe inserts a fresh sentinel, scans a short text containing it until
// the sentinel is reported, records the delay, then deletes it.
func (c *stormClient) probe(b *bench, m *pardict.ShardedMatcher, ctx context.Context, tt *trace.T) {
	j := c.probes % len(c.sentinels)
	c.probes++
	s, text := c.sentinels[j], c.probeTexts[j]
	if err := c.write(m, true, s, tt); err != nil {
		b.fail(1, "probe insert of %q: %v", s, err)
		return
	}
	inserted := time.Now()
	for {
		r, err := m.MatchContext(ctx, text)
		if err != nil {
			b.fail(1, "probe scan: %v", err)
			break
		}
		if r.MatchLen(len(probePrefix)) == len(s) {
			c.t.visible = append(c.t.visible, msSince(inserted))
			break
		}
		if time.Since(inserted) > probeTimeout {
			b.fail(1, "sentinel %q not visible after %v", s, probeTimeout)
			break
		}
	}
	if err := c.write(m, false, s, tt); err != nil {
		b.fail(1, "probe delete of %q: %v", s, err)
	}
}

func runWriteStorm(b *bench) error {
	in := newServeInputs(b.cfg.seed)
	clients := []*stormClient{newStormClient(b.cfg.seed, 0), newStormClient(b.cfg.seed, 1)}
	b.markHeap()
	setup := &setupTimer[*pardict.ShardedMatcher]{
		build:   func() (*pardict.ShardedMatcher, error) { return newSharded(b.pool, in.dict, pardict.WritePhaseAuto) },
		discard: (*pardict.ShardedMatcher).Close,
	}
	m, err := setup.first()
	if err != nil {
		return err
	}
	defer m.Close()

	traced := false
	op := func(c int) {
		cl := clients[c]
		o := cl.sched[cl.at%len(cl.sched)]
		cl.at++
		cl.t.ops++
		var tt *trace.T
		ctx := context.Background()
		budget := [...]int{opToggle: budgetToggle, opScan: budgetScan, opProbe: budgetProbe}[o.kind]
		if traced {
			tt, ctx = cl.tr.start(budget, [...]string{"toggle", "scan", "probe"}[o.kind])
		}
		switch o.kind {
		case opToggle:
			cl.toggle(b, m, int(o.arg), tt)
		case opScan:
			cl.next = int(o.arg)
			cl.scan(b, m, in.texts, ctx)
		case opProbe:
			cl.probe(b, m, ctx, tt)
		}
		if traced {
			b.bd.addTrace(cl.tr.finish(budget, tt), 0)
		}
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

	// Warm up until Auto has moved the storm to the split phase, so every
	// measured window runs in the phase the workload is about. A set-up
	// break idles the clients long enough for Auto to rejoin, so every
	// segment warms up the same way.
	warm := func(d time.Duration) {
		closedLoop(len(clients), d, op, nil)
		for start := time.Now(); time.Since(start) < splitTimeout; {
			if _, phase := m.WritePhaseNow(); phase == "split" {
				return
			}
			closedLoop(len(clients), 50*time.Millisecond, op, nil)
		}
		_, phase := m.WritePhaseNow()
		fmt.Fprintf(os.Stderr, "perfbench: write-storm: Auto still in the %s phase after warm-up\n", phase)
	}
	warm(warmup)
	b.setMem()
	reset()
	if !b.cfg.trace {
		segs, err := b.segmented(setup.sample, func() { warm(rewarm) }, func(d time.Duration) segment {
			reset()
			el := closedLoop(len(clients), d, op, nil)
			return segment{t: total(), el: el}
		})
		if err != nil {
			return err
		}
		b.setE2E(segs, setup.times)
		b.e2e["visible_ms"] = medianOf(segs, func(s segment) float64 { return quantile(s.t.visible, 0.5) })
	} else {
		warm(rewarm)
		reset()
		var pending []float64
		a := b.snap()
		el := closedLoop(len(clients), b.window(), op, func() {
			pending = append(pending, float64(m.Stats().PendingOps))
		})
		t := total()
		b.setCounterLayers(a, b.snap(), float64(t.ops))
		b.setScanLayers(t)
		b.layer["shard.write_p50_us"] = quantile(t.lat, 0.5) * 1e3
		b.layer["shard.write_qps"] = float64(t.writes) / el.Seconds()
		b.layer["shard.pending_ops"] = mean(pending)
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
	if err := b.checkScans(in.dict, in.texts, samples); err != nil {
		return err
	}
	return b.checkStorm(m, in.dict, clients)
}

// checkStorm quiesces the matcher and compares its live set and positionwise
// match lengths with a DynamicMatcher holding the base dictionary plus the
// keys each client's own op log leaves live. Clients own disjoint keys, so
// the final state is well defined.
func (b *bench) checkStorm(m *pardict.ShardedMatcher, dict [][]byte, clients []*stormClient) error {
	m.Flush()
	m.Reconcile()
	var alive, dead, gone [][]byte
	var bad int64
	for _, c := range clients {
		state := make([]bool, stormRing)
		for _, e := range c.log {
			state[e>>1] = e&1 == 1
		}
		for k, key := range c.keys {
			if m.Has(key) != state[k] {
				bad++
			}
			if state[k] {
				alive = append(alive, key)
			} else {
				dead = append(dead, key)
			}
		}
		for j := 0; j < c.probes && j < len(c.sentinels); j++ {
			if m.Has(c.sentinels[j]) {
				bad++
			}
			if j < 16 {
				gone = append(gone, c.sentinels[j])
			}
		}
	}
	if got, want := m.Len(), len(dict)+len(alive); got != want {
		b.fail(1, "quiesced matcher holds %d patterns, want %d", got, want)
	}
	o, err := pardict.NewDynamicMatcher()
	if err != nil {
		return err
	}
	lens := map[pardict.PatternID]int{}
	for _, p := range append(append([][]byte(nil), dict...), alive...) {
		id, err := o.Insert(p)
		if err != nil {
			return fmt.Errorf("oracle insert of %q: %w", p, err)
		}
		lens[id] = len(p)
	}
	pool := append(append(append(append([][]byte(nil), alive...), dead...), gone...), dict[:64]...)
	rng := rand.New(rand.NewSource(b.cfg.seed + 3))
	for trial := 0; trial < 8; trial++ {
		var text []byte
		for len(text) < 2048 {
			text = append(append(text, pool[rng.Intn(len(pool))]...), ' ')
		}
		got, want := m.Match(text), o.Match(text)
		for j := range text {
			wl := 0
			if id, ok := want.Longest(j); ok {
				wl = lens[id]
			}
			if got.MatchLen(j) != wl {
				bad++
				break
			}
		}
	}
	if bad > 0 {
		b.fail(bad, "quiesced state disagrees with the DynamicMatcher replay of the op logs")
	}
	return nil
}
