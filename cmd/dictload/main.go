// Command dictload drives a running dictserve with an open-loop,
// fixed-arrival-rate workload and reports coordinated-omission-free latency
// quantiles against a latency SLO.
//
// Open loop means request number i is *scheduled* at start + i/qps and its
// latency is measured from that scheduled arrival, not from when the client
// got around to sending it — a server that stalls keeps accruing scheduled
// arrivals and the backlog shows up as latency, exactly as real traffic
// would experience it. (A closed loop would politely wait for the server and
// hide the stall; that bug is coordinated omission.)
//
// The workload is multi-tenant and Zipf-skewed: each simulated tenant owns a
// pattern family seeded into the dictionary up front, request tenants are
// drawn from a Zipf distribution (a few hot tenants, a long cold tail), and
// each request is a scan (planted text for the tenant), a mutation (a
// pattern insert/delete toggle), or a stream feed (a chunk into the
// tenant's long-lived stream), mixed by -mix weights.
//
// One invocation measures one offered load; -sweep measures several in
// sequence and additionally reports the maximum sustainable QPS — the
// highest offered level the server absorbed (achieved ≥95% of offered) while
// meeting the SLO. Latency quantiles are reported overall and per request
// kind (scan/mutate/stream), since a mutation-heavy mix can hide a slow
// write path inside a healthy blended p99. The report goes to -out ("-" =
// stdout) in the internal/benchrow format, experiment E17, and a one-line
// summary per level goes to stderr, ending in "met=true|false" for scripts
// to grep.
//
// -preset writestorm reconfigures the mix for E20-style write storms:
// mutation-dominated traffic (10,85,5), sharper tenant skew (zipf 1.4), and
// a ring of 4 toggle patterns per tenant so hot tenants hammer the write
// path with distinct keys. Explicit flags still win over the preset.
//
// Usage:
//
//	dictload -addr localhost:8844 -qps 200 -duration 10s
//	dictload -addr localhost:8844 -sweep 100,200,400,800 -out BENCH_load.json
//	dictload -addr localhost:8844 -preset writestorm -qps 2000
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pardict/internal/benchrow"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dictload: ")
	var (
		addr      = flag.String("addr", "localhost:8844", "dictserve host:port")
		qps       = flag.Float64("qps", 200, "offered load, requests per second")
		sweep     = flag.String("sweep", "", "comma-separated QPS levels to sweep (overrides -qps)")
		duration  = flag.Duration("duration", 10*time.Second, "measured run length per level")
		warmup    = flag.Duration("warmup", 2*time.Second, "unmeasured warmup per level")
		tenants   = flag.Int("tenants", 32, "simulated tenants (each owns a pattern family)")
		zipfS     = flag.Float64("zipf", 1.2, "Zipf exponent for tenant popularity (>1; higher = more skew)")
		mix       = flag.String("mix", "90,5,5", "scan,mutate,stream request weights")
		textLen   = flag.Int("textlen", 4096, "scan text bytes per request")
		seed      = flag.Int64("seed", 1, "workload RNG seed")
		sloTarget = flag.Duration("slotarget", 100*time.Millisecond, "latency SLO target")
		sloObj    = flag.Float64("sloobjective", 0.999, "SLO success-fraction objective")
		out       = flag.String("out", "-", "JSON report path (- = stdout)")
		waitReady = flag.Duration("waitready", 0, "poll /healthz this long before starting (0 = no wait)")
		preset    = flag.String("preset", "", "workload preset: writestorm (mutation-heavy mix for E20)")
	)
	flag.Parse()

	ringN := 1
	switch *preset {
	case "":
	case "writestorm":
		// Preset defaults apply only where the user did not set the flag
		// explicitly — flag.Visit walks the flags that were actually set.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["mix"] {
			*mix = "10,85,5"
		}
		if !explicit["zipf"] {
			*zipfS = 1.4
		}
		ringN = 4
	default:
		log.Fatalf("unknown -preset %q (want writestorm)", *preset)
	}

	base := "http://" + *addr
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
	}}

	if *waitReady > 0 {
		if err := waitHealthy(client, base, *waitReady); err != nil {
			log.Fatal(err)
		}
	}

	weights, err := parseMix(*mix)
	if err != nil {
		log.Fatal(err)
	}
	levels := []float64{*qps}
	if *sweep != "" {
		levels = levels[:0]
		for _, f := range strings.Split(*sweep, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 || slices.Contains(levels, v) {
				log.Fatalf("bad or repeated -sweep level %q", f)
			}
			levels = append(levels, v)
		}
	}

	w := newWorkload(*tenants, *zipfS, *textLen, *seed, weights, ringN)
	if err := w.seedPatterns(client, base); err != nil {
		log.Fatal(err)
	}

	f := benchrow.New("E17", false, map[string]any{
		"addr": *addr, "preset": *preset, "tenants": *tenants, "zipf_s": *zipfS, "mix": *mix,
		"text_len": *textLen, "duration_s": duration.Seconds(),
		"slo_target_ms": float64(sloTarget.Nanoseconds()) / 1e6, "slo_objective": *sloObj,
	})
	g := runtime.GOMAXPROCS(0)
	// The maximum sustainable load: walking the (ascending) sweep, the last
	// level that was both absorbed (achieved ≥95% of offered — an open-loop
	// client that cannot push the bytes out is itself saturated) and inside
	// the SLO, stopping at the first violation. A higher level that happens
	// to meet the SLO after a lower one violated is luck, not capacity.
	sustainable, capped := 0.0, false
	for _, lv := range levels {
		all, kinds := runLevel(client, base, w, lv, *warmup, *duration, *sloTarget, *sloObj)
		params := benchrow.Params{"offered_qps": lv}
		f.Add("all", params, g, 1, all)
		var kindP99 strings.Builder // e.g. " scan_p99=1.20ms mutate_p99=0.40ms"
		for _, k := range []string{"scan", "mutate", "stream"} {
			if kinds[k] != nil {
				f.Add(k, params, g, 1, kinds[k])
				fmt.Fprintf(&kindP99, " %s_p99=%.2fms", k, kinds[k]["p99_ms"])
			}
		}
		met := all["met"] == 1
		fmt.Fprintf(os.Stderr,
			"dictload: qps=%g achieved=%.1f reqs=%.0f errs=%.0f p50=%.2fms p99=%.2fms p999=%.2fms%s burn=%.2f met=%v\n",
			lv, all["achieved_qps"], all["requests"], all["errors"],
			all["p50_ms"], all["p99_ms"], all["p999_ms"], kindP99.String(), all["burn_rate"], met)
		capped = capped || !met || all["achieved_qps"] < 0.95*lv
		if !capped {
			sustainable = lv
		}
	}
	f.Add("all", benchrow.Params{}, g, 1, map[string]float64{"max_sustainable_qps": sustainable})
	fmt.Fprintf(os.Stderr, "dictload: max sustainable qps=%g (target %v, objective %g)\n",
		sustainable, *sloTarget, *sloObj)

	if *out != "-" {
		if err := benchrow.Write(*out, f); err != nil {
			log.Fatal(err)
		}
		return
	}
	enc, err := benchrow.Marshal(f)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(enc)
}

// parseMix turns "90,5,5" into scan/mutate/stream weights.
func parseMix(s string) ([3]int, error) {
	var w [3]int
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return w, fmt.Errorf("-mix wants three comma-separated weights, got %q", s)
	}
	total := 0
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return w, fmt.Errorf("bad -mix weight %q", p)
		}
		w[i] = v
		total += v
	}
	if total == 0 {
		return w, fmt.Errorf("-mix weights sum to zero")
	}
	return w, nil
}

// workload holds the per-tenant request material, generated once so the hot
// request path does no text synthesis.
type workload struct {
	weights [3]int
	zipf    *rand.Zipf
	texts   [][]byte   // per tenant: scan text with that tenant's patterns planted
	pats    [][]string // per tenant: ring of patterns toggled by mutate requests
	chunks  [][]byte   // per tenant: stream feed chunk

	mu      sync.Mutex
	rng     *rand.Rand
	streams map[int]string  // tenant → open stream id
	ringPos []int           // tenant → next mutate ring slot
	toggled map[string]bool // pattern → currently inserted
}

func newWorkload(tenants int, zipfS float64, textLen int, seed int64, weights [3]int, ringN int) *workload {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{
		weights: weights,
		zipf:    rand.NewZipf(rng, zipfS, 1, uint64(tenants-1)),
		rng:     rng,
		streams: map[int]string{},
		ringPos: make([]int, tenants),
		toggled: map[string]bool{},
	}
	for t := 0; t < tenants; t++ {
		// A tenant's pattern family: distinctive enough not to collide across
		// tenants, short enough to match often.
		fam := make([]string, 4)
		for i := range fam {
			fam[i] = fmt.Sprintf("tn%dp%d", t, i)
		}
		ring := make([]string, ringN)
		for i := range ring {
			ring[i] = fmt.Sprintf("tn%dtoggle%d", t, i)
		}
		w.pats = append(w.pats, ring)
		text := make([]byte, textLen)
		for i := range text {
			text[i] = byte('a' + rng.Intn(26))
		}
		// Plant ~1 family pattern per 256 bytes so scans produce matches.
		for i := 0; i+16 < textLen; i += 256 {
			copy(text[i:], fam[rng.Intn(len(fam))])
		}
		w.texts = append(w.texts, text)
		w.chunks = append(w.chunks, text[:min(512, textLen)])
	}
	return w
}

// seedPatterns inserts every tenant's pattern family up front.
func (w *workload) seedPatterns(client *http.Client, base string) error {
	var all []string
	for t := range w.texts {
		for i := 0; i < 4; i++ {
			all = append(all, fmt.Sprintf("tn%dp%d", t, i))
		}
	}
	body, _ := json.Marshal(map[string][]string{"patterns": all})
	resp, err := client.Post(base+"/patterns", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("seeding patterns: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("seeding patterns: status %d", resp.StatusCode)
	}
	// Scan gently for a couple of seconds so the seed-triggered background
	// rebuilds (the bulk insert crosses every shard's rebuild threshold) and
	// other cold-start costs land before the first measured level, not in it.
	// Small residual overlays are steady-state by design and stay.
	settleUntil := time.Now().Add(2 * time.Second)
	for time.Now().Before(settleUntil) {
		post(client, base+"/scan?mode=count", "text/plain", []byte("settle"), http.StatusOK)
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

const (
	opScan = iota
	opMutate
	opStream
)

// next picks the next request: a Zipf-popular tenant and a weighted op.
func (w *workload) next() (tenant, op int) {
	w.mu.Lock()
	tenant = int(w.zipf.Uint64())
	r := w.rng.Intn(w.weights[0] + w.weights[1] + w.weights[2])
	w.mu.Unlock()
	switch {
	case r < w.weights[0]:
		op = opScan
	case r < w.weights[0]+w.weights[1]:
		op = opMutate
	default:
		op = opStream
	}
	return tenant, op
}

// do issues one request and reports whether it succeeded.
func (w *workload) do(client *http.Client, base string, tenant, op int) bool {
	switch op {
	case opScan:
		return post(client, base+"/scan?mode=count", "text/plain", w.texts[tenant], http.StatusOK)
	case opMutate:
		w.mu.Lock()
		pat := w.pats[tenant][w.ringPos[tenant]]
		w.ringPos[tenant] = (w.ringPos[tenant] + 1) % len(w.pats[tenant])
		ins := !w.toggled[pat]
		w.toggled[pat] = ins
		w.mu.Unlock()
		body, _ := json.Marshal(map[string][]string{"patterns": {pat}})
		method := http.MethodPost
		if !ins {
			method = http.MethodDelete
		}
		req, _ := http.NewRequest(method, base+"/patterns", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusOK
	default: // opStream: feed the tenant's long-lived stream, opening lazily
		id, ok := w.streamID(client, base, tenant)
		if !ok {
			return false
		}
		if post(client, base+"/stream/"+id+"/feed", "application/octet-stream", w.chunks[tenant], http.StatusNoContent) {
			return true
		}
		// The stream may have been idle-evicted; drop it and count the miss.
		w.mu.Lock()
		if w.streams[tenant] == id {
			delete(w.streams, tenant)
		}
		w.mu.Unlock()
		return false
	}
}

// streamID returns the tenant's stream id, opening one on first use.
func (w *workload) streamID(client *http.Client, base string, tenant int) (string, bool) {
	w.mu.Lock()
	id, ok := w.streams[tenant]
	w.mu.Unlock()
	if ok {
		return id, true
	}
	resp, err := client.Post(base+"/stream", "application/json", nil)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusCreated || json.NewDecoder(resp.Body).Decode(&out) != nil || out.ID == "" {
		io.Copy(io.Discard, resp.Body)
		return "", false
	}
	w.mu.Lock()
	if prev, ok := w.streams[tenant]; ok {
		id = prev // lost the race; orphan ours to idle eviction
	} else {
		w.streams[tenant] = out.ID
		id = out.ID
	}
	w.mu.Unlock()
	return id, true
}

func post(client *http.Client, url, ctype string, body []byte, want int) bool {
	resp, err := client.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == want
}

// runLevel offers qps for warmup+duration and returns stats over the
// measured window: the whole mix, and each request kind that completed any
// request (a mutate-heavy mix, e.g. -preset writestorm, can hide a slow write
// path inside the blended p99). Requests are dispatched at their scheduled
// arrival times; latency for request i is measured from its scheduled
// arrival, so client or server backlog is charged to the requests that queued
// behind it.
func runLevel(client *http.Client, base string, w *workload, qps float64,
	warmup, duration time.Duration, sloTarget time.Duration, sloObj float64) (all map[string]float64, kinds map[string]map[string]float64) {
	interval := time.Duration(float64(time.Second) / qps)
	total := warmup + duration
	start := time.Now()
	measureFrom := start.Add(warmup)

	var mu sync.Mutex
	var lats []time.Duration
	var kindLats [3][]time.Duration // indexed by opScan/opMutate/opStream
	var errs int
	var firstDone, lastDone time.Time

	var wg sync.WaitGroup
	for i := 0; ; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if sched.After(start.Add(total)) {
			break
		}
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		tenant, op := w.next()
		wg.Add(1)
		go func(sched time.Time, tenant, op int) {
			defer wg.Done()
			ok := w.do(client, base, tenant, op)
			done := time.Now()
			if sched.Before(measureFrom) {
				return // warmup request
			}
			lat := done.Sub(sched)
			mu.Lock()
			defer mu.Unlock()
			if firstDone.IsZero() {
				firstDone = done
			}
			lastDone = done
			if !ok {
				errs++
				return
			}
			lats = append(lats, lat)
			kindLats[op] = append(kindLats[op], lat)
		}(sched, tenant, op)
	}
	wg.Wait()

	all = quantiles(lats)
	all["requests"], all["errors"] = float64(len(lats)), float64(errs)
	kinds = map[string]map[string]float64{}
	for op, name := range []string{"scan", "mutate", "stream"} {
		all[name+"s"] = float64(len(kindLats[op])) // scans, mutates, streams
		if len(kindLats[op]) > 0 {
			kinds[name] = quantiles(kindLats[op])
		}
	}
	all["achieved_qps"], all["breach_frac"], all["burn_rate"], all["met"] = 0, 0, 0, 0
	if len(lats) == 0 {
		return all, kinds
	}
	if span := lastDone.Sub(firstDone); span > 0 {
		all["achieved_qps"] = float64(len(lats)+errs-1) / span.Seconds()
	}
	breaches := errs // a failed request is never "within target"
	for _, l := range lats {
		if l > sloTarget {
			breaches++
		}
	}
	all["breach_frac"] = float64(breaches) / float64(len(lats)+errs)
	all["burn_rate"] = all["breach_frac"] / (1 - sloObj)
	if all["burn_rate"] <= 1.0 {
		all["met"] = 1
	}
	return all, kinds
}

// quantiles sorts lats and returns its p50/p90/p99/p999/max in ms (zeros
// when empty).
func quantiles(lats []time.Duration) map[string]float64 {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		return float64(lats[int(p*float64(len(lats)-1))].Nanoseconds()) / 1e6
	}
	return map[string]float64{"p50_ms": at(0.50), "p90_ms": at(0.90), "p99_ms": at(0.99), "p999_ms": at(0.999), "max_ms": at(1)}
}

// waitHealthy polls /healthz until it answers 200 or the deadline passes.
func waitHealthy(client *http.Client, base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %v", base, wait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
