package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeMetrics renders /metrics and returns each sample's value, each
// series' type, and the label keys of its samples (le excluded).
func scrapeMetrics(t *testing.T, srv *server) (samples map[string]float64, typ, labels map[string]string) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	samples, typ, labels = map[string]float64{}, map[string]string{}, map[string]string{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			typ[f[2]] = f[3]
		}
		if sp := strings.LastIndexByte(line, ' '); !strings.HasPrefix(line, "#") && sp > 0 {
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			samples[line[:sp]] = v
		}
		open := strings.IndexByte(line, '{')
		if strings.HasPrefix(line, "#") || open < 0 || strings.Contains(line, "_bucket{le=") {
			continue
		}
		var keys []string
		for _, kv := range strings.Split(line[open+1:strings.LastIndexByte(line, '}')], "\",") {
			keys = append(keys, kv[:strings.IndexByte(kv, '=')])
		}
		labels[line[:open]] = strings.Join(keys, ",")
	}
	return samples, typ, labels
}

// scrapeVars renders /debug/vars and returns its "pardict" object.
func scrapeVars(t *testing.T, srv *server) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	var vars struct {
		Pardict map[string]any `json:"pardict"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("bad /debug/vars JSON: %v", err)
	}
	return vars.Pardict
}

// parentSeries lists every series /metrics rendered before the table existed,
// with its type and label keys; dashboards built on them must keep working.
const parentSeries = `pardict_build_info gauge version,go,gomaxprocs
pardict_requests_total counter endpoint,code
pardict_scan_latency_seconds histogram
pardict_slo_target_seconds gauge
pardict_slo_objective gauge
pardict_slo_window_seconds gauge
pardict_slo_requests_window gauge
pardict_slo_breaches_window gauge
pardict_slo_latency_seconds gauge quantile
pardict_slo_burn_rate gauge
pardict_trace_sample_every gauge
pardict_trace_started_total counter
pardict_trace_finished_total counter
pardict_trace_sampled_out_total counter
pardict_trace_retained gauge
pardict_scan_timeouts_total counter
pardict_scan_cancels_total counter
pardict_scan_errors_total counter
pardict_engine_work_total counter
pardict_engine_depth_total counter
pardict_texts_scanned_total counter
pardict_bytes_scanned_total counter
pardict_dictionary_info gauge engine
pardict_dictionary_patterns gauge
pardict_dictionary_max_len gauge
pardict_dictionary_bytes gauge
pardict_shard_count gauge
pardict_shard_pending_ops gauge
pardict_shard_pending_bytes gauge
pardict_shard_epoch gauge
pardict_shard_pinned_snapshots gauge
pardict_shard_snapshot_swaps_total counter
pardict_shard_rebuilds_total counter
pardict_shard_rebuild_errors_total counter
pardict_shard_reconcile_work_total counter
pardict_shard_reconcile_depth_total counter
pardict_shard_rebuild_seconds histogram
pardict_shard_write_phase gauge mode,phase
pardict_shard_phase_split gauge
pardict_shard_phase_switches_total counter
pardict_shard_joined_writes_total counter
pardict_shard_split_writes_total counter
pardict_shard_split_pending_ops gauge
pardict_shard_merges_total counter
pardict_shard_merged_ops_total counter
pardict_shard_merge_seconds histogram
pardict_stream_sessions gauge
pardict_stream_generation gauge
pardict_stream_creates_total counter
pardict_stream_evictions_total counter
pardict_stream_events_dropped_total counter
pardict_stream_fed_bytes_total counter
pardict_stream_batches_total counter
pardict_stream_batch_streams_total counter
pardict_stream_queued_bytes gauge
pardict_stream_carry_bytes gauge
pardict_stream_latency_seconds histogram
pardict_lz_phrases_parsed_total counter
pardict_lz_windows_scanned_total counter
pardict_lz_window_bytes_total counter
pardict_lz_interior_translated_total counter
pardict_lz_bytes_skipped_total counter
pardict_scheduler_phases_total counter
pardict_scheduler_pooled_phases_total counter
pardict_scheduler_chunks_total counter
pardict_scheduler_steals_total counter
pardict_scheduler_parks_total counter
pardict_scheduler_unparks_total counter
pardict_scheduler_grain_sum counter
pardict_scheduler_queue_sum counter
pardict_scheduler_queue_max gauge`

// TestMetricsCompatible: every series name, # TYPE and label key /metrics
// rendered before the table still renders.
func TestMetricsCompatible(t *testing.T) {
	srv := testServer(t)
	doJSON(t, srv, http.MethodPost, "/scan", "ushers")
	_, typ, labels := scrapeMetrics(t, srv)
	lines := strings.Split(parentSeries, "\n")
	if len(lines) != 71 {
		t.Fatalf("parent list has %d series, want 71", len(lines))
	}
	for _, line := range lines {
		f := append(strings.Fields(line), "")
		name, want, keys := f[0], f[1], f[2]
		if typ[name] != want {
			t.Errorf("%s: # TYPE %q, want %q", name, typ[name], want)
		}
		if labels[name] != keys {
			t.Errorf("%s: label keys %q, want %q", name, labels[name], keys)
		}
	}
}

// TestMetricsAndVarsAgree scrapes both endpoints once each: they carry the
// same set of series, in the same units.
func TestMetricsAndVarsAgree(t *testing.T) {
	srv := testServer(t)
	doJSON(t, srv, http.MethodPost, "/scan", "ushers")
	doJSON(t, srv, http.MethodPost, "/scanbatch", `{"texts":["he","she"]}`)
	samples, typ, _ := scrapeMetrics(t, srv)
	vars := scrapeVars(t, srv)

	var fromMetrics, fromVars []string
	for name := range typ {
		fromMetrics = append(fromMetrics, name)
	}
	for name := range vars {
		fromVars = append(fromVars, name)
	}
	sort.Strings(fromMetrics)
	sort.Strings(fromVars)
	if !reflect.DeepEqual(fromMetrics, fromVars) {
		t.Fatalf("series differ:\n/metrics:    %v\n/debug/vars: %v", fromMetrics, fromVars)
	}

	reqs := vars["pardict_requests_total"].(map[string]any)
	lat := vars["pardict_scan_latency_seconds"].(map[string]any)
	for key, want := range map[string]any{
		`pardict_requests_total{endpoint="scan",code="200"}`:      reqs["scan,200"],
		`pardict_requests_total{endpoint="scanbatch",code="200"}`: reqs["scanbatch,200"],
		"pardict_scan_latency_seconds_count":                      lat["count"],
		"pardict_scan_latency_seconds_sum":                        lat["sum"],
		`pardict_scan_latency_seconds_bucket{le="+Inf"}`:          lat["buckets"].(map[string]any)["+Inf"],
		`pardict_scan_latency_seconds_bucket{le="0.0001"}`:        lat["buckets"].(map[string]any)["0.0001"],
		"pardict_slo_target_seconds":                              vars["pardict_slo_target_seconds"],
		"pardict_slo_window_seconds":                              vars["pardict_slo_window_seconds"],
		`pardict_slo_latency_seconds{quantile="0.999"}`:           vars["pardict_slo_latency_seconds"].(map[string]any)["0.999"],
		"pardict_texts_scanned_total":                             vars["pardict_texts_scanned_total"],
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("/metrics %s = %v, /debug/vars %v", key, got, want)
		}
	}
	if samples["pardict_slo_target_seconds"] != 0.1 || samples["pardict_texts_scanned_total"] != 3 {
		t.Errorf("units or counts off: target %v s, texts %v", samples["pardict_slo_target_seconds"],
			samples["pardict_texts_scanned_total"])
	}
}

// lintedStructs are the stats structs, by their scrape field, whose every
// exported field must feed exactly one series.
var lintedStructs = []string{"ShardStats", "StreamServerStats", "SchedulerStats", "LZStats",
	"TraceStats", "SLOSnapshot", "Server", "Tier"}

// TestFieldLint: each exported field of the stats structs feeds exactly one
// series, and every field a row names exists.
func TestFieldLint(t *testing.T) {
	sc := &scrape{}
	fed := map[string]int{}
	for _, r := range table {
		if len(r.from) == 0 && r.read == nil {
			t.Errorf("%s: no source", r.name)
		}
		for _, path := range r.from {
			fed[path]++
		}
		for _, path := range append(r.from, r.derived) {
			if path != "" && !sc.field(path).IsValid() {
				t.Errorf("%s reads %s, which does not exist", r.name, path)
			}
		}
	}
	for _, s := range lintedStructs {
		typ := sc.field(s).Type()
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				if path := s + "." + f.Name; fed[path] != 1 {
					t.Errorf("%s feeds %d series, want exactly 1", path, fed[path])
				}
			}
		}
	}
}

// TestMetricsReference: README.md's metrics reference lists exactly the
// table's rows, with the same type, labels and help.
func TestMetricsReference(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| `pardict_") {
			documented[line] = true
		}
	}
	var want strings.Builder
	for _, r := range table {
		labels := "—"
		if r.labels != nil {
			labels = "`" + strings.Join(r.labels, "`, `") + "`"
		}
		line := fmt.Sprintf("| `%s` | %s | %s | %s |", r.name, r.typ, labels, r.help)
		fmt.Fprintln(&want, line)
		if !documented[line] {
			t.Errorf("README.md lacks %s", line)
		}
		delete(documented, line)
	}
	for line := range documented {
		t.Errorf("README.md documents a series the table lacks: %s", line)
	}
	if t.Failed() {
		t.Logf("the reference rows, from the table:\n%s", want.String())
	}
}

// TestEveryRequestCountedOnce drives each route through its status paths:
// every response adds exactly one to pardict_requests_total under its own
// endpoint and code, and nothing else.
func TestEveryRequestCountedOnce(t *testing.T) {
	srv := newServer(testMatcher(t, "he", "she", "his", "hers"), 64, 30*time.Second, streamOpts{}, obsOpts{debug: true})
	t.Cleanup(srv.Close)
	id := createStream(t, srv)
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	counts := func() map[string]float64 {
		out := map[string]float64{}
		for _, x := range srv.scrape().Requests {
			out[strings.Join(x.labels, ",")] = x.v
		}
		return out
	}
	for _, tc := range []struct {
		method, target, body string
		ctx                  context.Context
		endpoint             string
		code                 int
	}{
		{http.MethodGet, "/scan", "", nil, "scan", 405},
		{http.MethodPost, "/scan", strings.Repeat("x", 65), nil, "scan", 413},
		{http.MethodPost, "/scan", "ushers", nil, "scan", 200},
		{http.MethodPost, "/scan", "ushers", gone, "scan", 0},
		{http.MethodGet, "/scanbatch", "", nil, "scanbatch", 405},
		{http.MethodPost, "/scanbatch", "not json", nil, "scanbatch", 400},
		{http.MethodPost, "/scanbatch", `{"texts":["he"]}`, nil, "scanbatch", 200},
		{http.MethodGet, "/healthz", "", nil, "healthz", 200},
		{http.MethodPost, "/stream", "", nil, "stream", 201},
		{http.MethodPost, "/stream/" + id + "/feed", "ushers", nil, "stream_feed", 204},
		{http.MethodPost, "/stream/none/feed", "x", nil, "stream_feed", 404},
		{http.MethodGet, "/stream/" + id + "/events?once=1", "", nil, "stream_events", 200},
		{http.MethodGet, "/stream/" + id + "/events", "", gone, "stream_events", 200},
		{http.MethodGet, "/stream/none/events", "", nil, "stream_events", 404},
		{http.MethodGet, "/patterns", "", nil, "patterns", 405},
		{http.MethodPost, "/patterns", `{"patterns":["she"]}`, nil, "patterns", 409},
		{http.MethodPost, "/patterns", `{"patterns":["new"]}`, nil, "patterns", 200},
		{http.MethodGet, "/reload", "", nil, "reload", 405},
		{http.MethodPost, "/reload", "garbage", nil, "reload", 400},
		{http.MethodPost, "/metrics", "", nil, "metrics", 405},
		{http.MethodGet, "/metrics", "", nil, "metrics", 200},
		{http.MethodGet, "/debug/vars", "", nil, "vars", 200},
		{http.MethodGet, "/debug/trace", "", nil, "trace", 200},
		{http.MethodGet, "/debug/pprof/", "", nil, "pprof", 200},
		{http.MethodGet, "/debug/pprof/nosuchprofile", "", nil, "pprof", 404},
		{http.MethodDelete, "/stream/" + id, "", nil, "stream_delete", 200},
		{http.MethodDelete, "/stream/" + id, "", nil, "stream_delete", 404},
		{http.MethodGet, "/nosuchpath", "", nil, "unmatched", 404},
		{http.MethodGet, "/stream", "", nil, "unmatched", 405},
		{http.MethodPut, "/stream/" + id + "/feed", "x", nil, "unmatched", 405},
		{http.MethodPost, "/debug/trace", "", nil, "unmatched", 405},
	} {
		before := counts()
		req := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
		if tc.ctx != nil {
			req = req.WithContext(tc.ctx)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if tc.code != 0 && rec.Code != tc.code {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.target, rec.Code, tc.code)
		}
		if tc.code == http.StatusMethodNotAllowed && tc.endpoint == "unmatched" && rec.Header().Get("Allow") == "" {
			t.Errorf("%s %s: 405 without an Allow header", tc.method, tc.target)
		}
		before[tc.endpoint+","+strconv.Itoa(tc.code)]++
		if after := counts(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s %s: counts %v, want %v", tc.method, tc.target, after, before)
		}
	}
}
