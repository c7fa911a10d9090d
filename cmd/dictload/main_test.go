package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pardict/internal/benchrow"
)

// fakeServe answers the dictserve endpoints dictload calls: /healthz,
// /patterns (POST and DELETE), /scan, /stream and /stream/{id}/feed. It
// forgets a stream after three feeds, as dictserve's idle eviction would,
// so dictload's stream-reopen path runs too.
type fakeServe struct {
	mu     sync.Mutex
	next   int
	feeds  map[string]int
	counts map[string]int
}

func (f *fakeServe) count(kind string) {
	f.mu.Lock()
	f.counts[kind]++
	f.mu.Unlock()
}

func (f *fakeServe) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/patterns", func(w http.ResponseWriter, r *http.Request) {
		var body struct{ Patterns []string }
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || len(body.Patterns) == 0 {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		f.count(r.Method + " /patterns")
	})
	mux.HandleFunc("/scan", func(w http.ResponseWriter, r *http.Request) {
		f.count("scan")
		fmt.Fprint(w, `{"matches":0}`)
	})
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.next++
		id := fmt.Sprintf("s%d", f.next)
		f.feeds[id] = 0
		f.mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"id":%q}`, id)
	})
	mux.HandleFunc("/stream/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/stream/"), "/feed")
		f.mu.Lock()
		n, ok := f.feeds[id]
		if ok {
			f.feeds[id] = n + 1
			if n+1 == 3 {
				delete(f.feeds, id)
			}
		}
		f.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		f.count("feed")
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// TestDictloadAgainstFakeServer runs the command end to end — flag parsing,
// the writestorm preset, the readiness wait, pattern seeding, a two-level
// sweep of runLevel over all three request kinds, and the report file —
// against an in-process server, and checks the report.
func TestDictloadAgainstFakeServer(t *testing.T) {
	fake := &fakeServe{feeds: map[string]int{}, counts: map[string]int{}}
	srv := httptest.NewServer(fake.handler())
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "load.json")
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"dictload",
		"-addr", strings.TrimPrefix(srv.URL, "http://"),
		"-preset", "writestorm", "-mix", "40,30,30", "-tenants", "8",
		"-sweep", "40,80", "-warmup", "100ms", "-duration", "400ms",
		"-textlen", "256", "-waitready", "2s", "-out", out,
	}
	main()

	f, err := benchrow.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	var levels, sustainable int
	for _, r := range f.Rows {
		if r.Experiment != "E17" {
			t.Fatalf("row of experiment %q, want E17", r.Experiment)
		}
		if r.Arm == "all" && r.Metric == "p99_ms" {
			levels++
		}
		if r.Metric == "max_sustainable_qps" {
			sustainable++
		}
	}
	if levels != 2 || sustainable != 1 {
		t.Fatalf("report has %d level p99 rows and %d summary rows, want 2 and 1", levels, sustainable)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	for _, kind := range []string{"POST /patterns", "DELETE /patterns", "scan", "feed"} {
		if fake.counts[kind] == 0 {
			t.Errorf("server saw no %s requests: %v", kind, fake.counts)
		}
	}
}

func TestParseMix(t *testing.T) {
	if w, err := parseMix("90, 5,5"); err != nil || w != [3]int{90, 5, 5} {
		t.Fatalf("parseMix = %v, %v", w, err)
	}
	for _, bad := range []string{"1,2", "a,1,1", "-1,1,1", "0,0,0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}
