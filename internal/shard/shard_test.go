package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pardict/internal/pram"
)

func mk() *pram.Ctx { return pram.New(0) }

func enc(s string) []int32 {
	out := make([]int32, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = int32(s[i])
	}
	return out
}

func newSet(t *testing.T, n int) *Set {
	t.Helper()
	set := New(n, mk)
	t.Cleanup(set.Close)
	return set
}

func insert(t *testing.T, set *Set, pats ...string) {
	t.Helper()
	for _, p := range pats {
		if _, err := set.Insert([]byte(p), enc(p)); err != nil {
			t.Fatalf("Insert(%q): %v", p, err)
		}
	}
}

// oracle computes, per position, the longest pattern of live beginning there.
func oracle(text string, live []string) []int {
	out := make([]int, len(text))
	for j := range text {
		for _, p := range live {
			if len(p) > out[j] && j+len(p) <= len(text) && text[j:j+len(p)] == p {
				out[j] = len(p)
			}
		}
	}
	return out
}

func checkMatch(t *testing.T, set *Set, text string, live []string) {
	t.Helper()
	r, c := set.Match(mk, enc(text), nil)
	if c != nil {
		t.Fatalf("match canceled: %v", c.Err())
	}
	want := oracle(text, live)
	for j := range want {
		if int(r.Len[j]) != want[j] {
			t.Fatalf("text %q live %v: position %d: got len %d, want %d",
				text, live, j, r.Len[j], want[j])
		}
		if want[j] > 0 && r.ID[j] < 0 {
			t.Fatalf("position %d: match of len %d has no id", j, want[j])
		}
	}
}

func TestInsertDeleteMatch(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			set := newSet(t, shards)
			live := []string{"he", "she", "his", "hers", "shells"}
			insert(t, set, live...)
			checkMatch(t, set, "ushershellshis", live)

			if err := set.Delete([]byte("she"), enc("she")); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			live = []string{"he", "his", "hers", "shells"}
			checkMatch(t, set, "ushershellshis", live)

			// Re-insert after delete (same content, new id).
			insert(t, set, "she")
			checkMatch(t, set, "ushershellshis", append(live, "she"))
		})
	}
}

func TestMutationErrors(t *testing.T) {
	set := newSet(t, 2)
	insert(t, set, "abc")
	if _, err := set.Insert([]byte("abc"), enc("abc")); err != ErrDuplicate {
		t.Fatalf("duplicate insert: got %v, want ErrDuplicate", err)
	}
	if err := set.Delete([]byte("zzz"), enc("zzz")); err != ErrNotFound {
		t.Fatalf("missing delete: got %v, want ErrNotFound", err)
	}
	if _, err := set.Insert([]byte{}, nil); err != ErrEmptyPattern {
		t.Fatalf("empty insert: got %v, want ErrEmptyPattern", err)
	}
	if !set.Has([]byte("abc")) || set.Has([]byte("zzz")) {
		t.Fatalf("Has wrong")
	}
}

func TestReconcileFoldsLog(t *testing.T) {
	set := newSet(t, 2)
	live := []string{"alpha", "beta", "gamma", "delta", "ab", "bc"}
	insert(t, set, live...)
	st := set.Stats()
	if st.PendingOps != len(live) {
		t.Fatalf("pending ops = %d, want %d", st.PendingOps, len(live))
	}
	set.Reconcile()
	st = set.Stats()
	if st.PendingOps != 0 {
		t.Fatalf("pending ops after Reconcile = %d, want 0", st.PendingOps)
	}
	if st.Rebuilds == 0 || st.Epoch == 0 {
		t.Fatalf("expected rebuilds and epoch advance, got %+v", st)
	}
	if st.ReconcileWork == 0 {
		t.Fatalf("expected reconcile work to be charged")
	}
	checkMatch(t, set, "xxalphabetagammaxx", live)

	// Delete a now-compiled pattern: served through the delBase overlay.
	if err := set.Delete([]byte("beta"), enc("beta")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	live = []string{"alpha", "gamma", "delta", "ab", "bc"}
	checkMatch(t, set, "xxalphabetagammaxx", live)
	set.Reconcile()
	checkMatch(t, set, "xxalphabetagammaxx", live)
}

func TestBackgroundRebuildTriggers(t *testing.T) {
	set := newSet(t, 2)
	set.SetRebuildThresholds(1, 4) // rebuild after a handful of ops
	var live []string
	for i := 0; i < 64; i++ {
		p := fmt.Sprintf("pat%02d", i)
		live = append(live, p)
		insert(t, set, p)
	}
	// The trigger is per shard, so the reconciler drains each shard below it;
	// the sum over shards may stay above it (3 + 3 pending under a trigger
	// of 4).
	caughtUp := func() bool {
		for _, s := range *set.shards.Load() {
			s.mu.Lock()
			pending := len(s.pending)
			s.mu.Unlock()
			if pending >= set.maxPendingOps {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if set.Stats().Rebuilds > 0 && caughtUp() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background reconciler never caught up: %+v", set.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkMatch(t, set, "xxpat00pat63xx", live)
}

// TestWritesDuringRebuildReplay drives writes into the window between a
// rebuild's capture and its swap (via the gate hook) and verifies the replay
// path folds them onto the new base correctly — including the tricky
// delete-then-reinsert ordering.
func TestWritesDuringRebuildReplay(t *testing.T) {
	set := newSet(t, 1)
	live := []string{"alpha", "beta", "gamma"}
	insert(t, set, live...)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	set.SetGate(func() {
		once.Do(func() { close(entered) })
		<-release
	})
	done := make(chan struct{})
	go func() { set.Reconcile(); close(done) }()
	<-entered
	// Mid-compile: delete a captured pattern, re-insert it, add a fresh one.
	if err := set.Delete([]byte("beta"), enc("beta")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	insert(t, set, "beta", "epsilon")
	if err := set.Delete([]byte("alpha"), enc("alpha")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	close(release)
	<-done
	set.SetGate(nil)

	live = []string{"beta", "gamma", "epsilon"}
	checkMatch(t, set, "alphabetagammaepsilon", live)
	// A second reconcile compiles the replayed ops in; results must not move.
	set.Reconcile()
	if st := set.Stats(); st.PendingOps != 0 {
		t.Fatalf("pending after second reconcile: %+v", st)
	}
	checkMatch(t, set, "alphabetagammaepsilon", live)
	if set.Has([]byte("alpha")) {
		t.Fatalf("alpha should be gone")
	}
}

// TestReadersNeverBlockOnRebuild stalls the reconciler inside a rebuild and
// asserts scans still complete promptly against the old snapshot.
func TestReadersNeverBlockOnRebuild(t *testing.T) {
	set := newSet(t, 1)
	set.SetRebuildThresholds(1, 8)
	live := []string{"he", "she", "hers"}
	insert(t, set, live...)
	set.Reconcile()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	set.SetGate(func() {
		once.Do(func() { close(entered) })
		<-release
	})
	defer close(release)
	// Push enough writes to trip the background trigger.
	var extra []string
	for i := 0; i < 16; i++ {
		p := fmt.Sprintf("w%03d", i)
		extra = append(extra, p)
		insert(t, set, p)
	}
	<-entered // reconciler is now stalled mid-rebuild

	start := time.Now()
	checkMatch(t, set, "usherw000w015", append(append([]string{}, live...), extra...))
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("scan took %v while rebuild stalled; readers must not block", d)
	}
}

func TestPinGauge(t *testing.T) {
	set := newSet(t, 2)
	insert(t, set, "ab")
	if got := set.Stats().PinnedSnapshots; got != 0 {
		t.Fatalf("pinned at rest = %d", got)
	}
	r, c := set.Match(mk, enc("xabx"), nil)
	if c != nil || r == nil {
		t.Fatalf("match failed")
	}
	if got := set.Stats().PinnedSnapshots; got != 0 {
		t.Fatalf("pinned after match = %d, want 0 (unpinned on return)", got)
	}
	if GlobalMetrics().Pinned < 0 {
		t.Fatalf("global pinned gauge went negative")
	}
}

func TestReplaceAtomic(t *testing.T) {
	set := newSet(t, 4)
	insert(t, set, "old1", "old2")
	newLive := []string{"new1", "newer2", "ne"}
	raws := make([][]byte, len(newLive))
	encs := make([][]int32, len(newLive))
	for i, p := range newLive {
		raws[i], encs[i] = []byte(p), enc(p)
	}
	if err := set.Replace(raws, encs); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if set.Has([]byte("old1")) {
		t.Fatalf("old pattern survived Replace")
	}
	checkMatch(t, set, "xxnew1newer2old1", newLive)
	// Mutations keep working on the fresh shards.
	insert(t, set, "old1")
	checkMatch(t, set, "xxnew1newer2old1", append(newLive, "old1"))

	// Replace validates before touching anything.
	if err := set.Replace([][]byte{[]byte("a"), []byte("a")}, [][]int32{enc("a"), enc("a")}); err != ErrDuplicate {
		t.Fatalf("duplicate Replace: got %v", err)
	}
	if err := set.Replace([][]byte{{}}, [][]int32{{}}); err != ErrEmptyPattern {
		t.Fatalf("empty Replace: got %v", err)
	}
	checkMatch(t, set, "xxnew1newer2old1", append(newLive, "old1"))
}

func TestClosedSet(t *testing.T) {
	set := New(2, mk)
	insert(t, set, "abc")
	set.Close()
	set.Close() // idempotent
	if _, err := set.Insert([]byte("x"), enc("x")); err != ErrClosed {
		t.Fatalf("insert after close: %v", err)
	}
	if err := set.Delete([]byte("abc"), enc("abc")); err != ErrClosed {
		t.Fatalf("delete after close: %v", err)
	}
	if err := set.Replace(nil, nil); err != ErrClosed {
		t.Fatalf("replace after close: %v", err)
	}
	// Scans still serve the final state.
	checkMatch(t, set, "xabcx", []string{"abc"})
}

func TestAllAt(t *testing.T) {
	set := newSet(t, 3)
	live := []string{"a", "ab", "abc", "abcd"}
	insert(t, set, live...)
	set.Reconcile()
	insert(t, set, "abcde") // pending overlay entry
	r, c := set.Match(mk, enc("abcdef"), nil)
	if c != nil {
		t.Fatalf("canceled: %v", c.Err())
	}
	hits := r.AllAt(0, nil)
	if len(hits) != 5 {
		t.Fatalf("AllAt(0) = %d hits, want 5 (%v)", len(hits), hits)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Len >= hits[i-1].Len {
			t.Fatalf("AllAt not longest-first: %v", hits)
		}
	}
	if string(hits[0].Raw) != "abcde" {
		t.Fatalf("longest hit = %q, want abcde", hits[0].Raw)
	}
}

// TestRandomizedVsOracle churns a small pattern universe through inserts,
// deletes, reconciles and scans, comparing every scan against the brute
// oracle.
func TestRandomizedVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	set := newSet(t, 3)
	set.SetRebuildThresholds(8, 16)
	universe := make([]string, 40)
	for i := range universe {
		n := 1 + rng.Intn(6)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + rng.Intn(3))
		}
		universe[i] = string(b)
	}
	live := map[string]bool{}
	text := func() string {
		n := 20 + rng.Intn(40)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + rng.Intn(3))
		}
		return string(b)
	}
	for step := 0; step < 400; step++ {
		p := universe[rng.Intn(len(universe))]
		switch {
		case rng.Intn(3) == 0 && live[p]:
			if err := set.Delete([]byte(p), enc(p)); err != nil {
				t.Fatalf("step %d delete %q: %v", step, p, err)
			}
			delete(live, p)
		case !live[p]:
			if _, err := set.Insert([]byte(p), enc(p)); err != nil {
				t.Fatalf("step %d insert %q: %v", step, p, err)
			}
			live[p] = true
		}
		if step%20 == 19 {
			set.Reconcile()
		}
		if step%5 == 4 {
			var ls []string
			for p := range live {
				ls = append(ls, p)
			}
			checkMatch(t, set, text(), ls)
		}
	}
}
