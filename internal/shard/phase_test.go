package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPhaseSplitBasicsAndUpsertSemantics(t *testing.T) {
	set := newSet(t, 4)
	set.SetWritePhaseMode(ModeSplit)
	if got := set.PhaseNow(); got != "split" {
		t.Fatalf("phase = %q, want split", got)
	}

	// Split-phase writes are upserts: duplicate inserts and absent deletes
	// both succeed and resolve at merge.
	if _, err := set.Insert([]byte("alpha"), enc("alpha")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := set.Insert([]byte("alpha"), enc("alpha")); err != nil {
		t.Fatalf("duplicate split Insert: %v", err)
	}
	if err := set.Delete([]byte("ghost"), enc("ghost")); err != nil {
		t.Fatalf("absent split Delete: %v", err)
	}
	set.Flush()
	if !set.Has([]byte("alpha")) {
		t.Fatal("alpha not live after Flush")
	}
	if set.Has([]byte("ghost")) {
		t.Fatal("ghost live after Flush")
	}
	st := set.Stats()
	if st.Patterns != 1 {
		t.Fatalf("Patterns = %d, want 1 (duplicate insert must collapse)", st.Patterns)
	}
	if st.SplitWrites != 3 {
		t.Fatalf("SplitWrites = %d, want 3", st.SplitWrites)
	}
	if st.SplitPendingOps != 0 {
		t.Fatalf("SplitPendingOps = %d, want 0 after Flush", st.SplitPendingOps)
	}
	if st.Merges == 0 || st.MergedOps != 3 {
		t.Fatalf("Merges/MergedOps = %d/%d, want ≥1/3", st.Merges, st.MergedOps)
	}
	checkMatch(t, set, "xxalphaxx", []string{"alpha"})

	// Rejoining drains synchronously and restores strict error semantics.
	set.SetWritePhaseMode(ModeJoined)
	if got := set.PhaseNow(); got != "joined" {
		t.Fatalf("phase = %q, want joined", got)
	}
	if _, err := set.Insert([]byte("alpha"), enc("alpha")); err != ErrDuplicate {
		t.Fatalf("joined duplicate Insert err = %v, want ErrDuplicate", err)
	}
	if err := set.Delete([]byte("ghost"), enc("ghost")); err != ErrNotFound {
		t.Fatalf("joined absent Delete err = %v, want ErrNotFound", err)
	}
	if set.Stats().PhaseSwitches != 2 {
		t.Fatalf("PhaseSwitches = %d, want 2", set.Stats().PhaseSwitches)
	}
}

func TestPhaseLastWriterWins(t *testing.T) {
	set := newSet(t, 2)
	// A base pattern that predates the split phase, folded into a compiled
	// engine, so deletes cross the overlay/base boundary.
	insert(t, set, "base")
	set.Reconcile()

	set.SetWritePhaseMode(ModeSplit)
	seq := [][2]string{ // {op, key}
		{"ins", "kite"}, {"del", "kite"}, {"ins", "kite"}, // final: live
		{"ins", "wasp"}, {"del", "wasp"}, // final: dead
		{"del", "newt"}, {"ins", "newt"}, // absent delete first: live
		{"del", "base"}, {"ins", "base"}, {"del", "base"}, // base entry: dead
	}
	for _, s := range seq {
		if s[0] == "ins" {
			if _, err := set.Insert([]byte(s[1]), enc(s[1])); err != nil {
				t.Fatalf("Insert(%q): %v", s[1], err)
			}
		} else if err := set.Delete([]byte(s[1]), enc(s[1])); err != nil {
			t.Fatalf("Delete(%q): %v", s[1], err)
		}
	}
	set.Flush()
	want := map[string]bool{"kite": true, "wasp": false, "newt": true, "base": false}
	for k, live := range want {
		if set.Has([]byte(k)) != live {
			t.Errorf("Has(%q) = %v, want %v", k, !live, live)
		}
	}
	checkMatch(t, set, "kite wasp newt base", []string{"kite", "newt"})

	// The same final state must survive a full recompile.
	set.Reconcile()
	checkMatch(t, set, "kite wasp newt base", []string{"kite", "newt"})
}

func TestPhaseProgramOrderAcrossMerges(t *testing.T) {
	set := newSet(t, 4)
	set.SetPhasePolicy(PhasePolicy{MergeEvery: 200 * time.Microsecond})
	set.SetWritePhaseMode(ModeSplit)

	// One goroutine toggling one key: however the coordinator slices the log
	// into merge batches, the final state must match program order. A Flush
	// every 1000 ops merges at least once per stretch, so the log is always
	// split across several batches whatever the merge loop's timing.
	const rounds = 4001 // odd: ends inserted
	key := []byte("toggle")
	for i := 0; i < rounds; i++ {
		if i%2 == 0 {
			if _, err := set.Insert(key, enc("toggle")); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		} else if err := set.Delete(key, enc("toggle")); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if i%1000 == 999 {
			set.Flush()
		}
	}
	set.Flush()
	if !set.Has(key) {
		t.Fatal("toggle must be live after an odd number of alternating ops")
	}
	if st := set.Stats(); st.Merges < 2 {
		t.Fatalf("only %d merges; the Flush points must split the log into several batches", st.Merges)
	}
	checkMatch(t, set, "xtogglex", []string{"toggle"})
}

func TestPhaseAutoSwitchesUnderLoad(t *testing.T) {
	set := newSet(t, 4)
	set.SetPhasePolicy(PhasePolicy{
		MergeEvery:  500 * time.Microsecond,
		DecideEvery: 2 * time.Millisecond,
		EnterPerSec: 2000,
		ExitPerSec:  500,
	})
	set.SetWritePhaseMode(ModeAuto)
	if got := set.PhaseNow(); got != "joined" {
		t.Fatalf("auto mode starts in %q, want joined", got)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := fmt.Sprintf("storm-%04d", i%512)
			set.Insert([]byte(p), enc(p))
			set.Delete([]byte(p), enc(p))
			i++
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return set.PhaseNow() == "split" },
		"auto mode to enter split under storm")
	close(stop)
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return set.PhaseNow() == "joined" },
		"auto mode to rejoin once quiet")
	if st := set.Stats(); st.SplitWrites == 0 {
		t.Fatal("no writes took the split path during the storm")
	}
}

func TestPhaseCloseFlushesPrivateLogs(t *testing.T) {
	set := New(2, mk)
	set.SetWritePhaseMode(ModeSplit)
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("close-%d", i)
		if _, err := set.Insert([]byte(p), enc(p)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	set.Close() // no explicit Flush: Close itself must drain the logs
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("close-%d", i)
		if !set.Has([]byte(p)) {
			t.Fatalf("%q lost across Close", p)
		}
	}
	if _, err := set.Insert([]byte("late"), enc("late")); err != ErrClosed {
		t.Fatalf("Insert after Close err = %v, want ErrClosed", err)
	}
	set.Close() // idempotent
}

func TestPhaseReplaceDrainsSplitLogs(t *testing.T) {
	set := newSet(t, 2)
	set.SetWritePhaseMode(ModeSplit)
	if _, err := set.Insert([]byte("old"), enc("old")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// Replace must fold the pending split op into the old world first (where
	// it is immediately discarded), leaving exactly the new dictionary.
	if err := set.Replace([][]byte{[]byte("new")}, [][]int32{enc("new")}); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if set.Has([]byte("old")) {
		t.Fatal("old pattern survived Replace")
	}
	if !set.Has([]byte("new")) {
		t.Fatal("new pattern missing after Replace")
	}
	if got := set.Stats().SplitPendingOps; got != 0 {
		t.Fatalf("SplitPendingOps = %d after Replace, want 0", got)
	}
}

func TestPhaseConcurrentStorm(t *testing.T) {
	set := newSet(t, 4)
	set.SetPhasePolicy(PhasePolicy{MergeEvery: 300 * time.Microsecond})
	set.SetWritePhaseMode(ModeSplit)
	insert(t, set, "anchor")
	set.Reconcile()

	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := fmt.Sprintf("w%d-%03d", w, i%64)
				set.Insert([]byte(p), enc(p))
				if i%3 == 0 {
					set.Delete([]byte(p), enc(p))
				}
				i++
			}
		}(w)
	}
	// Readers run concurrently; the anchor pattern predates the storm and
	// must be found by every scan.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				res, c := set.Match(mk, enc("xx anchor yy"), nil)
				if c != nil {
					t.Errorf("match canceled: %v", c.Err())
					return
				}
				found := false
				for j := range res.Len {
					if res.Len[j] == int32(len("anchor")) {
						found = true
					}
				}
				if !found {
					t.Error("anchor lost mid-storm")
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	set.Flush()
	set.Reconcile()
	if !set.Has([]byte("anchor")) {
		t.Fatal("anchor lost")
	}
}

func TestCleanSnapshotFastPath(t *testing.T) {
	set := newSet(t, 2)
	live := []string{"he", "she", "hers", "his"}
	insert(t, set, live...)
	set.Reconcile()

	// Every shard is reconciled: snapshots must be clean (no overlay state),
	// and matching must serve straight off the base engines.
	for _, s := range *set.shards.Load() {
		sn := s.snap.Load()
		if len(sn.adds) != 0 || len(sn.delBase) != 0 || len(s.pending) != 0 {
			t.Fatalf("shard not clean after Reconcile: adds=%d del=%d pend=%d",
				len(sn.adds), len(sn.delBase), len(s.pending))
		}
		if sn.base != nil && len(sn.baseLen) != len(sn.baseEnt) {
			t.Fatalf("baseLen len %d != baseEnt len %d", len(sn.baseLen), len(sn.baseEnt))
		}
	}
	text := "ushers his he"
	checkMatch(t, set, text, live)

	// AllAt through clean hits: longest-first, complete.
	r, c := set.Match(mk, enc(text), nil)
	if c != nil {
		t.Fatalf("match canceled: %v", c.Err())
	}
	hits := r.AllAt(1, nil) // "shers..." → she, sh? — expect "she" then "sh"? only live: she, he at 2
	var got []string
	for _, h := range hits {
		got = append(got, string(h.Raw))
	}
	if len(got) != 1 || got[0] != "she" {
		t.Fatalf("AllAt(1) = %v, want [she]", got)
	}

	// Dirty the overlay (delete + insert), verify the translated path, then
	// reconcile back to clean and verify again.
	if err := set.Delete([]byte("she"), enc("she")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	insert(t, set, "ushers")
	liveNow := []string{"he", "hers", "his", "ushers"}
	checkMatch(t, set, text, liveNow)
	set.Reconcile()
	checkMatch(t, set, text, liveNow)
}
