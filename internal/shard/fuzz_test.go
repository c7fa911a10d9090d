package shard

import (
	"testing"
	"time"
)

// fuzzPatterns is FuzzShardOps's universe: short patterns over {a,b,c} that
// overlap one another, so most positions of fuzzText meet several of them.
var fuzzPatterns = []string{"a", "b", "ab", "ba", "abc", "cab", "bb", "ca", "aab", "cca"}

const fuzzText = "abcabbacabbcaabccabaabb"

// FuzzShardOps decodes each byte of a script into one step over
// fuzzPatterns[b>>3]: by b&7, an insert (0–2), a delete (3–4), a Flush (5),
// a Reconcile (6) or a joined/split switch (7). Rebuild thresholds are tiny
// and the split phase merges every 100µs, so background rebuilds and merges
// race the writes. A map oracle follows the script in program order. After
// every Flush and Reconcile the set must agree with it on the longest match
// at every position of fuzzText, on Has of every pattern and on the live
// count; in the joined phase every write must also return the oracle's
// ErrDuplicate or ErrNotFound.
func FuzzShardOps(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x10, 0x05, 0x0b, 0x05, 0x06, 0x08, 0x0b})
	f.Fuzz(runShardScript)
}

// runShardScript runs one FuzzShardOps script against the map oracle.
func runShardScript(t *testing.T, script []byte) {
	if len(script) > 512 {
		script = script[:512]
	}
	set := New(3, mk)
	defer set.Close()
	set.SetRebuildThresholds(1, 2)
	set.SetPhasePolicy(PhasePolicy{MergeEvery: 100 * time.Microsecond})
	live := map[string]bool{}
	split := false
	check := func(step int) {
		t.Helper()
		var ls []string
		for _, p := range fuzzPatterns {
			if set.Has([]byte(p)) != live[p] {
				t.Fatalf("step %d: Has(%q) = %v, want %v", step, p, !live[p], live[p])
			}
			if live[p] {
				ls = append(ls, p)
			}
		}
		if n := set.Stats().Patterns; n != len(ls) {
			t.Fatalf("step %d: %d live patterns, want %d", step, n, len(ls))
		}
		checkMatch(t, set, fuzzText, ls)
	}
	for step, b := range script {
		p := fuzzPatterns[int(b>>3)%len(fuzzPatterns)]
		switch op := b & 7; op {
		case 5:
			set.Flush()
			check(step)
		case 6:
			set.Reconcile()
			if n := set.Stats().PendingOps; n != 0 {
				t.Fatalf("step %d: %d ops pending after Reconcile", step, n)
			}
			check(step)
		case 7:
			split = !split
			if split {
				set.SetWritePhaseMode(ModeSplit)
			} else {
				set.SetWritePhaseMode(ModeJoined)
			}
		default:
			ins := op < 3
			var want, err error
			switch {
			case split || live[p] != ins:
			case ins:
				want = ErrDuplicate
			default:
				want = ErrNotFound
			}
			if ins {
				_, err = set.Insert([]byte(p), enc(p))
			} else {
				err = set.Delete([]byte(p), enc(p))
			}
			if err != want {
				t.Fatalf("step %d: insert=%v %q in split=%v: err %v, want %v", step, ins, p, split, err, want)
			}
			live[p] = ins
		}
	}
	set.Flush()
	check(len(script))
}
