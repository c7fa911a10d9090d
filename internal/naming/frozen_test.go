package naming

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"pardict/internal/pram"
)

// homeSlot mirrors Frozen's slot derivation for a table of the given shift.
func homeSlot(k uint64, shift uint) uint64 { return (k * fib64) >> shift }

// keysWithHome brute-forces n distinct keys whose home slot (for a table of
// 2^(64-shift) slots) equals want.
func keysWithHome(t *testing.T, shift uint, want uint64, n int) []uint64 {
	t.Helper()
	var out []uint64
	for k := uint64(1); len(out) < n && k < 1<<22; k++ {
		if homeSlot(k, shift) == want {
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d keys homing to slot %d", len(out), n, want)
	}
	return out
}

// freezeOf builds the table keys[i] -> i+1 for distinct keys.
func freezeOf(t *testing.T, keys []uint64) *Frozen {
	t.Helper()
	vals := make([]int32, len(keys))
	for i := range vals {
		vals[i] = int32(i + 1)
	}
	return FreezeKeys(pram.New(1), keys, vals, len(keys))
}

// TestFrozenCollisionCluster stores several keys that all home to the same
// slot, forcing a maximal linear-probe cluster, and checks that every key is
// found and that absent keys probing through the cluster miss cleanly.
func TestFrozenCollisionCluster(t *testing.T) {
	// 4 entries -> size 8 -> shift 61.
	keys := keysWithHome(t, 61, 3, 4)
	f := freezeOf(t, keys)
	for i, k := range keys {
		if v, ok := f.Get(k); !ok || v != int32(i+1) {
			t.Fatalf("key %d (cluster pos %d): got (%d,%v)", k, i, v, ok)
		}
	}
	// An absent key homing into the same cluster must walk it and miss.
	probe := keysWithHome(t, 61, 3, 5)[4]
	if v, ok := f.Get(probe); ok {
		t.Fatalf("absent cluster key %d reported hit %d", probe, v)
	}
	if f.Lookup(probe) != None {
		t.Fatal("Lookup of absent key != None")
	}
}

// TestFrozenProbeWraparound fills the last slots of the table so the probe
// chain must wrap from the top index back to 0.
func TestFrozenProbeWraparound(t *testing.T) {
	// 4 entries -> size 8; home everything at slot 7 so the cluster is
	// 7, 0, 1, 2.
	keys := keysWithHome(t, 61, 7, 4)
	f := freezeOf(t, keys)
	if f.mask != 7 {
		t.Fatalf("expected size-8 table, mask=%d", f.mask)
	}
	for i, k := range keys {
		if v, ok := f.Get(k); !ok || v != int32(i+1) {
			t.Fatalf("wrapped key %d: got (%d,%v)", k, v, ok)
		}
	}
	// The slots after the wrap must hold the overflow: slot 7 occupied plus
	// at least one of slots 0..2.
	if f.fps[7] == 0 {
		t.Fatal("home slot 7 empty")
	}
	if f.fps[0] == 0 {
		t.Fatal("probe chain did not wrap to slot 0")
	}
	// A miss that starts at slot 7 must wrap and terminate.
	probe := keysWithHome(t, 61, 7, 5)[4]
	if _, ok := f.Get(probe); ok {
		t.Fatal("absent wrapped key reported present")
	}
}

// TestFrozenFingerprintAliasing finds two distinct keys with the same home
// slot AND the same 8-bit fingerprint, so the probe must fall through to the
// full key compare to tell them apart.
func TestFrozenFingerprintAliasing(t *testing.T) {
	var a, b uint64
	seen := map[[2]uint64]uint64{} // (home, fp) -> key
	for k := uint64(1); k < 1<<24; k++ {
		h := k * fib64
		sig := [2]uint64{h >> 61, uint64(fingerprint(h))}
		if prev, ok := seen[sig]; ok {
			a, b = prev, k
			break
		}
		seen[sig] = k
	}
	if b == 0 {
		t.Fatal("no fingerprint-aliased key pair found")
	}
	f := freezeOf(t, []uint64{a, b})
	if v, ok := f.Get(a); !ok || v != 1 {
		t.Fatalf("aliased key a: (%d,%v)", v, ok)
	}
	if v, ok := f.Get(b); !ok || v != 2 {
		t.Fatalf("aliased key b: (%d,%v)", v, ok)
	}
}

// TestFrozenFullTableProbe loads the table to its exact capacity bound
// (size = smallest power of two >= 2n) and verifies every probe chain,
// including misses that must traverse long runs.
func TestFrozenFullTableProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := map[uint64]int32{}
	var order []uint64
	for len(keys) < 1024 {
		k := rng.Uint64()
		if _, dup := keys[k]; dup {
			continue
		}
		keys[k] = int32(len(keys) + 1)
		order = append(order, k)
	}
	f := freezeOf(t, order)
	if f.Len() != 1024 || len(f.fps) != 2048 {
		t.Fatalf("len = %d, capacity %d", f.Len(), len(f.fps))
	}
	for k, want := range keys {
		if got, ok := f.Get(k); !ok || got != want {
			t.Fatalf("key %d: (%d,%v) want %d", k, got, ok, want)
		}
	}
	for i := 0; i < 100000; i++ {
		k := rng.Uint64()
		if _, present := keys[k]; present {
			continue
		}
		if v, ok := f.Get(k); ok {
			t.Fatalf("random absent key %d hit with %d", k, v)
		}
	}
}

// FuzzFrozenVsMap asserts frozen lookups are identical to map lookups on
// arbitrary key sets, repeated keys included (the first value wins in both).
func FuzzFrozenVsMap(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		oracle := map[uint64]int32{}
		// Even-led triples insert keys (clustered into a small space so
		// collisions are common), odd-led ones probe.
		var keys, probes []uint64
		var vals []int32
		for i := 0; i+2 < len(data); i += 3 {
			var kb [8]byte
			copy(kb[:], data[i:i+3])
			k := binary.LittleEndian.Uint64(kb[:]) % 509
			if data[i]%2 == 0 {
				v := int32(data[i+1]) + 1 // never None
				if _, dup := oracle[k]; !dup {
					oracle[k] = v
				}
				keys = append(keys, k)
				vals = append(vals, v)
			} else {
				probes = append(probes, k)
			}
		}
		fz := FreezeKeys(pram.New(1), keys, vals, len(oracle))
		if fz.Len() != len(oracle) {
			t.Fatalf("frozen len %d, oracle %d", fz.Len(), len(oracle))
		}
		check := func(k uint64) {
			got, gok := fz.Get(k)
			want, wok := oracle[k]
			if gok != wok || (gok && got != want) {
				t.Fatalf("Get(%d): frozen (%d,%v), map (%d,%v)", k, got, gok, want, wok)
			}
		}
		for k := range oracle {
			check(k)
		}
		for _, k := range probes {
			check(k)
		}
	})
}
