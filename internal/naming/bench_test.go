package naming

import (
	"math/rand"
	"testing"

	"pardict/internal/pram"
)

// BenchmarkLookup: the matching hot path does one lookup per text position
// per level, so this microbenchmark bounds engine throughput.
func BenchmarkLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 16
	keys := make([]uint64, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		vals[i] = int32(i)
	}
	fz := FreezeKeys(pram.New(0), keys, vals, n)
	probes := make([]uint64, 1<<12)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = keys[rng.Intn(n)] // hit
		} else {
			probes[i] = rng.Uint64() // miss
		}
	}
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += fz.Lookup(probes[i&(len(probes)-1)])
	}
	lookupSink = sink
}

// lookupSink keeps BenchmarkLookup's lookups from being optimized away.
var lookupSink int32

func BenchmarkBatchName(b *testing.B) {
	c := pram.New(0)
	rng := rand.New(rand.NewSource(2))
	const n = 1 << 16
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(n / 4)) // plenty of duplicates
	}
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchName(c, keys)
	}
}
