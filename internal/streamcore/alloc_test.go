//go:build !race

// The race runtime defeats sync.Pool caching, so allocation counts are only
// asserted without it.

package streamcore

import "testing"

// TestSessionZeroAllocs pins the steady state: on a warmed session, Buffer,
// Scan and EmitFinal of a 4 KiB chunk take their carry and hit buffer from
// the slab pools and give them back, allocating nothing.
func TestSessionZeroAllocs(t *testing.T) {
	c := mustCore(t, "abracadabra", "cad", "ra", "a")
	s := c.NewSession()
	chunk := make([]byte, 4096)
	for i := range chunk {
		chunk[i] = "abracadabra."[i%12]
	}
	hits := 0
	emit := func(int64, int) { hits++ }
	feed := func() {
		s.Buffer(chunk)
		s.Scan(0)
		s.EmitFinal(emit)
	}
	feed()
	if hits == 0 {
		t.Fatal("vacuous workload")
	}
	if avg := testing.AllocsPerRun(100, feed); avg != 0 {
		t.Fatalf("%.1f allocations per 4 KiB chunk, want 0", avg)
	}
}
