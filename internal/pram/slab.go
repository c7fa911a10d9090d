package pram

import (
	"math/bits"
	"sync"
)

// Slab pools for the scan hot path. The engines' steady-state buffers (name
// and length arrays, prefilter bitmaps, match results) and the stream
// sessions' scratch (carries and hit buffers) are acquired from size-classed
// process-wide sync.Pools instead of make(), so a warmed matcher or stream
// session performs zero heap allocations per call. Slabs are classed by
// power-of-two capacity; an acquired slice has the requested length and
// ARBITRARY contents — callers must initialize it (the engines fold that
// initialization into phases they already charge for).

const slabClasses = 31

// slab is the pool set for one element type: class c holds *[]T of cap 1<<c.
// The header pool recycles the *[]T boxes the classes store, so release
// does not heap-allocate a slice header per call (Put(&local) would).
type slab[T any] struct {
	classes [slabClasses]sync.Pool
	hdr     sync.Pool
}

var (
	slabI32  slab[int32]
	slabU64  slab[uint64]
	slabByte slab[byte]
)

func slabClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func (p *slab[T]) acquire(n int) []T {
	c := slabClass(n)
	if c >= slabClasses {
		return make([]T, n)
	}
	if h, _ := p.classes[c].Get().(*[]T); h != nil {
		s := *h
		*h = nil
		p.hdr.Put(h)
		return s[:n]
	}
	return make([]T, n, 1<<c)
}

// release pools s under its capacity's class. Slices with non-power-of-two
// capacity (not slab-born) are dropped.
func (p *slab[T]) release(s []T) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 || slabClass(c) >= slabClasses {
		return
	}
	h, _ := p.hdr.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s[:0]
	p.classes[slabClass(c)].Put(h)
}

// AcquireInt32 returns an int32 slice of length n from the slab pools. The
// contents are arbitrary; pair with ReleaseInt32.
func AcquireInt32(n int) []int32 { return slabI32.acquire(n) }

// ReleaseInt32 returns a slice obtained from AcquireInt32 to the pools. The
// caller must not use s afterwards. Slices with non-power-of-two capacity
// (not slab-born) are dropped.
func ReleaseInt32(s []int32) { slabI32.release(s) }

// ResizeInt32 returns s resized to length n, reusing its storage when the
// capacity suffices and trading it back to the pools otherwise. The contents
// are arbitrary.
func ResizeInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	ReleaseInt32(s)
	return AcquireInt32(n)
}

// AcquireUint64 returns a uint64 slice of length n from the slab pools. The
// contents are arbitrary; pair with ReleaseUint64.
func AcquireUint64(n int) []uint64 { return slabU64.acquire(n) }

// ReleaseUint64 returns a slice obtained from AcquireUint64 to the pools.
func ReleaseUint64(s []uint64) { slabU64.release(s) }

// AcquireBytes returns a byte slice of length n from the slab pools. The
// contents are arbitrary; pair with ReleaseBytes.
func AcquireBytes(n int) []byte { return slabByte.acquire(n) }

// ReleaseBytes returns a slice obtained from AcquireBytes to the pools.
func ReleaseBytes(s []byte) { slabByte.release(s) }

// ctxPool recycles Ctx objects for the allocation-free match entry points.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// GetCtx returns a recycled Ctx bound to pool (nil selects the shared
// GOMAXPROCS-wide pool), never canceled, with zeroed counters. Pair with
// PutCtx when the execution is done.
func GetCtx(pool *Pool) *Ctx {
	if pool == nil {
		pool = Shared(0)
	}
	c := ctxPool.Get().(*Ctx)
	c.pool = pool
	c.gctx = nil
	c.done = nil
	c.canceled.Store(false)
	c.work.Store(0)
	c.depth.Store(0)
	c.labelCtx.Store(nil)
	c.tr = nil
	return c
}

// PutCtx returns a Ctx obtained from GetCtx. The caller must not use it (or
// submit phases on it) afterwards.
func PutCtx(c *Ctx) { ctxPool.Put(c) }
