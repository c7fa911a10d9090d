package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"pardict/internal/naming"
	"pardict/internal/pram"
)

// Serialization of a preprocessed Dict: a compiled dictionary can be built
// once and shipped (the use case: large signature databases distributed to
// scanners). The format is a little-endian sequence of sections with a
// magic/version header and a length-prefixed layout; tables are stored as
// flat key/value arrays and refilled into frozen tables on load.
//
// The format makes no cross-version promises beyond the embedded version
// byte: Load rejects unknown versions.

const (
	dictMagic   = 0x70644431 // "pdD1"
	dictVersion = 1
)

// ErrBadFormat reports a malformed or truncated serialized dictionary.
var ErrBadFormat = errors.New("core: bad serialized dictionary")

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Save writes the preprocessed dictionary to w and returns the byte count.
func (d *Dict) Save(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if err := d.save(bw); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

func (d *Dict) save(w io.Writer) error {
	putU32 := func(v uint32) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := putU32(dictMagic); err != nil {
		return err
	}
	if err := putU32(dictVersion); err != nil {
		return err
	}
	if err := putU32(uint32(d.maxLen)); err != nil {
		return err
	}
	if err := putU32(uint32(d.levels)); err != nil {
		return err
	}
	if err := putU32(uint32(d.nameCount)); err != nil {
		return err
	}

	// Patterns.
	if err := putU32(uint32(len(d.patterns))); err != nil {
		return err
	}
	for _, p := range d.patterns {
		if err := writeInt32s(w, p); err != nil {
			return err
		}
	}
	// Prefix names, aligned with patterns.
	for _, row := range d.pn {
		if err := writeInt32s(w, row); err != nil {
			return err
		}
	}
	// Flat name-indexed arrays.
	for _, arr := range [][]int32{d.lenOfName, d.repPat, d.patOfName, d.lp, d.nextShort, d.patNames} {
		if err := writeInt32s(w, arr); err != nil {
			return err
		}
	}
	// Tables. up[0] is always nil; store levels 1..levels-1 then down 0..levels-1.
	for k := 1; k < d.levels; k++ {
		if err := writeTable(w, d.up[k]); err != nil {
			return err
		}
	}
	for k := 0; k < d.levels; k++ {
		if err := writeTable(w, d.down[k]); err != nil {
			return err
		}
	}
	return nil
}

func writeInt32s(w io.Writer, xs []int32) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(xs))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, xs)
}

func writeTable(w io.Writer, t *naming.Frozen) error {
	n := t.Len()
	if err := binary.Write(w, binary.LittleEndian, uint32(n)); err != nil {
		return err
	}
	keys := make([]uint64, 0, n)
	vals := make([]int32, 0, n)
	t.Range(func(k uint64, v int32) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	if err := binary.Write(w, binary.LittleEndian, keys); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, vals)
}

// Load reads a dictionary previously written by Save. Table reconstruction
// is charged to c.
func Load(c *pram.Ctx, r io.Reader) (*Dict, error) {
	br := bufio.NewReader(r)
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if magic != dictMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadFormat, magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if version != dictVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	d := &Dict{}
	var maxLen, levels, nameCount, np uint32
	for _, p := range []*uint32{&maxLen, &levels, &nameCount, &np} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
		}
	}
	const limit = 1 << 31
	if maxLen > limit || levels > 64 || nameCount > limit || np > limit {
		return nil, fmt.Errorf("%w: implausible header", ErrBadFormat)
	}
	d.maxLen = int(maxLen)
	d.levels = int(levels)
	d.nameCount = int(nameCount)

	// Every slice grows as its elements arrive, never by a declared count:
	// the stream may come from the network, and a forged count must not cost
	// more memory than the bytes actually sent.
	for i := uint32(0); i < np; i++ {
		p, err := readInt32s(br)
		if err != nil {
			return nil, err
		}
		d.patterns = append(d.patterns, p)
	}
	d.pn = make([][]int32, np)
	for i := range d.pn {
		row, err := readInt32s(br)
		if err != nil {
			return nil, err
		}
		if len(row) != len(d.patterns[i]) {
			return nil, fmt.Errorf("%w: pn row length mismatch", ErrBadFormat)
		}
		d.pn[i] = row
	}
	for _, dst := range []*[]int32{&d.lenOfName, &d.repPat, &d.patOfName, &d.lp, &d.nextShort, &d.patNames} {
		arr, err := readInt32s(br)
		if err != nil {
			return nil, err
		}
		*dst = arr
	}
	for _, arr := range [][]int32{d.lenOfName, d.repPat, d.patOfName, d.lp} {
		if len(arr) != d.nameCount {
			return nil, fmt.Errorf("%w: name array length mismatch", ErrBadFormat)
		}
	}
	if len(d.nextShort) != int(np) || len(d.patNames) != int(np) {
		return nil, fmt.Errorf("%w: pattern array length mismatch", ErrBadFormat)
	}

	d.up = make([]*naming.Frozen, d.levels)
	d.down = make([]*naming.Frozen, d.levels)
	for k := 1; k < d.levels; k++ {
		t, err := readTable(c, br)
		if err != nil {
			return nil, err
		}
		d.up[k] = t
	}
	for k := 0; k < d.levels; k++ {
		t, err := readTable(c, br)
		if err != nil {
			return nil, err
		}
		d.down[k] = t
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// validate checks every value that matching or expansion uses as an index,
// and the header fields the window mechanism relies on. Load reads untrusted
// bytes: a version-1 stream carries no checksum, and a checksum catches
// corruption, not a crafted stream.
func (d *Dict) validate() error {
	longest := 0
	for _, p := range d.patterns {
		longest = max(longest, len(p))
	}
	if d.maxLen != longest || d.levels != bits.Len(uint(longest)) {
		return fmt.Errorf("%w: header disagrees with the patterns", ErrBadFormat)
	}
	names, np := int32(d.nameCount), int32(len(d.patterns))
	in := func(xs []int32, lo, hi int32) bool {
		for _, x := range xs {
			if x < lo || x >= hi {
				return false
			}
		}
		return true
	}
	ok := in(d.patNames, 0, names) && in(d.repPat, 0, np) && in(d.lenOfName, 1, int32(d.maxLen)+1) &&
		in(d.lp, -1, np) && in(d.patOfName, -1, np) && in(d.nextShort, -1, np)
	for _, row := range d.pn {
		ok = ok && in(row, 0, names)
	}
	for _, t := range d.down {
		t.Range(func(_ uint64, v int32) bool {
			ok = ok && v < names
			return ok
		})
	}
	if !ok {
		return fmt.Errorf("%w: table value out of range", ErrBadFormat)
	}
	return nil
}

func readInt32s(r io.Reader) ([]int32, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("%w: implausible array length %d", ErrBadFormat, n)
	}
	return readSlice[int32](r, int(n))
}

func readTable(c *pram.Ctx, r io.Reader) (*naming.Frozen, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("%w: implausible table size %d", ErrBadFormat, n)
	}
	keys, err := readSlice[uint64](r, int(n))
	if err != nil {
		return nil, err
	}
	vals, err := readSlice[int32](r, int(n))
	if err != nil {
		return nil, err
	}
	for _, v := range vals {
		if v < 0 {
			return nil, fmt.Errorf("%w: negative table value", ErrBadFormat)
		}
	}
	// A saved table holds each key once; a forged stream may repeat keys,
	// which len(keys) still bounds (the first value wins).
	return naming.FreezeKeys(c, keys, vals, len(keys)), nil
}

// readChunk bounds how many elements readSlice allocates ahead of the bytes
// read.
const readChunk = 1 << 14

// readSlice reads n little-endian values, growing the slice as they arrive,
// so a forged count costs memory in proportion to the bytes actually present.
func readSlice[T int32 | uint64](r io.Reader, n int) ([]T, error) {
	var xs []T
	for len(xs) < n {
		k := min(n-len(xs), readChunk)
		xs = slices.Grow(xs, k)[:len(xs)+k]
		if err := binary.Read(r, binary.LittleEndian, xs[len(xs)-k:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}
	return xs, nil
}
