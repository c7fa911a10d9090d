package lz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Container format (.lzc), following the save-format v2 conventions
// (version byte, length-prefixed payload, trailing CRC-32):
//
//	magic      uint32 LE  ("pdLZ")
//	version    byte       (containerVersion)
//	payloadLen uint64 LE
//	payload    [payloadLen]byte
//	crc        uint32 LE  (IEEE, over magic..payload)
//
// payload:
//
//	n   uvarint            decoded length
//	z   uvarint            phrase count
//	z × phrase:
//	    head uvarint       length<<1 | isCopy
//	    delta uvarint      (copy only) start - src, ≥ 1
//	lits [..]byte          concatenated literal bytes, length implied
//
// The CRC is verified before the payload is parsed, so any corruption —
// truncation, a flipped bit anywhere, a wrong version byte's payload — is
// reported as ErrCorrupt deterministically rather than as a parse error on
// garbage.

const (
	containerMagic   = 0x5a4c6470 // "pdLZ" little-endian
	containerVersion = 1
	// maxLen caps the decoded length a container may claim, bounding the
	// allocation a hostile header can force before any data is trusted.
	maxLen = 1 << 31
)

// ErrCorrupt is reported when a container fails structural validation or its
// checksum. Callers in pardict wrap it into ErrCorruptSave.
var ErrCorrupt = errors.New("lz: container corrupt")

// Sniff reports whether data begins with the container magic — a cheap
// is-this-even-an-lzc check that lets callers distinguish "wrong file kind"
// from "right kind, corrupted".
func Sniff(data []byte) bool {
	return len(data) >= 4 && binary.LittleEndian.Uint32(data) == containerMagic
}

// Save serializes the parsed text in the .lzc container format.
func (t *Text) Save(w io.Writer) error {
	var num [binary.MaxVarintLen64]byte
	payload := make([]byte, 0, 16+2*len(t.src)+len(t.lits))
	put := func(v uint64) {
		payload = append(payload, num[:binary.PutUvarint(num[:], v)]...)
	}
	put(uint64(t.n))
	put(uint64(len(t.src)))
	for i := range t.src {
		length := uint64(t.starts[i+1] - t.starts[i])
		if t.src[i] < 0 {
			put(length << 1)
		} else {
			put(length<<1 | 1)
			put(uint64(t.starts[i] - t.src[i]))
		}
	}
	payload = append(payload, t.lits...)

	head := make([]byte, 13)
	binary.LittleEndian.PutUint32(head[0:], containerMagic)
	head[4] = containerVersion
	binary.LittleEndian.PutUint64(head[5:], uint64(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(head)
	crc.Write(payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	for _, b := range [][]byte{head, payload, tail[:]} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a container written by Save, verifying the checksum before
// parsing and failing closed on any structural inconsistency.
func Load(r io.Reader) (*Text, error) {
	head := make([]byte, 13)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(head[0:]) != containerMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if head[4] != containerVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrCorrupt, head[4])
	}
	plen := binary.LittleEndian.Uint64(head[5:])
	if plen > maxLen {
		return nil, fmt.Errorf("%w: implausible payload length", ErrCorrupt)
	}
	// The payload grows as its bytes arrive, so a forged length costs memory
	// in proportion to the bytes actually sent.
	payload, err := io.ReadAll(io.LimitReader(r, int64(plen)))
	if err != nil || uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: short payload", ErrCorrupt)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: short checksum", ErrCorrupt)
	}
	crc := crc32.NewIEEE()
	crc.Write(head)
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(tail[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return parsePayload(payload)
}

func parsePayload(payload []byte) (*Text, error) {
	pos := 0
	get := func() (uint64, bool) {
		v, k := binary.Uvarint(payload[pos:])
		if k <= 0 {
			return 0, false
		}
		pos += k
		return v, true
	}
	n, ok1 := get()
	z, ok2 := get()
	// Every phrase costs at least one payload byte, so the bytes left bound
	// z before anything is allocated for it.
	if !ok1 || !ok2 || n > maxLen || z > n || z > uint64(len(payload)-pos) || (n > 0 && z == 0) {
		return nil, fmt.Errorf("%w: bad dimensions", ErrCorrupt)
	}
	t := &Text{
		n:      int(n),
		starts: make([]int64, z+1),
		src:    make([]int64, z),
	}
	var at, litTotal int64
	for i := 0; i < int(z); i++ {
		head, ok := get()
		if !ok {
			return nil, fmt.Errorf("%w: truncated phrase list", ErrCorrupt)
		}
		length := int64(head >> 1)
		if length < 1 || at+length > int64(n) {
			return nil, fmt.Errorf("%w: bad phrase length", ErrCorrupt)
		}
		t.starts[i] = at
		if head&1 == 0 {
			t.src[i] = -1
			litTotal += length
		} else {
			delta, ok := get()
			if !ok || delta < 1 || int64(delta) > at {
				return nil, fmt.Errorf("%w: bad copy source", ErrCorrupt)
			}
			t.src[i] = at - int64(delta)
		}
		at += length
	}
	if at != int64(n) {
		return nil, fmt.Errorf("%w: phrase lengths do not cover text", ErrCorrupt)
	}
	t.starts[z] = at
	if int64(len(payload)-pos) != litTotal {
		return nil, fmt.Errorf("%w: literal bytes mismatch", ErrCorrupt)
	}
	t.lits = payload[pos:]
	return t, nil
}

// EncodedSize reports the exact byte size of the container Save emits:
// compressed size for ratio accounting without a serialization pass.
func (t *Text) EncodedSize() int {
	size := 13 + 4 // header + crc
	size += uvarintLen(uint64(t.n)) + uvarintLen(uint64(len(t.src)))
	for i := range t.src {
		length := uint64(t.starts[i+1] - t.starts[i])
		if t.src[i] < 0 {
			size += uvarintLen(length << 1)
		} else {
			size += uvarintLen(length<<1 | 1)
			size += uvarintLen(uint64(t.starts[i] - t.src[i]))
		}
	}
	return size + len(t.lits)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
