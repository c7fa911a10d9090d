package pardict

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"
)

// ErrSaveUnsupported reports an attempt to Save a matcher whose engine does
// not support serialization. LoadMatcher rebuilds a general-engine matcher,
// so only general-engine matchers are saved.
var ErrSaveUnsupported = errors.New("pardict: only the general engine supports Save")

// ErrCorruptSave reports a Save-format stream whose trailing checksum does
// not match its content — truncation, bit rot, or an interrupted write.
// Loaders fail closed: no partially-validated matcher is ever returned.
var ErrCorruptSave = errors.New("pardict: save data corrupt (checksum mismatch)")

// A Save-format stream is little-endian:
//
//	magic    uint32  ("pdM1")
//	version  uint32
//	sigma    uint32 length, then the alphabet's bytes (0 = raw bytes)
//	patterns uint32 count, then each pattern as uint32 length and bytes
//	engine   (version 2 only) uint64 length, then the compiled tables
//	crc      uint32  CRC-32 (IEEE) of everything before it
//
// Save writes version 3. Loads read versions 2 and 3 and rebuild the engine
// from the pattern list; a version-2 engine section is checksummed but never
// parsed. Version 1, which had no checksum, is refused.
const (
	matcherMagic     = 0x70644D31 // "pdM1"
	matcherVersionV2 = 2
	matcherVersion   = 3
)

// crcWriter tees everything written into a running CRC.
type crcWriter struct {
	w io.Writer
	h hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.h.Write(p[:n])
	return n, err
}

// crcReader tees everything read into a running CRC. It sits ABOVE the bufio
// layer (it pulls from the bufio.Reader): binary.Read and io.ReadFull consume
// exact byte counts through it, so the hash covers precisely the parsed
// payload even though bufio reads ahead from the underlying stream.
type crcReader struct {
	r io.Reader
	h hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.h.Write(p[:n])
	return n, err
}

// Save writes the matcher's alphabet and pattern list to w, followed by a
// CRC-32 that lets loads detect truncation and corruption. Only
// general-engine matchers are serializable; see LoadMatcher.
func (m *Matcher) Save(w io.Writer) error {
	if m.engine != EngineGeneral {
		return ErrSaveUnsupported
	}
	cw := &crcWriter{w: w, h: crc32.NewIEEE()}
	bw := bufio.NewWriter(cw)
	// A bufio.Writer's first error sticks, so the Flush below reports it.
	write := func(b []byte) { _, _ = bw.Write(b) }
	var word [4]byte
	put := func(v int) { write(binary.LittleEndian.AppendUint32(word[:0], uint32(v))) }
	put(matcherMagic)
	put(matcherVersion)
	put(len(m.cfg.sigma))
	write(m.cfg.sigma)
	put(len(m.patterns))
	for _, p := range m.patterns {
		put(len(p))
		write(p)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The checksum goes straight to w: it covers everything flushed so far
	// and is itself excluded from the hash.
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, cw.h.Sum32()))
	return err
}

// LoadMatcher reads a stream written by Save and builds a general-engine
// matcher over its patterns with NewMatcher, so every option but the engine
// and the alphabet, which come from the stream, applies as it does there. The
// stream is checksum-verified before anything is built: a corrupt or
// truncated stream returns an error wrapping ErrCorruptSave and no matcher,
// and a version-1 stream, which had no checksum, is refused.
func LoadMatcher(r io.Reader, opts ...Option) (*Matcher, error) {
	sigma, patterns, err := readSaved(r)
	if err != nil {
		return nil, err
	}
	return NewMatcher(patterns, append(opts[:len(opts):len(opts)], WithAlphabet(sigma), WithEngine(EngineGeneral))...)
}

// readSaved parses a Save-format stream into its alphabet (nil for raw
// bytes) and pattern list, and verifies its checksum. Past the magic and
// version every failure is a truncated or damaged stream and wraps
// ErrCorruptSave. Slices grow as bytes arrive, never by the declared counts:
// the stream may come from the network, and a forged header must not cost
// more memory than the bytes actually sent.
func readSaved(r io.Reader) (sigma []byte, patterns [][]byte, err error) {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br, h: crc32.NewIEEE()}
	corrupt := func(err error) ([]byte, [][]byte, error) {
		return nil, nil, fmt.Errorf("pardict: load: %w: %w", ErrCorruptSave, err)
	}
	var head [3]uint32 // magic, version, alphabet length
	if err := binary.Read(cr, binary.LittleEndian, &head); err != nil {
		return corrupt(err)
	}
	magic, version, sigLen := head[0], head[1], head[2]
	switch {
	case magic != matcherMagic:
		return nil, nil, fmt.Errorf("pardict: load: bad magic %#x", magic)
	case version != matcherVersionV2 && version != matcherVersion:
		return nil, nil, fmt.Errorf("pardict: load: unsupported version %d", version)
	case sigLen > 256:
		return corrupt(fmt.Errorf("implausible alphabet size %d", sigLen))
	}
	if sigLen > 0 {
		sigma = make([]byte, sigLen)
		if _, err := io.ReadFull(cr, sigma); err != nil {
			return corrupt(err)
		}
	}
	var np uint32
	if err := binary.Read(cr, binary.LittleEndian, &np); err != nil {
		return corrupt(err)
	}
	if np > 1<<28 {
		return corrupt(fmt.Errorf("implausible pattern count %d", np))
	}
	for i := uint32(0); i < np; i++ {
		var l uint32
		if err := binary.Read(cr, binary.LittleEndian, &l); err != nil {
			return corrupt(err)
		}
		if l > 1<<28 {
			return corrupt(fmt.Errorf("implausible pattern length %d", l))
		}
		p, err := readBytes(cr, uint64(l))
		if err != nil {
			return corrupt(err)
		}
		patterns = append(patterns, p)
	}
	if version == matcherVersionV2 {
		// The compiled tables are rebuilt from the pattern list, so the
		// section is only checksummed.
		var engLen uint64
		if err := binary.Read(cr, binary.LittleEndian, &engLen); err != nil {
			return corrupt(err)
		}
		if engLen > 1<<31 {
			return corrupt(fmt.Errorf("implausible engine section size %d", engLen))
		}
		if _, err := io.CopyN(io.Discard, cr, int64(engLen)); err != nil {
			return corrupt(fmt.Errorf("truncated engine section: %w", err))
		}
	}
	// The checksum is read around the hashing layer and must match
	// everything parsed so far.
	want := cr.h.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return corrupt(fmt.Errorf("missing checksum: %w", err))
	}
	if binary.LittleEndian.Uint32(sum[:]) != want {
		return nil, nil, fmt.Errorf("pardict: load: %w", ErrCorruptSave)
	}
	return sigma, patterns, nil
}

// readChunk bounds how far readBytes allocates ahead of the bytes read.
const readChunk = 1 << 16

// readBytes reads exactly n bytes, growing the buffer as they arrive, so a
// forged length costs memory in proportion to the bytes actually present.
func readBytes(r io.Reader, n uint64) ([]byte, error) {
	var b []byte
	for uint64(len(b)) < n {
		k := readChunk
		if rest := n - uint64(len(b)); rest < readChunk {
			k = int(rest)
		}
		b = slices.Grow(b, k)
		if _, err := io.ReadFull(r, b[len(b):len(b)+k]); err != nil {
			return nil, err
		}
		b = b[:len(b)+k]
	}
	return b, nil
}
