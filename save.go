package pardict

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"

	"pardict/internal/core"
)

// ErrSaveUnsupported reports an attempt to Save a matcher whose engine does
// not support serialization (only the general engine ships compiled tables;
// other engines rebuild faster than they would load).
var ErrSaveUnsupported = errors.New("pardict: only the general engine supports Save")

// ErrCorruptSave reports a Save-format stream whose trailing checksum does
// not match its content — truncation, bit rot, or an interrupted write.
// Loaders fail closed: no partially-validated matcher is ever returned.
var ErrCorruptSave = errors.New("pardict: save data corrupt (checksum mismatch)")

const (
	matcherMagic = 0x70644D31 // "pdM1"
	// Version 1 is the original unchecksummed format. Version 2
	// length-prefixes the compiled-engine payload and appends a CRC-32
	// (IEEE) of everything from the magic through the payload. LoadMatcher
	// reads both; Save writes version 2.
	matcherVersionV1 = 1
	matcherVersion   = 2
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

// Save writes a compiled form of the matcher to w: a version-2 stream whose
// trailing CRC-32 lets loads detect truncation and corruption. Only
// general-engine matchers are serializable; see LoadMatcher.
func (m *Matcher) Save(w io.Writer) error {
	return m.saveVersion(w, matcherVersion)
}

// saveVersion writes the stream at an explicit format version (the test hook
// that keeps the version-1 reading path honest).
func (m *Matcher) saveVersion(w io.Writer, version uint32) error {
	if m.engine != EngineGeneral || m.general == nil {
		return ErrSaveUnsupported
	}
	cw := &crcWriter{w: w, h: crc32.NewIEEE()}
	bw := bufio.NewWriter(cw)
	for _, v := range []uint32{matcherMagic, version} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	// Alphabet (length-prefixed; 0 means raw bytes).
	sig := m.cfg.sigma
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(sig))); err != nil {
		return err
	}
	if _, err := bw.Write(sig); err != nil {
		return err
	}
	// Raw patterns (needed for Pattern() and the all-matches chain).
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(m.patterns))); err != nil {
		return err
	}
	for _, p := range m.patterns {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(p))); err != nil {
			return err
		}
		if _, err := bw.Write(p); err != nil {
			return err
		}
	}
	switch {
	case version >= 2:
		// The engine payload is length-prefixed so readers can hand the
		// engine loader an exactly-bounded region (its internal buffering
		// must not run into the checksum).
		var eng bytes.Buffer
		if _, err := m.general.Save(&eng); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(eng.Len())); err != nil {
			return err
		}
		if _, err := bw.Write(eng.Bytes()); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		// The checksum goes straight to w: it covers everything flushed so
		// far and is itself excluded from the hash.
		var sum [4]byte
		binary.LittleEndian.PutUint32(sum[:], cw.h.Sum32())
		if _, err := w.Write(sum[:]); err != nil {
			return err
		}
	default:
		if _, err := m.general.Save(bw); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// LoadMatcher reads a matcher written by Save. Options affecting execution
// (WithParallelism) apply; engine/alphabet come from the stream. Version-2
// streams are checksum-verified — a corrupt or truncated stream returns an
// error wrapping ErrCorruptSave and no matcher. Version-1 streams (written
// before the checksum existed) are still accepted.
func LoadMatcher(r io.Reader, opts ...Option) (*Matcher, error) {
	cfg := buildConfig(opts)
	br := bufio.NewReader(r)
	cr := &crcReader{r: br, h: crc32.NewIEEE()}
	var magic, version uint32
	if err := binary.Read(cr, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("pardict: load: %w", err)
	}
	if magic != matcherMagic {
		return nil, fmt.Errorf("pardict: load: bad magic %#x", magic)
	}
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("pardict: load: %w", err)
	}
	if version != matcherVersionV1 && version != matcherVersion {
		return nil, fmt.Errorf("pardict: load: unsupported version %d", version)
	}
	var sigLen uint32
	if err := binary.Read(cr, binary.LittleEndian, &sigLen); err != nil {
		return nil, fmt.Errorf("pardict: load: %w", err)
	}
	if sigLen > 256 {
		return nil, fmt.Errorf("pardict: load: implausible alphabet size %d", sigLen)
	}
	if sigLen > 0 {
		sig := make([]byte, sigLen)
		if _, err := io.ReadFull(cr, sig); err != nil {
			return nil, fmt.Errorf("pardict: load: %w", err)
		}
		cfg.sigma = sig
	}
	enc, err := cfg.encoder()
	if err != nil {
		return nil, err
	}

	var np uint32
	if err := binary.Read(cr, binary.LittleEndian, &np); err != nil {
		return nil, fmt.Errorf("pardict: load: %w", err)
	}
	if np > 1<<28 {
		return nil, fmt.Errorf("pardict: load: implausible pattern count %d", np)
	}
	// Slices grow as patterns arrive, never by the declared counts: the
	// stream may come from the network, and a forged header must not cost
	// more memory than the bytes actually sent.
	m := &Matcher{cfg: cfg, enc: enc, engine: EngineGeneral}
	for i := uint32(0); i < np; i++ {
		var l uint32
		if err := binary.Read(cr, binary.LittleEndian, &l); err != nil {
			return nil, fmt.Errorf("pardict: load: %w", err)
		}
		if l > 1<<28 {
			return nil, fmt.Errorf("pardict: load: implausible pattern length %d", l)
		}
		p, err := readBytes(cr, uint64(l))
		if err != nil {
			return nil, fmt.Errorf("pardict: load: %w", err)
		}
		e, err := enc.EncodePattern(p)
		if err != nil {
			return nil, err
		}
		m.patterns = append(m.patterns, p)
		m.encoded = append(m.encoded, e)
		if len(p) > m.maxLen {
			m.maxLen = len(p)
		}
		m.total += len(p)
	}

	ctx := cfg.newCtx()
	if version >= 2 {
		var engLen uint64
		if err := binary.Read(cr, binary.LittleEndian, &engLen); err != nil {
			return nil, fmt.Errorf("pardict: load: %w", err)
		}
		if engLen > 1<<31 {
			return nil, fmt.Errorf("pardict: load: implausible engine payload size %d", engLen)
		}
		blob, rerr := readBytes(cr, engLen)
		if rerr != nil {
			return nil, fmt.Errorf("pardict: load: %w: truncated engine payload (%w)", ErrCorruptSave, rerr)
		}
		// Verify before compiling: the checksum (read around the hashing
		// layer) must match everything parsed so far.
		want := cr.h.Sum32()
		var sum [4]byte
		if _, err := io.ReadFull(br, sum[:]); err != nil {
			return nil, fmt.Errorf("pardict: load: %w: missing checksum (%w)", ErrCorruptSave, err)
		}
		if got := binary.LittleEndian.Uint32(sum[:]); got != want {
			return nil, fmt.Errorf("pardict: load: %w", ErrCorruptSave)
		}
		m.general, err = core.Load(ctx, bytes.NewReader(blob))
	} else {
		m.general, err = core.Load(ctx, cr)
	}
	if err != nil {
		return nil, err
	}
	// The chain comes from the pattern list, never from the stream's stored
	// copy: a version-1 stream has no checksum, and a forged chain that loops
	// would hang All.
	if m.nextShorter, err = prefixChain(m.encoded); err != nil {
		return nil, err
	}
	// All indexes the list's chain with the engine's pattern ids, so the
	// engine must hold exactly the list's patterns.
	same := m.general.PatternCount() == len(m.encoded)
	for i := 0; same && i < len(m.encoded); i++ {
		same = slices.Equal(m.general.Pattern(i), m.encoded[i])
	}
	if !same {
		return nil, fmt.Errorf("pardict: load: %w: engine patterns differ from the pattern list", core.ErrBadFormat)
	}
	// The prefilter is derived state, not part of the save format: rebuild it
	// from the loaded patterns per the load-time options.
	m.applyPrefilter()
	m.buildStats = statsOf(ctx)
	return m, nil
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
