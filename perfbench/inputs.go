package main

import (
	"math/rand"
	"time"

	"pardict"
	"pardict/internal/alpha"
	"pardict/internal/prefilter"
	"pardict/internal/streamcore"
	"pardict/internal/workload"
)

// Inputs shared by serve-read and write-storm: a 4 MiB access-log corpus, a
// dictionary sampled from it (so hits are dense) and 4 KiB request texts.
const (
	logCorpus     = 4 << 20
	serveText     = 4 << 10
	serveTexts    = 512
	servePatterns = 2000
	sampleEvery   = 8 // every 8th scan of a client is kept for the oracle
)

type serveInputs struct {
	dict, texts [][]byte
}

func newServeInputs(seed int64) serveInputs {
	corpus := workload.LogsText(seed, logCorpus)
	dict := workload.SampleDictionary(seed+1, corpus, servePatterns, 4, 24)
	rng := rand.New(rand.NewSource(seed + 2))
	return serveInputs{dict: dict, texts: slicesOf(rng, corpus, serveTexts, serveText)}
}

// slicesOf returns count windows of length n at seeded offsets of corpus.
func slicesOf(rng *rand.Rand, corpus []byte, count, n int) [][]byte {
	out := make([][]byte, count)
	for i := range out {
		at := rng.Intn(len(corpus) - n + 1)
		out[i] = corpus[at : at+n : at+n]
	}
	return out
}

func newSharded(pool *pardict.Pool, dict [][]byte, phase pardict.WritePhase) (*pardict.ShardedMatcher, error) {
	m, err := pardict.NewShardedMatcher(pardict.WithPool(pool), pardict.WithWritePhase(phase))
	if err != nil {
		return nil, err
	}
	if err := m.Reload(dict); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

func encodeAll(enc *alpha.Encoder, dict [][]byte) ([][]int32, error) {
	out := make([][]int32, len(dict))
	for i, p := range dict {
		e, err := enc.EncodePattern(p)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// kernelBytes is how much of a workload's text the kernel timings cover.
const kernelBytes = 4 << 20

// kernel selects the layer kernels setKernels times.
type kernel int

const (
	kernelEncode    kernel = 1 << iota // alpha: Encoder.EncodeInto
	kernelPrefilter                    // prefilter: the wide screen
	kernelStream                       // streamcore: an Aho–Corasick session
)

// setKernels times the selected kernels by calling them directly on this
// workload's dictionary and texts. Each is the median of five passes over
// kernelBytes. A workload times only the kernels of layers it runs; the
// others read 0, which checkIsolation relies on.
func (b *bench) setKernels(dict, texts [][]byte, which kernel) error {
	enc := alpha.NewByteEncoder()
	pats, err := encodeAll(enc, dict)
	if err != nil {
		return err
	}
	var sample [][]byte
	total := 0
	for total < kernelBytes {
		for _, t := range texts {
			sample = append(sample, t)
			total += len(t)
		}
	}
	median5 := func(f func()) float64 {
		var ns []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			f()
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		}
		return quantile(ns, 0.5) / float64(total)
	}

	if which&kernelEncode != 0 {
		var dst []int32
		b.layer["alpha.encode_ns_per_byte"] = median5(func() {
			for _, t := range sample {
				dst = enc.EncodeInto(dst, t)
			}
		})
	}

	if which&kernelPrefilter != 0 {
		encoded := make([][]int32, len(sample))
		for i, t := range sample {
			encoded[i] = enc.Encode(t)
		}
		f := prefilter.Build(pats)
		words := make([]uint64, (len(sample[0])+63)/64)
		b.layer["prefilter.ns_per_byte"] = median5(func() {
			for _, t := range encoded {
				w := (len(t) + 63) / 64
				if w > len(words) {
					words = make([]uint64, w)
				}
				f.ScanWordsWide(t, words[:w], 0, w)
			}
		})
	}

	if which&kernelStream != 0 {
		core, err := streamcore.NewCore(pats, enc)
		if err != nil {
			return err
		}
		nop := func(int64, int) {}
		b.layer["streamcore.scan_ns_per_byte"] = median5(func() {
			s := core.NewSession()
			for _, t := range sample {
				s.Buffer(t)
				s.Scan(0)
				s.EmitFinal(nop)
			}
		})
	}
	return nil
}
