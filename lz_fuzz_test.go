package pardict

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"
)

// FuzzLZRoundTrip is the factorization identity target: for arbitrary bytes
// (and a redundancy-amplified doubling of them) Parse∘Decode must be the
// identity, the container must round-trip to byte-identical Save output, and
// any single-byte corruption of the container must be rejected with
// ErrCorruptSave — never a panic, never a silently wrong text.
func FuzzLZRoundTrip(f *testing.F) {
	f.Add([]byte("abcabcabcabcabcabcabcabc"), uint32(3), byte(1))
	f.Add([]byte(""), uint32(0), byte(0xff))
	f.Add([]byte("x"), uint32(9), byte(2))
	f.Add(bytes.Repeat([]byte("the quick brown fox "), 40), uint32(100), byte(0x80))
	f.Add(bytes.Repeat([]byte{0}, 300), uint32(17), byte(4))
	f.Add([]byte("GATTACAGATTACAGATTACA"), uint32(5), byte(0x10))

	f.Fuzz(func(t *testing.T, data []byte, flipPos uint32, flipMask byte) {
		if len(data) > 1<<16 {
			return
		}
		// Both the raw input and a self-concatenation (guaranteed long copy
		// phrases once past MinMatch) must round-trip.
		for _, text := range [][]byte{data, append(append(append([]byte{}, data...), data...), data...)} {
			ct := Compress(text)
			if !bytes.Equal(ct.Decode(), text) {
				t.Fatal("Parse∘Decode is not the identity")
			}
			var buf bytes.Buffer
			if err := ct.Save(&buf); err != nil {
				t.Fatal(err)
			}
			blob := buf.Bytes()
			got, err := LoadCompressedText(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("load of fresh save: %v", err)
			}
			if !bytes.Equal(got.Decode(), text) {
				t.Fatal("container round trip is not the identity")
			}
			var buf2 bytes.Buffer
			if err := got.Save(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, buf2.Bytes()) {
				t.Fatal("re-save is not byte-identical")
			}

			// Single-byte corruption anywhere must be rejected.
			if flipMask != 0 && len(blob) > 0 {
				bad := bytes.Clone(blob)
				bad[int(flipPos)%len(bad)] ^= flipMask
				if _, err := LoadCompressedText(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptSave) {
					t.Fatalf("corrupted container: err = %v, want ErrCorruptSave", err)
				}
			}
		}
	})
}

// lzContainer wraps payload in a .lzc container whose header claims a
// payload of claimed bytes, with the magic and version of a Save and a
// checksum over the result, so the payload parser, not the CRC, meets it.
func lzContainer(claimed uint64, payload []byte) []byte {
	var saved bytes.Buffer
	if err := Compress(nil).Save(&saved); err != nil {
		panic(err)
	}
	b := append(saved.Bytes()[:5:5], binary.LittleEndian.AppendUint64(nil, claimed)...)
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// FuzzLZPayload hands the .lzc payload parser arbitrary bytes behind a valid
// header and checksum. LoadCompressedText must fail with ErrCorruptSave or
// return a text whose Decode has Len() bytes, and MatchCompressed over it
// must equal Match over Decode on a small fixed dictionary. Texts over 1 MiB
// are skipped before decoding: one copy phrase may claim 2^31 bytes.
func FuzzLZPayload(f *testing.F) {
	for _, text := range []string{"", "x", "abcabcabcabcabcabcabc", "the quick brown fox jumps; the quick brown fox jumps"} {
		var buf bytes.Buffer
		if err := Compress([]byte(text)).Save(&buf); err != nil {
			f.Fatal(err)
		}
		blob := buf.Bytes()
		f.Add(blob[13 : len(blob)-4])
	}
	m, err := NewMatcher(bs("ab", "abc", "bca", "cab", "x", "the quick"), WithEngine(EngineGeneral))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		ct, err := LoadCompressedText(bytes.NewReader(lzContainer(uint64(len(payload)), payload)))
		if err != nil {
			if !errors.Is(err, ErrCorruptSave) {
				t.Fatalf("err = %v, want ErrCorruptSave", err)
			}
			return
		}
		if ct.Len() > 1<<20 {
			return
		}
		text := ct.Decode()
		if len(text) != ct.Len() {
			t.Fatalf("Decode has %d bytes, Len %d", len(text), ct.Len())
		}
		got, want := m.MatchCompressed(ct), m.Match(text)
		if got.Len() != want.Len() {
			t.Fatalf("MatchCompressed Len %d, Match %d", got.Len(), want.Len())
		}
		var all, wantAll []int
		for i := 0; i < want.Len(); i++ {
			p, ok := got.Longest(i)
			wp, wok := want.Longest(i)
			if p != wp || ok != wok {
				t.Fatalf("pos %d: MatchCompressed %d,%v, Match %d,%v", i, p, ok, wp, wok)
			}
			all, wantAll = got.All(i, all[:0]), want.All(i, wantAll[:0])
			if !slices.Equal(all, wantAll) {
				t.Fatalf("pos %d: MatchCompressed All %v, Match %v", i, all, wantAll)
			}
		}
	})
}

// FuzzMatchCompressed is the compressed-domain equivalence target: input
// decodes as (dictionary ‖ 0xFF ‖ text) like FuzzMatchOracle, sel folds the
// symbols onto alphabets of size 2, 4, 26, or 256, and the matched text is a
// redundancy-amplified splice (text ‖ text[off:] ‖ text) so copy phrases
// straddle planted pattern occurrences. MatchCompressed must agree with
// Match over the decoded text position by position — Longest, All-chain, and
// PrefixLen availability — with the prefilter off and wide. The checked-in
// window-* seeds put a wide-screen survivor in the last W−1 positions, two
// survivors exactly 2W and 2W+1 apart, and a survivor at every position.
func FuzzMatchCompressed(f *testing.F) {
	f.Add([]byte("he\xfeshe\xfehis\xfehers\xffushershe"), byte(3), uint32(2))
	f.Add([]byte("a\xfeaa\xfeaaa\xffaaaaaaaaaaaa"), byte(0), uint32(1))
	f.Add([]byte("ab\xfeba\xffabbaabbaabba"), byte(1), uint32(5))
	f.Add([]byte("GAT\xfeTAC\xffGATTACAGATTACA"), byte(2), uint32(7))
	f.Add([]byte("xy\xffxyxyxyxyxyxyxyxyxyxy"), byte(1), uint32(3))

	f.Fuzz(func(t *testing.T, data []byte, sel byte, off uint32) {
		sep := bytes.IndexByte(data, 0xFF)
		if sep < 0 || len(data)-sep > 2048 {
			return
		}
		// Fold onto the selected alphabet; patterns and text identically.
		fold := func(b byte) byte {
			switch sel % 4 {
			case 0:
				return 'a' + b&1
			case 1:
				return 'a' + b&3
			case 2:
				return 'a' + b%26
			default:
				return b
			}
		}
		seen := map[string]bool{}
		var pats [][]byte
		for _, p := range bytes.Split(data[:sep], []byte{0xFE}) {
			if len(p) == 0 || len(p) > 64 {
				continue
			}
			q := make([]byte, len(p))
			for i, b := range p {
				q[i] = fold(b)
			}
			if seen[string(q)] {
				continue
			}
			seen[string(q)] = true
			pats = append(pats, q)
			if len(pats) == 12 {
				break
			}
		}
		if len(pats) == 0 {
			return
		}
		base := make([]byte, len(data)-sep-1)
		for i, b := range data[sep+1:] {
			base[i] = fold(b)
		}
		text := append([]byte(nil), base...)
		if len(base) > 0 {
			text = append(text, base[int(off)%len(base):]...)
		}
		text = append(text, base...)

		ct := Compress(text)
		if !bytes.Equal(ct.Decode(), text) {
			t.Fatal("Compress/Decode mismatch")
		}
		for _, opts := range [][]Option{
			{WithEngine(EngineGeneral)},
			{WithEngine(EngineGeneral), WithPrefilter(PrefilterOn)},
		} {
			m, err := NewMatcher(pats, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ref := m.Match(text)
			r := m.MatchCompressed(ct)
			if r.Len() != ref.Len() {
				t.Fatalf("Len %d, want %d", r.Len(), ref.Len())
			}
			var all, refAll []int
			for j := 0; j < r.Len(); j++ {
				p, ok := r.Longest(j)
				rp, rok := ref.Longest(j)
				if p != rp || ok != rok {
					t.Fatalf("pos %d: compressed %d,%v raw %d,%v (pats=%q)", j, p, ok, rp, rok, pats)
				}
				all = r.All(j, all[:0])
				refAll = ref.All(j, refAll[:0])
				if len(all) != len(refAll) {
					t.Fatalf("pos %d: All %d vs %d", j, len(all), len(refAll))
				}
				pl, plok := r.PrefixLen(j)
				rpl, rplok := ref.PrefixLen(j)
				if pl != rpl || plok != rplok {
					t.Fatalf("pos %d: PrefixLen %d,%v vs %d,%v", j, pl, plok, rpl, rplok)
				}
			}
			r.Release()
			ref.Release()
		}
	})
}
