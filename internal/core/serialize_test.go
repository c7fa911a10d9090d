package core

import (
	"bytes"
	"errors"
	"testing"

	"pardict/internal/naming"
	"pardict/internal/workload"
)

func TestDictSaveLoadRoundTrip(t *testing.T) {
	pats := workload.Dictionary(23, 40, 1, 50, 5)
	c := ctx()
	d := mustDict(t, c, pats)
	var buf bytes.Buffer
	n, err := d.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	ld, err := Load(c, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if ld.MaxLen() != d.MaxLen() || ld.Levels() != d.Levels() ||
		ld.NameCount() != d.NameCount() || ld.PatternCount() != d.PatternCount() {
		t.Fatal("metadata mismatch")
	}
	text := workload.PlantedText(24, 5000, 5, pats, 40)
	r1 := d.Match(c, text)
	r2 := ld.Match(c, text)
	for j := range text {
		if r1.Pat[j] != r2.Pat[j] || r1.Len[j] != r2.Len[j] || r1.Name[j] != r2.Name[j] {
			t.Fatalf("pos %d: (%d,%d,%d) vs (%d,%d,%d)", j,
				r1.Pat[j], r1.Len[j], r1.Name[j], r2.Pat[j], r2.Len[j], r2.Name[j])
		}
	}
	// Prefix names survive too (used by dependent packages).
	for i := range pats {
		for l := 1; l <= len(pats[i]); l++ {
			if d.PrefixName(i, l) != ld.PrefixName(i, l) {
				t.Fatalf("prefix name (%d,%d) mismatch", i, l)
			}
		}
	}
}

func TestDictLoadRejectsCorruption(t *testing.T) {
	pats := workload.Dictionary(25, 8, 2, 10, 3)
	c := ctx()
	d := mustDict(t, c, pats)
	var buf bytes.Buffer
	if _, err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncations at many points must all fail cleanly.
	for cut := 0; cut < len(good); cut += 1 + len(good)/37 {
		if _, err := Load(c, bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := Load(c, bytes.NewReader(bad)); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Implausible header (huge levels).
	bad2 := append([]byte(nil), good...)
	bad2[12] = 0xFF
	if _, err := Load(c, bytes.NewReader(bad2)); err == nil {
		t.Fatal("accepted implausible header")
	}

	// Well-formed streams carrying one out-of-range value: every value that
	// matching or expansion uses as an index is checked, so none loads.
	for name, mutate := range map[string]func(d *Dict){
		"down value": func(d *Dict) {
			top := d.down[d.levels-1]
			var keys []uint64
			var vals []int32
			top.Range(func(k uint64, v int32) bool {
				keys, vals = append(keys, k), append(vals, v)
				return true
			})
			vals[len(vals)-1] = 1 << 20
			d.down[d.levels-1] = naming.FreezeKeys(c, keys, vals, len(keys))
		},
		"pn":        func(d *Dict) { d.pn[0][0] = int32(d.nameCount) },
		"patNames":  func(d *Dict) { d.patNames[0] = -1 },
		"repPat":    func(d *Dict) { d.repPat[0] = int32(len(d.patterns)) },
		"lenOfName": func(d *Dict) { d.lenOfName[0] = int32(d.maxLen) + 1 },
		"lp":        func(d *Dict) { d.lp[0] = -2 },
		"patOfName": func(d *Dict) { d.patOfName[0] = int32(len(d.patterns)) },
		"nextShort": func(d *Dict) { d.nextShort[0] = int32(len(d.patterns)) },
		"maxLen":    func(d *Dict) { d.maxLen++ },
	} {
		ld, err := Load(c, bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		mutate(ld)
		var b bytes.Buffer
		if _, err := ld.Save(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(c, &b); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s out of range: Load returned %v, want ErrBadFormat", name, err)
		}
	}
}

func TestDictSaveLoadEmpty(t *testing.T) {
	c := ctx()
	d := mustDict(t, c, nil)
	var buf bytes.Buffer
	if _, err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(c, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r := ld.Match(c, enc("abc"))
	for j := range r.Pat {
		if r.Pat[j] != -1 {
			t.Fatal("empty dict matched after load")
		}
	}
}
