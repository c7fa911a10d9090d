package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI drives run() with captured output, the way main does.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errw bytes.Buffer
	err = run(args, &out, &errw)
	return out.String(), errw.String(), err
}

// TestCLIMissingInputFile pins the one-line-error contract: a nonexistent
// -text or -dict file yields a clear message, not a stack trace or a raw
// *PathError dump.
func TestCLIMissingInputFile(t *testing.T) {
	dir := t.TempDir()
	dict := filepath.Join(dir, "d.txt")
	if err := os.WriteFile(dict, []byte("abc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := runCLI(t, "-dict", dict, "-text", filepath.Join(dir, "missing.txt"))
	if err == nil {
		t.Fatal("want error for missing text file")
	}
	if !strings.Contains(err.Error(), "does not exist") || !strings.Contains(err.Error(), "missing.txt") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if strings.Contains(err.Error(), "\n") {
		t.Fatalf("error is not one line: %q", err)
	}

	_, _, err = runCLI(t, "-dict", filepath.Join(dir, "nodict.txt"), "-text", dict)
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("missing dict: %v", err)
	}
}

// TestCLICorruptContainer pins the second error path: a .lzc container that
// fails its CRC is reported as a clear one-line corruption message.
func TestCLICorruptContainer(t *testing.T) {
	dir := t.TempDir()
	dict := filepath.Join(dir, "d.txt")
	text := filepath.Join(dir, "t.txt")
	lzc := filepath.Join(dir, "t.lzc")
	if err := os.WriteFile(dict, []byte("abcab\nab\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(text, bytes.Repeat([]byte("abcab"), 2000), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, "-text", text, "-compress", lzc); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(lzc)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x20
	if err := os.WriteFile(lzc, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = runCLI(t, "-dict", dict, "-text", lzc, "-compressed")
	if err == nil {
		t.Fatal("want error for corrupt container")
	}
	if !strings.Contains(err.Error(), "corrupt") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("unhelpful corruption error: %v", err)
	}

	// A non-container file is also a one-liner, not a checksum complaint.
	_, _, err = runCLI(t, "-dict", dict, "-text", text, "-compressed")
	if err == nil || !strings.Contains(err.Error(), "not a .lzc") {
		t.Fatalf("non-container error: %v", err)
	}
}

// TestCLICompressedMatchesRaw pins end-to-end equivalence through the CLI:
// -compressed output is byte-identical to matching the raw text.
func TestCLICompressedMatchesRaw(t *testing.T) {
	dir := t.TempDir()
	dict := filepath.Join(dir, "d.txt")
	text := filepath.Join(dir, "t.txt")
	lzc := filepath.Join(dir, "t.lzc")
	if err := os.WriteFile(dict, []byte("abcab\nab\nb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	corpus := append(bytes.Repeat([]byte("abcabxy"), 3000), []byte("tailabcab")...)
	if err := os.WriteFile(text, corpus, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, err := runCLI(t, "-text", text, "-compress", lzc); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(stderr, "compressed") {
		t.Fatalf("no compression summary: %q", stderr)
	}
	raw, _, err := runCLI(t, "-dict", dict, "-text", text, "-all")
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := runCLI(t, "-dict", dict, "-text", lzc, "-compressed", "-all")
	if err != nil {
		t.Fatal(err)
	}
	if raw != comp {
		t.Fatal("compressed-domain CLI output differs from raw")
	}
	if raw == "" {
		t.Fatal("no matches printed")
	}
}

// TestCLILoadMatchesDict: a dictionary written by -compile and read back
// with -load prints what -dict prints under the same flags — the matches,
// the engine and the preprocessing cost, since -load builds the matcher as
// -dict does.
func TestCLILoadMatchesDict(t *testing.T) {
	dir := t.TempDir()
	dict := filepath.Join(dir, "d.txt")
	text := filepath.Join(dir, "t.txt")
	pdm := filepath.Join(dir, "d.pdm")
	if err := os.WriteFile(dict, []byte("he\nshe\nhis\nhers\nusher\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(text, []byte("ushers said his hers is hers"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, "-dict", dict, "-compile", pdm); err != nil {
		t.Fatal(err)
	}
	flags := []string{"-text", text, "-prefilter", "wide", "-all", "-stats"}
	wantOut, wantErr, err := runCLI(t, append([]string{"-dict", dict}, flags...)...)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, gotErr, err := runCLI(t, append([]string{"-load", pdm}, flags...)...)
	if err != nil {
		t.Fatal(err)
	}
	if gotOut != wantOut || wantOut == "" {
		t.Fatalf("-load printed\n%s\n-dict printed\n%s", gotOut, wantOut)
	}
	for _, prefix := range []string{"engine=", "preprocess:"} {
		if got, want := statsLine(gotErr, prefix), statsLine(wantErr, prefix); got != want || want == "" {
			t.Fatalf("-load %q, -dict %q", got, want)
		}
	}
}

// TestCLILoadRefusesEngineFlags: a loaded dictionary takes its alphabet and
// the general engine from the file, so -load turns -alphabet, -collapse and
// an -engine other than auto or general into usage errors naming the flag,
// instead of ignoring them.
func TestCLILoadRefusesEngineFlags(t *testing.T) {
	dir := t.TempDir()
	dict := filepath.Join(dir, "d.txt")
	text := filepath.Join(dir, "t.txt")
	pdm := filepath.Join(dir, "d.pdm")
	if err := os.WriteFile(dict, []byte("ac\ngt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(text, []byte("acgtacgt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, "-dict", dict, "-compile", pdm); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-alphabet", []string{"-alphabet", "acgt"}},
		{"-collapse", []string{"-collapse", "2"}},
		{"-engine", []string{"-engine", "smallalpha"}},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			_, _, err := runCLI(t, append([]string{"-load", pdm, "-text", text}, tc.args...)...)
			if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("-load %v: %v, want a usage error naming %s", tc.args, err, tc.flag)
			}
			if _, _, err := runCLI(t, append([]string{"-dict", dict, "-text", text}, tc.args...)...); err != nil {
				t.Fatalf("-dict %v: %v", tc.args, err)
			}
		})
	}
	for _, engine := range []string{"auto", "general"} {
		if _, _, err := runCLI(t, "-load", pdm, "-text", text, "-engine", engine); err != nil {
			t.Fatalf("-load -engine %s: %v", engine, err)
		}
	}
}

// statsLine returns the first line of s that starts with prefix.
func statsLine(s, prefix string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// TestCLIUsageErrors pins exit-code classification: flag mistakes are
// errUsage, operational failures are not.
func TestCLIUsageErrors(t *testing.T) {
	if _, _, err := runCLI(t); !errors.Is(err, errUsage) {
		t.Fatalf("no args: %v", err)
	}
	dir := t.TempDir()
	dict := filepath.Join(dir, "d.txt")
	if err := os.WriteFile(dict, []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, "-dict", dict, "-engine", "bogus"); !errors.Is(err, errUsage) {
		t.Fatalf("bogus engine: %v", err)
	}
	if _, _, err := runCLI(t, "-dict", dict, "-text", filepath.Join(dir, "nope")); errors.Is(err, errUsage) {
		t.Fatal("missing file misclassified as usage error")
	}
}

func TestReadLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pats.txt")
	if err := os.WriteFile(path, []byte("abc\n\ndef\nxy"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readLines(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"abc", "def", "xy"}
	if len(got) != len(want) {
		t.Fatalf("got %d lines", len(got))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReadLinesMissing(t *testing.T) {
	if _, err := readLines("/nonexistent/file"); err == nil {
		t.Fatal("want error")
	}
}
