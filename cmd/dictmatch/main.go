// Command dictmatch matches a dictionary of patterns against text.
//
// Patterns are read one per line from -dict; text is read from -text or
// stdin. For every text position with a match it prints the position and
// the longest pattern (or all patterns with -all).
//
// With -compile it writes the dictionary's alphabet and pattern list in the
// Save format and exits; -load reads such a file in place of -dict and
// builds a general-engine matcher over it with the file's alphabet, so it
// refuses -alphabet, -collapse and an -engine other than auto or general as
// usage errors; every other flag applies as with -dict.
//
// With -compress it writes the input as a .lzc compressed container and
// exits; with -compressed it treats the input as such a container and
// matches in the compressed domain (same output as matching the decoded
// text, but scanning only phrase-boundary windows).
//
// Usage:
//
//	dictmatch -dict patterns.txt | -load dict.pdm [-text input.txt]
//	          [-engine auto|general|smallalpha|equallength]
//	          [-alphabet acgt] [-collapse L] [-procs N] [-prefilter off|wide|auto]
//	          (with -load: no -alphabet, no -collapse, -engine auto|general)
//	          [-all] [-stats] [-count] [-compressed] [-compress out.lzc] [-compile out.pdm]
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"pardict"
)

// errUsage marks a command-line mistake: main exits 2 (flag convention)
// instead of 1.
var errUsage = errors.New("usage error")

func main() {
	log.SetFlags(0)
	log.SetPrefix("dictmatch: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			log.Print(err)
			os.Exit(2)
		}
		log.Fatal(err) // one line on stderr, no stack trace
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dictmatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dictPath   = fs.String("dict", "", "file with one pattern per line (required)")
		textPath   = fs.String("text", "", "text file (default stdin)")
		engine     = fs.String("engine", "auto", "auto|general|smallalpha|equallength")
		alphabet   = fs.String("alphabet", "", "restrict to this byte alphabet (enables smallalpha)")
		collapse   = fs.Int("collapse", 0, "collapse parameter L for smallalpha (0 = auto)")
		procs      = fs.Int("procs", 0, "parallelism (0 = GOMAXPROCS)")
		prefilt    = fs.String("prefilter", "off", "off|wide|auto: screen text positions before the cascade (general engine)")
		all        = fs.Bool("all", false, "print all patterns per position, not just the longest")
		stats      = fs.Bool("stats", false, "print PRAM work/depth statistics")
		countOn    = fs.Bool("count", false, "print only the number of matching positions")
		compile    = fs.String("compile", "", "write the dictionary (Save format: alphabet and patterns) to this file and exit")
		load       = fs.String("load", "", "read a dictionary written by -compile instead of -dict; it keeps its alphabet and the general engine, so -alphabet, -collapse and -engine other than auto|general are refused")
		compressed = fs.Bool("compressed", false, "input is a .lzc container; match in the compressed domain")
		compress   = fs.String("compress", "", "write the input text as a .lzc container to this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *dictPath == "" && *load == "" && *compress == "" {
		fs.Usage()
		return fmt.Errorf("%w: one of -dict, -load, or -compress is required", errUsage)
	}
	if *load != "" {
		// A loaded dictionary carries its alphabet and runs the general
		// engine, so these flags would do nothing.
		switch {
		case *alphabet != "":
			return fmt.Errorf("%w: -alphabet cannot be used with -load: the saved dictionary carries its alphabet", errUsage)
		case *collapse != 0:
			return fmt.Errorf("%w: -collapse cannot be used with -load: a loaded dictionary runs the general engine", errUsage)
		case *engine != "auto" && *engine != "general":
			return fmt.Errorf("%w: -engine %s cannot be used with -load: a loaded dictionary runs the general engine", errUsage, *engine)
		}
	}

	var patterns [][]byte
	var err error
	if *dictPath != "" && *compress == "" {
		patterns, err = readLines(*dictPath)
		if err != nil {
			return describeFileErr(*dictPath, err)
		}
	}
	var text []byte
	if *compile == "" {
		if *textPath == "" {
			text, err = io.ReadAll(os.Stdin)
			if err != nil {
				return fmt.Errorf("reading stdin: %v", err)
			}
		} else {
			text, err = os.ReadFile(*textPath)
			if err != nil {
				return describeFileErr(*textPath, err)
			}
		}
	}

	if *compress != "" {
		ct := pardict.Compress(text, pardict.WithParallelism(*procs))
		f, err := os.Create(*compress)
		if err != nil {
			return err
		}
		if err := ct.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "dictmatch: compressed %d bytes to %s (%d phrases, ratio %.2fx)\n",
			ct.Len(), *compress, ct.Phrases(), ct.Ratio())
		return nil
	}

	opts := []pardict.Option{pardict.WithParallelism(*procs)}
	if *compile != "" && *engine == "auto" {
		*engine = "general" // only general-engine matchers Save
	}
	switch *engine {
	case "auto":
	case "general":
		opts = append(opts, pardict.WithEngine(pardict.EngineGeneral))
	case "smallalpha":
		opts = append(opts, pardict.WithEngine(pardict.EngineSmallAlphabet))
	case "equallength":
		opts = append(opts, pardict.WithEngine(pardict.EngineEqualLength))
	default:
		return fmt.Errorf("%w: unknown engine %q", errUsage, *engine)
	}
	if *alphabet != "" {
		opts = append(opts, pardict.WithAlphabet([]byte(*alphabet)))
	}
	switch *prefilt {
	case "off":
	case "wide", "on":
		opts = append(opts, pardict.WithPrefilter(pardict.PrefilterOn))
	case "auto":
		opts = append(opts, pardict.WithPrefilter(pardict.PrefilterAuto))
	default:
		return fmt.Errorf("%w: unknown prefilter mode %q", errUsage, *prefilt)
	}
	if *collapse > 0 {
		opts = append(opts, pardict.WithCollapse(*collapse))
	}

	var m *pardict.Matcher
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			return describeFileErr(*load, ferr)
		}
		m, err = pardict.LoadMatcher(f, opts...)
		f.Close()
	} else {
		m, err = pardict.NewMatcher(patterns, opts...)
	}
	if err != nil {
		return err
	}
	if *compile != "" {
		f, ferr := os.Create(*compile)
		if ferr != nil {
			return ferr
		}
		if err := m.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "dictmatch: compiled %d patterns to %s\n", m.PatternCount(), *compile)
		return nil
	}

	var r *pardict.Matches
	n := len(text)
	if *compressed {
		name := *textPath
		if name == "" {
			name = "stdin"
		}
		if !pardict.IsCompressedContainer(text) {
			return fmt.Errorf("%s: not a .lzc compressed container", name)
		}
		ct, err := pardict.LoadCompressedText(bytes.NewReader(text))
		if err != nil {
			if errors.Is(err, pardict.ErrCorruptSave) {
				return fmt.Errorf("%s: compressed container corrupt (bad checksum or truncated)", name)
			}
			return err
		}
		n = ct.Len()
		r = m.MatchCompressed(ct)
	} else {
		r = m.Match(text)
	}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	switch {
	case *countOn:
		fmt.Fprintln(w, r.Count())
	case *all:
		var buf []int
		for i := 0; i < r.Len(); i++ {
			buf = r.All(i, buf[:0])
			for _, p := range buf {
				fmt.Fprintf(w, "%d\t%s\n", i, m.Pattern(p))
			}
		}
	default:
		for i := 0; i < r.Len(); i++ {
			if p, ok := r.Longest(i); ok {
				fmt.Fprintf(w, "%d\t%s\n", i, m.Pattern(p))
			}
		}
	}
	if *stats {
		b, s := m.BuildStats(), r.Stats()
		fmt.Fprintf(stderr, "engine=%s procs=%d\n", m.Engine(), s.Procs)
		fmt.Fprintf(stderr, "preprocess: work=%d depth=%d (M=%d, m=%d)\n",
			b.Work, b.Depth, m.Size(), m.MaxLen())
		fmt.Fprintf(stderr, "match:      work=%d depth=%d (n=%d)\n",
			s.Work, s.Depth, n)
	}
	return nil
}

// describeFileErr turns the common file failures into the one-line messages
// the CLI contract promises.
func describeFileErr(path string, err error) error {
	if os.IsNotExist(err) {
		return fmt.Errorf("input file %s does not exist", path)
	}
	return err
}

func readLines(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		out = append(out, append([]byte(nil), line...))
	}
	return out, sc.Err()
}
