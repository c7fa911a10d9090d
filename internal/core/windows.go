package core

import "pardict/internal/pram"

// Windows is the window mechanism of output-sensitive scans, shared by the
// filtered match (kept ranges: prefilter survivors) and the compressed tier
// (literal and copy-boundary phrases). The longest pattern and dictionary
// prefix at p depend on T[p : p+W) alone, W the longest pattern length, so
// one engine pass over the windows — merged kept ranges [a, b), each with
// its W−1 lookahead — concatenated gives every kept position its exact
// output: p reads up to p+W−1 < b+W−1, inside its own window, and a window
// clipped at the text end is the last one. Lookahead positions see the next
// window's symbols and are not copied back. One pass, not one per window:
// per-window phase dispatch would cost more than the skipped positions.
// Both callers hold the raw text: the windows are cut from its bytes and
// the pass encodes only them.
type Windows struct {
	w    int
	runs []int // merged kept ranges as pairs a, b, in increasing order
}

// mergeGapFactor: ranges at most mergeGapFactor·W apart share a window.
// Scanning the gap costs at most the gap; a separate window costs W−1 more
// lookahead positions. When every range merges, the windows are one
// whole-text scan.
const mergeGapFactor = 2

// Reset empties ws for a dictionary whose longest pattern has length w.
func (ws *Windows) Reset(w int) { ws.w, ws.runs = max(w, 1), ws.runs[:0] }

// Keep adds the kept range [a, b); ranges arrive in increasing order.
func (ws *Windows) Keep(a, b int) {
	if k := len(ws.runs); k > 0 && a-ws.runs[k-1] <= mergeGapFactor*ws.w {
		ws.runs[k-1] = b
		return
	}
	ws.runs = append(ws.runs, a, b)
}

// Len reports the number of windows.
func (ws *Windows) Len() int { return len(ws.runs) / 2 }

// Kept reports the number of kept positions, merged gaps included.
func (ws *Windows) Kept() (k int) {
	for i := 0; i < len(ws.runs); i += 2 {
		k += ws.runs[i+1] - ws.runs[i]
	}
	return k
}

// Scanned reports the engine-pass length over a text of n positions.
func (ws *Windows) Scanned(n int) (s int) {
	for i := 0; i < len(ws.runs); i += 2 {
		s += ws.end(i, n) - ws.runs[i]
	}
	return s
}

// end is the scan end of the window whose range starts at runs[i].
func (ws *Windows) end(i, n int) int { return min(ws.runs[i+1]+ws.w-1, n) }

// Scan cuts every window of the raw text into one pooled buffer, runs pass
// over it and copies each kept range's outputs back into pat and, when
// non-nil, plen; other positions are left untouched. Nothing runs once c is
// canceled, and a pass canceled midway copies nothing back.
func (ws *Windows) Scan(c *pram.Ctx, text []byte, pass func(c *pram.Ctx, buf []byte) (pat, plen []int32), pat, plen []int32) {
	n := len(text)
	if len(ws.runs) == 0 || c.Canceled() {
		return
	}
	buf := pram.AcquireBytes(ws.Scanned(n))
	off := 0
	for i := 0; i < len(ws.runs); i += 2 {
		off += copy(buf[off:], text[ws.runs[i]:ws.end(i, n)])
	}
	bp, bl := pass(c, buf)
	if !c.Canceled() {
		off = 0
		for i := 0; i < len(ws.runs); i += 2 {
			a, b := ws.runs[i], ws.runs[i+1]
			copy(pat[a:b], bp[off:])
			if plen != nil {
				copy(plen[a:b], bl[off:])
			}
			off += ws.end(i, n) - a
		}
	}
	pram.ReleaseBytes(buf)
}
