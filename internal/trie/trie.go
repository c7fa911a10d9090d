// Package trie implements the pattern trie maintained by the dynamic
// dictionary-matching algorithms (§6.1.2): one node per distinct dictionary
// prefix, with pattern nodes "marked". The query the engines need — the
// longest pattern that is a prefix of a given prefix — is a nearest-marked-
// ancestor query on this trie, answered by package eulertree as the marks
// change. Edges live in an open-addressed flathash table keyed by
// (node,symbol), which supports inserts and mark churn.
package trie

import "pardict/internal/flathash"

// None marks an absent node or pattern.
const None int32 = -1

// Trie is a growable trie over int32 symbols. Node 0 is the root (empty
// prefix). Not safe for concurrent mutation.
type Trie struct {
	parent []int32
	depth  []int32
	patOf  []int32 // pattern index if this node is marked, else None
	child  flathash.Map[int32]
}

// New returns a trie containing only the root.
func New() *Trie {
	return &Trie{
		parent: []int32{None},
		depth:  []int32{0},
		patOf:  []int32{None},
	}
}

func key(node, sym int32) uint64 {
	return uint64(uint32(node))<<32 | uint64(uint32(sym))
}

// Len reports the number of nodes (distinct prefixes + root).
func (t *Trie) Len() int { return len(t.parent) }

// Child returns the child of node on sym, or None.
func (t *Trie) Child(node, sym int32) int32 {
	if c, ok := t.child.Get(key(node, sym)); ok {
		return c
	}
	return None
}

// Parent returns node's parent (None for the root).
func (t *Trie) Parent(node int32) int32 { return t.parent[node] }

// Depth returns node's depth (= prefix length).
func (t *Trie) Depth(node int32) int32 { return t.depth[node] }

// PatternAt returns the pattern index marked at node, or None.
func (t *Trie) PatternAt(node int32) int32 { return t.patOf[node] }

// Insert adds the string p, creating missing nodes, and returns the final
// node plus the slice of newly created node ids in root→leaf order (the
// callers feed these to the dynamic ancestor structure).
func (t *Trie) Insert(p []int32) (node int32, created []int32) {
	cur := int32(0)
	for _, s := range p {
		nxt, ok := t.child.Get(key(cur, s))
		if !ok {
			nxt = int32(len(t.parent))
			t.parent = append(t.parent, cur)
			t.depth = append(t.depth, t.depth[cur]+1)
			t.patOf = append(t.patOf, None)
			t.child.Put(key(cur, s), nxt)
			created = append(created, nxt)
		}
		cur = nxt
	}
	return cur, created
}

// Walk returns the node of the longest prefix of p present in the trie and
// its length.
func (t *Trie) Walk(p []int32) (node int32, length int) {
	cur := int32(0)
	for i, s := range p {
		nxt, ok := t.child.Get(key(cur, s))
		if !ok {
			return cur, i
		}
		cur = nxt
	}
	return cur, len(p)
}

// Mark records node as the endpoint of pattern pat. It reports whether the
// node was previously unmarked.
func (t *Trie) Mark(node, pat int32) bool {
	if t.patOf[node] != None {
		return false
	}
	t.patOf[node] = pat
	return true
}

// Unmark clears the mark at node, returning the pattern that was there.
func (t *Trie) Unmark(node int32) int32 {
	p := t.patOf[node]
	t.patOf[node] = None
	return p
}

// IsMarked reports whether node is marked.
func (t *Trie) IsMarked(node int32) bool { return t.patOf[node] != None }
