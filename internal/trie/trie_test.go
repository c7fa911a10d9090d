package trie

import "testing"

func enc(s string) []int32 {
	out := make([]int32, len(s))
	for i := range s {
		out[i] = int32(s[i])
	}
	return out
}

func TestInsertWalk(t *testing.T) {
	tr := New()
	n1, created := tr.Insert(enc("abc"))
	if len(created) != 3 || tr.Depth(n1) != 3 {
		t.Fatalf("created %v depth %d", created, tr.Depth(n1))
	}
	n2, created2 := tr.Insert(enc("abd"))
	if len(created2) != 1 {
		t.Fatalf("created %v", created2)
	}
	if n2 == n1 {
		t.Fatal("distinct strings must end at distinct nodes")
	}
	n3, created3 := tr.Insert(enc("abc"))
	if len(created3) != 0 || n3 != n1 {
		t.Fatal("reinsert must create nothing")
	}
	node, l := tr.Walk(enc("abcdef"))
	if node != n1 || l != 3 {
		t.Fatalf("walk = (%d,%d)", node, l)
	}
	node, l = tr.Walk(enc("xyz"))
	if node != 0 || l != 0 {
		t.Fatalf("walk = (%d,%d)", node, l)
	}
}

func TestMarkUnmark(t *testing.T) {
	tr := New()
	n, _ := tr.Insert(enc("ab"))
	if !tr.Mark(n, 7) {
		t.Fatal("first mark must succeed")
	}
	if tr.Mark(n, 8) {
		t.Fatal("second mark must fail")
	}
	if !tr.IsMarked(n) || tr.PatternAt(n) != 7 {
		t.Fatal("mark not recorded")
	}
	if got := tr.Unmark(n); got != 7 {
		t.Fatalf("unmark returned %d", got)
	}
	if tr.IsMarked(n) {
		t.Fatal("still marked")
	}
}

func TestChildParent(t *testing.T) {
	tr := New()
	n, _ := tr.Insert(enc("xy"))
	x := tr.Child(0, 'x')
	if x == None {
		t.Fatal("child x missing")
	}
	if tr.Child(x, 'y') != n {
		t.Fatal("child y wrong")
	}
	if tr.Child(x, 'z') != None {
		t.Fatal("phantom child")
	}
	if tr.Parent(n) != x || tr.Parent(x) != 0 || tr.Parent(0) != None {
		t.Fatal("parents wrong")
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
}
