package main

import "testing"

// A hand-built tree: self time = duration minus the part of the span
// its children cover, overlapping children counted once, children
// clipped to the parent.
func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, N: 1},      // 0
		{Name: "a", Start: 10, End: 40, Parent: 0, N: 1},        // 1: lane 1
		{Name: "b", Start: 30, End: 60, Parent: 0, N: 1},        // 2: lane 2, overlaps a by 10
		{Name: "a", Start: 70, End: 110, Parent: 0, N: 4},       // 3: runs 10 past its parent
		{Name: "leaf", Start: 12, End: 20, Parent: 1, N: 1},     // 4
		{Name: "leaf", Start: 20, End: 25, Parent: 1, N: 1},     // 5: adjacent to 4
		{Name: "other", Start: 200, End: 250, Parent: -1, N: 1}, // 6: a root with no children
	}
	got := selfTimes(spans)
	want := map[string]struct{ calls, self int64 }{
		// children cover [10,60] and [70,100] of [0,100]: 80 covered.
		"op": {1, 20},
		// span 1: 30 long, leaves cover [12,25] = 13 -> 17; span 3: 40 long, no children.
		"a":     {5, 57},
		"b":     {1, 30},
		"leaf":  {2, 13},
		"other": {1, 50},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d layers, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Fatalf("layer %s missing", name)
		}
		if g.Calls != w.calls || g.Self != w.self {
			t.Errorf("%s: calls %d self %d, want %d %d", name, g.Calls, g.Self, w.calls, w.self)
		}
	}
}

func TestCarveMovesSelfTimeAndNeverOverdraws(t *testing.T) {
	layers := map[string]*layerTime{"q": {Name: "q", Calls: 2, Self: 100}}
	carve(layers, "q", "recovery.solve", 70, 2)
	carve(layers, "q", "recovery.solve", 70, 1) // only 30 left
	carve(layers, "missing", "x", 5, 1)
	if layers["q"].Self != 0 || layers["recovery.solve"].Self != 100 || layers["recovery.solve"].Calls != 3 {
		t.Errorf("after carving: q self %d, carved self %d calls %d", layers["q"].Self, layers["recovery.solve"].Self, layers["recovery.solve"].Calls)
	}
	if layers["x"] != nil {
		t.Error("carving from a layer that has no spans made one up")
	}
}

// Lanes record independently; merging must keep cross-lane parents.
func TestRecorderMergesLanesWithParents(t *testing.T) {
	r := newRecorder(2)
	l0, l1 := r.lane(0), r.lane(1)
	l0.setOp(7)
	op := l0.begin("op")
	l1.adopt(l0.ref(op), 7)
	c := l1.begin("child")
	g := l1.begin("grandchild")
	l1.end(g, 3)
	l1.rename(c, "renamed")
	l1.end(c, 1)
	l0.end(op, 1)
	spans := r.merged()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[0].Name != "op" || spans[0].Parent != -1 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].Name != "renamed" || spans[1].Parent != 0 || spans[1].Op != 7 || spans[1].Lane != 1 {
		t.Errorf("span 1 = %+v", spans[1])
	}
	if spans[2].Name != "grandchild" || spans[2].Parent != 1 || spans[2].N != 3 {
		t.Errorf("span 2 = %+v", spans[2])
	}
	var off *recorder
	if ln := off.lane(0); ln != nil || ln.begin("x") != -1 {
		t.Error("a nil recorder must hand out nil lanes that record nothing")
	}
}
