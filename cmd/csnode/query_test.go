package main

import "testing"

func TestGroupKeyOrderMatters(t *testing.T) {
	rec := logRecord{attrs: map[string]string{"A": "1", "B": "2"}}
	k1, err := groupKey([]string{"A", "B"}, rec)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := groupKey([]string{"B", "A"}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("GROUP BY order should change the composite key")
	}
	if k1 != "1|2" {
		t.Fatalf("k1 = %q", k1)
	}
}

func TestAggregateNodeSums(t *testing.T) {
	pairs, err := aggregateNode([]string{"A"}, []logRecord{
		{attrs: map[string]string{"A": "x"}, score: 2},
		{attrs: map[string]string{"A": "x"}, score: 3},
		{attrs: map[string]string{"A": "y"}, score: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pairs["x"] != 5 || pairs["y"] != -1 {
		t.Fatalf("pairs = %v", pairs)
	}
	// A missing attribute or a separator inside a value refuses the node.
	for _, rec := range []logRecord{
		{attrs: map[string]string{"B": "x"}, score: 1},
		{attrs: map[string]string{"A": "x|y"}, score: 1},
	} {
		if _, err := aggregateNode([]string{"A"}, []logRecord{rec}); err == nil {
			t.Fatalf("record %v accepted", rec.attrs)
		}
	}
}
