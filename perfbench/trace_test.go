package main

import "testing"

func TestNestSelfTime(t *testing.T) {
	spans := []span{
		{layer: layerServer, start: 0, end: 100},
		{layer: layerHistory, start: 10, end: 20},
		{layer: layerGame, start: 30, end: 80},
		{layer: layerGame, start: 90, end: 130}, // overruns its parent: clipped at 100
		{layer: layerServer, start: 200, end: 300},
		{layer: layerGame, start: 250, end: 260},
		{layer: layerHistory, start: 255, end: 258}, // overlaps a sibling: counted once
		{layer: layerHistory, start: 150, end: 160}, // outside every server span
	}
	got := nest(spans)
	if len(got) != 2 {
		t.Fatalf("%d server spans, want 2", len(got))
	}
	if want := int64(100 - 10 - 50 - 10); got[0].self != want {
		t.Errorf("first self time %d, want %d", got[0].self, want)
	}
	if want := int64(100 - 10); got[1].self != want {
		t.Errorf("second self time %d, want %d", got[1].self, want)
	}
	if len(got[0].children) != 3 || len(got[1].children) != 2 {
		t.Errorf("children %d and %d, want 3 and 2", len(got[0].children), len(got[1].children))
	}
	for _, n := range got {
		if n.self < 0 || n.self > n.parent.dur() {
			t.Errorf("self time %d outside [0,%d]", n.self, n.parent.dur())
		}
		if c := covered(n.parent, n.children); c > n.parent.dur() {
			t.Errorf("children cover %d of a %d parent", c, n.parent.dur())
		}
	}
}
