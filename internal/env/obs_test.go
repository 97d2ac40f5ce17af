package env

import (
	"testing"

	"gddr/internal/topo"
)

// TestObserverReuseMatchesObserve: an Observer reusing its buffers across
// histories must produce observations bit-identical to fresh package-level
// Observe calls, including clearing the iterative edge-feature columns a
// previous SetIterativeState wrote.
func TestObserverReuseMatchesObserve(t *testing.T) {
	g := topo.Abilene()
	seq := testSequence(t, g.NumNodes(), 6, 3, 77)
	ob := new(Observer)
	for step := 0; step < 4; step++ {
		hist := seq[step : step+3]
		want, err := Observe(g, hist)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ob.Observe(g, hist)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.NodeFeat.Data {
			if got.NodeFeat.Data[i] != v {
				t.Fatalf("step %d node feature %d: %g != %g", step, i, got.NodeFeat.Data[i], v)
			}
		}
		for i, v := range want.EdgeFeat.Data {
			if got.EdgeFeat.Data[i] != v {
				t.Fatalf("step %d edge feature %d: %g != %g", step, i, got.EdgeFeat.Data[i], v)
			}
		}
		if len(got.Flat) != len(want.Flat) {
			t.Fatalf("step %d flat length %d != %d", step, len(got.Flat), len(want.Flat))
		}
		for i, v := range want.Flat {
			if got.Flat[i] != v {
				t.Fatalf("step %d flat %d: %g != %g", step, i, got.Flat[i], v)
			}
		}
		if got.TargetEdge != -1 {
			t.Fatalf("step %d target edge %d, want -1", step, got.TargetEdge)
		}
		// Dirty the iterative columns; the next reuse must clear them.
		pending := make([]float64, g.NumEdges())
		for i := range pending {
			pending[i] = 0.5
		}
		got.SetIterativeState(pending, make([]bool, g.NumEdges()), 2)
	}
	// Buffer reuse is the point of an Observer: once warmed on Géant, the
	// benchmark's serving graph, it allocates nothing per observation.
	if !raceEnabled {
		gg := topo.Geant()
		ghist := testSequence(t, gg.NumNodes(), 3, 3, 78)
		gob := new(Observer)
		if _, err := gob.Observe(gg, ghist); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := gob.Observe(gg, ghist); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warmed Observer.Observe on Geant allocated %.1f times per call, want 0", allocs)
		}
	}
}

// TestObserverResizesAcrossTopologies: switching graphs mid-stream must
// resize the buffers, not observe through stale ones.
func TestObserverResizesAcrossTopologies(t *testing.T) {
	ob := new(Observer)
	ga := topo.Abilene()
	gn := topo.NSFNet()
	histA := testSequence(t, ga.NumNodes(), 3, 3, 5)
	histN := testSequence(t, gn.NumNodes(), 3, 3, 5)
	for i := 0; i < 2; i++ {
		oa, err := ob.Observe(ga, histA)
		if err != nil {
			t.Fatal(err)
		}
		if oa.NodeFeat.Rows != ga.NumNodes() || oa.EdgeFeat.Rows != ga.NumEdges() {
			t.Fatalf("abilene observation sized %dx%d", oa.NodeFeat.Rows, oa.EdgeFeat.Rows)
		}
		on, err := ob.Observe(gn, histN)
		if err != nil {
			t.Fatal(err)
		}
		if on.NodeFeat.Rows != gn.NumNodes() || on.EdgeFeat.Rows != gn.NumEdges() {
			t.Fatalf("nsfnet observation sized %dx%d", on.NodeFeat.Rows, on.EdgeFeat.Rows)
		}
	}
}
