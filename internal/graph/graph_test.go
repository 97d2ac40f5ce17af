package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustRing(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := Ring(n, 10)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	ei, err := g.AddEdge(0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Edge(ei); got.From != 0 || got.To != 1 || got.Capacity != 5 {
		t.Fatalf("edge=%+v", got)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("num edges %d", g.NumEdges())
	}
	if _, err := g.EdgeBetween(0, 1); err != nil {
		t.Fatalf("edge lookup: %v", err)
	}
	if _, err := g.EdgeBetween(1, 0); !errors.Is(err, ErrNoEdge) {
		t.Fatalf("reverse lookup err=%v want ErrNoEdge", err)
	}
}

func TestAddEdgeRejectsInvalid(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddEdge(0, 5, 1); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	for _, c := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := g.AddEdge(0, 1, c); err == nil {
			t.Fatalf("capacity %g accepted", c)
		}
	}
	g.MustAddEdge(0, 1, 1)
	if _, err := g.AddEdge(0, 1, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(2, 3, 1)
	if len(g.OutEdges(0)) != 2 || len(g.InEdges(3)) != 1 {
		t.Fatalf("adjacency wrong: out(0)=%v in(3)=%v", g.OutEdges(0), g.InEdges(3))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mustRing(t, 4)
	c := g.Clone()
	c.MustAddEdge(0, 2, 1)
	if g.NumEdges() == c.NumEdges() {
		t.Fatal("clone shares edge storage")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdgeReindexes(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 0, 3)
	if err := g.RemoveEdge(0); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges=%d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.EdgeBetween(0, 1); !errors.Is(err, ErrNoEdge) {
		t.Fatal("removed edge still present")
	}
}

func TestRemoveNodeReindexes(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 0, 1)
	if err := g.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes=%d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Old node 2 is now node 1, old 3 is 2; edge 2→3 must survive as 1→2.
	if _, err := g.EdgeBetween(1, 2); err != nil {
		t.Fatalf("renumbered edge missing: %v", err)
	}
}

func TestStronglyConnected(t *testing.T) {
	g := mustRing(t, 5)
	if !g.StronglyConnected() {
		t.Fatal("ring must be strongly connected")
	}
	d := New(3)
	d.MustAddEdge(0, 1, 1)
	d.MustAddEdge(1, 2, 1)
	if d.StronglyConnected() {
		t.Fatal("one-way path is not strongly connected")
	}
}

func TestGenerators(t *testing.T) {
	ring := mustRing(t, 6)
	if ring.NumEdges() != 12 {
		t.Fatalf("ring edges=%d want 12", ring.NumEdges())
	}
	star, err := Star(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if star.NumEdges() != 8 || !star.StronglyConnected() {
		t.Fatalf("star edges=%d connected=%v", star.NumEdges(), star.StronglyConnected())
	}
	grid, err := Grid(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumNodes() != 9 || grid.NumEdges() != 24 || !grid.StronglyConnected() {
		t.Fatalf("grid %d nodes %d edges", grid.NumNodes(), grid.NumEdges())
	}
	if _, err := Ring(2, 1); err == nil {
		t.Fatal("tiny ring accepted")
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(15)
		g, err := RandomConnected(n, 3, 1, 10, rng)
		if err != nil {
			return false
		}
		return g.StronglyConnected() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacities(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 7)
	caps := g.Capacities()
	if len(caps) != 1 || caps[0] != 7 {
		t.Fatalf("caps=%v", caps)
	}
	if err := g.SetCapacity(0, 3); err != nil {
		t.Fatal(err)
	}
	if g.Edge(0).Capacity != 3 {
		t.Fatal("capacity not updated")
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := g.SetCapacity(0, c); err == nil {
			t.Fatalf("capacity %g accepted", c)
		}
		g.edges[0].Capacity = c
		if err := g.Validate(); err == nil {
			t.Fatalf("Validate passed an edge of capacity %g", c)
		}
		g.edges[0].Capacity = 3
	}
}
