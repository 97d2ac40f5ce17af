// Package graph implements the directed capacitated graph substrate used
// throughout the GDDR reproduction: adjacency storage, shortest paths,
// topological operations, random generators, and the topology mutations of
// the paper's generalisation experiments. It is a from-scratch substitute
// for the NetworkX functionality the original implementation relied on.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// Edge is a directed link with a positive capacity.
type Edge struct {
	From, To int
	Capacity float64
}

// Graph is a directed multigraph-free graph with per-edge capacities. Nodes
// are dense integer ids [0, NumNodes). The zero value is an empty graph.
type Graph struct {
	names []string
	edges []Edge
	out   [][]int // node -> indices into edges
	in    [][]int
}

// ErrNoEdge is returned when looking up an edge that does not exist.
var ErrNoEdge = errors.New("graph: no such edge")

// New returns a graph with n isolated nodes named "n0".."n<n-1>".
func New(n int) *Graph {
	g := &Graph{
		names: make([]string, n),
		out:   make([][]int, n),
		in:    make([][]int, n),
	}
	for i := range g.names {
		g.names[i] = fmt.Sprintf("n%d", i)
	}
	return g
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a node with the given name and returns its id.
func (g *Graph) AddNode(name string) int {
	id := len(g.out)
	if name == "" {
		name = fmt.Sprintf("n%d", id)
	}
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// Name returns the display name of node v.
func (g *Graph) Name(v int) string { return g.names[v] }

// SetName sets the display name of node v.
func (g *Graph) SetName(v int, name string) { g.names[v] = name }

// AddEdge adds a directed edge and returns its index. Duplicate parallel
// edges are rejected so that splitting ratios stay well defined.
func (g *Graph) AddEdge(from, to int, capacity float64) (int, error) {
	if from < 0 || from >= g.NumNodes() || to < 0 || to >= g.NumNodes() {
		return 0, fmt.Errorf("graph: edge endpoints (%d,%d) out of range [0,%d)", from, to, g.NumNodes())
	}
	if from == to {
		return 0, fmt.Errorf("graph: self-loop at node %d rejected", from)
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return 0, fmt.Errorf("graph: edge (%d,%d) needs positive finite capacity, got %g", from, to, capacity)
	}
	if _, err := g.EdgeBetween(from, to); err == nil {
		return 0, fmt.Errorf("graph: duplicate edge (%d,%d)", from, to)
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{From: from, To: to, Capacity: capacity})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id, nil
}

// MustAddEdge is AddEdge for static topology construction; it panics on
// error, which is acceptable only during program initialisation.
func (g *Graph) MustAddEdge(from, to int, capacity float64) int {
	id, err := g.AddEdge(from, to, capacity)
	if err != nil {
		panic(err)
	}
	return id
}

// AddBidirectional adds both directions with the same capacity.
func (g *Graph) AddBidirectional(u, v int, capacity float64) error {
	if _, err := g.AddEdge(u, v, capacity); err != nil {
		return err
	}
	_, err := g.AddEdge(v, u, capacity)
	return err
}

// Edge returns edge metadata by index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// EdgeBetween returns the index of the edge from→to, or ErrNoEdge.
func (g *Graph) EdgeBetween(from, to int) (int, error) {
	for _, ei := range g.out[from] {
		if g.edges[ei].To == to {
			return ei, nil
		}
	}
	return 0, ErrNoEdge
}

// OutEdges returns the edge indices leaving v. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) OutEdges(v int) []int { return g.out[v] }

// InEdges returns the edge indices entering v. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) InEdges(v int) []int { return g.in[v] }

// SetCapacity updates the capacity of edge i.
func (g *Graph) SetCapacity(i int, capacity float64) error {
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		return fmt.Errorf("graph: capacity must be positive and finite, got %g", capacity)
	}
	g.edges[i].Capacity = capacity
	return nil
}

// Capacities returns the per-edge capacity vector.
func (g *Graph) Capacities() []float64 {
	caps := make([]float64, len(g.edges))
	for i, e := range g.edges {
		caps[i] = e.Capacity
	}
	return caps
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		names: append([]string(nil), g.names...),
		edges: append([]Edge(nil), g.edges...),
		out:   make([][]int, len(g.out)),
		in:    make([][]int, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = append([]int(nil), g.out[i]...)
		c.in[i] = append([]int(nil), g.in[i]...)
	}
	return c
}

// RemoveEdge deletes edge index ei, re-indexing subsequent edges.
func (g *Graph) RemoveEdge(ei int) error {
	if ei < 0 || ei >= len(g.edges) {
		return fmt.Errorf("graph: edge index %d out of range", ei)
	}
	g.edges = append(g.edges[:ei], g.edges[ei+1:]...)
	g.rebuildAdjacency()
	return nil
}

// RemoveNode deletes node v and all incident edges, re-indexing nodes above
// v down by one.
func (g *Graph) RemoveNode(v int) error {
	if v < 0 || v >= g.NumNodes() {
		return fmt.Errorf("graph: node %d out of range", v)
	}
	kept := g.edges[:0]
	for _, e := range g.edges {
		if e.From == v || e.To == v {
			continue
		}
		if e.From > v {
			e.From--
		}
		if e.To > v {
			e.To--
		}
		kept = append(kept, e)
	}
	g.edges = kept
	g.names = append(g.names[:v], g.names[v+1:]...)
	g.out = make([][]int, len(g.names))
	g.in = make([][]int, len(g.names))
	g.rebuildAdjacency()
	return nil
}

func (g *Graph) rebuildAdjacency() {
	for i := range g.out {
		g.out[i] = g.out[i][:0]
		g.in[i] = g.in[i][:0]
	}
	for ei, e := range g.edges {
		g.out[e.From] = append(g.out[e.From], ei)
		g.in[e.To] = append(g.in[e.To], ei)
	}
}

// StronglyConnected reports whether every node can reach every other node.
// For the symmetric-link topologies used here this coincides with weak
// connectivity, but the check is exact for general digraphs.
func (g *Graph) StronglyConnected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	return g.reachCount(0, false) == n && g.reachCount(0, true) == n
}

// reachCount counts nodes reachable from src, following reversed edges when
// reversed is true.
func (g *Graph) reachCount(src int, reversed bool) int {
	seen := make([]bool, g.NumNodes())
	stack := []int{src}
	seen[src] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		adj := g.out[v]
		if reversed {
			adj = g.in[v]
		}
		for _, ei := range adj {
			next := g.edges[ei].To
			if reversed {
				next = g.edges[ei].From
			}
			if !seen[next] {
				seen[next] = true
				count++
				stack = append(stack, next)
			}
		}
	}
	return count
}

// Validate checks structural invariants; it is used in tests and after
// mutations.
func (g *Graph) Validate() error {
	if len(g.names) != len(g.out) || len(g.names) != len(g.in) {
		return errors.New("graph: adjacency/name length mismatch")
	}
	degreeOut := make([]int, g.NumNodes())
	degreeIn := make([]int, g.NumNodes())
	for ei, e := range g.edges {
		if e.From < 0 || e.From >= g.NumNodes() || e.To < 0 || e.To >= g.NumNodes() {
			return fmt.Errorf("graph: edge %d endpoints out of range", ei)
		}
		if !(e.Capacity > 0) || math.IsInf(e.Capacity, 1) {
			return fmt.Errorf("graph: edge %d has non-positive or non-finite capacity", ei)
		}
		degreeOut[e.From]++
		degreeIn[e.To]++
	}
	for v := 0; v < g.NumNodes(); v++ {
		if len(g.out[v]) != degreeOut[v] || len(g.in[v]) != degreeIn[v] {
			return fmt.Errorf("graph: stale adjacency at node %d", v)
		}
		for _, ei := range g.out[v] {
			if g.edges[ei].From != v {
				return fmt.Errorf("graph: out list of node %d references foreign edge %d", v, ei)
			}
		}
		for _, ei := range g.in[v] {
			if g.edges[ei].To != v {
				return fmt.Errorf("graph: in list of node %d references foreign edge %d", v, ei)
			}
		}
	}
	return nil
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%d nodes, %d edges)", g.NumNodes(), g.NumEdges())
}
