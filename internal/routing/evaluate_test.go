package routing

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"gddr/internal/graph"
	"gddr/internal/topo"
	"gddr/internal/traffic"
)

func forEachTopology(t *testing.T, f func(t *testing.T, g *graph.Graph)) {
	for _, name := range []string{"abilene", "nsfnet", "b4", "geant"} {
		g, err := topo.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { f(t, g) })
	}
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %g != %g", what, i, got[i], want[i])
		}
	}
}

// TestEvaluatePathsAgree: the three ways a caller reaches load evaluation —
// EvaluateStrategy, a hand-rolled per-sink Ratios + AccumulateLoads loop (what
// cmd/gddr-bench's replay does) and Strategy.Evaluate with every buffer
// reused across matrices — agree bit for bit.
func TestEvaluatePathsAgree(t *testing.T) {
	forEachTopology(t, func(t *testing.T, g *graph.Graph) {
		n, ne := g.NumNodes(), g.NumEdges()
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := make([]float64, ne)
			for i := range w {
				w[i] = 0.5 + rng.Float64()*2
			}
			strat, err := NewStrategy(g, w, DefaultGamma)
			if err != nil {
				t.Fatal(err)
			}
			sc, loads, util := new(Scratch), make([]float64, ne), make([]float64, ne)
			for i := 0; i < 2; i++ {
				dm := traffic.Bimodal(n, traffic.DefaultBimodal(), rng)
				res, err := EvaluateStrategy(strat, dm)
				if err != nil {
					t.Fatal(err)
				}

				handLoads, inflow := make([]float64, ne), make([]float64, n)
				for sink := 0; sink < n; sink++ {
					if dm.InSum(sink) == 0 {
						continue
					}
					rt, err := strat.Ratios(sink)
					if err != nil {
						t.Fatal(err)
					}
					if err := rt.AccumulateLoads(g, dm, handLoads, inflow); err != nil {
						t.Fatal(err)
					}
				}
				handMLU := 0.0
				for ei, l := range handLoads {
					handMLU = math.Max(handMLU, l/g.Edge(ei).Capacity)
				}

				mlu, err := strat.Evaluate(dm, sc, loads, util)
				if err != nil {
					t.Fatal(err)
				}
				sameFloats(t, "hand-rolled loads", handLoads, res.Loads)
				sameFloats(t, "Evaluate loads", loads, res.Loads)
				sameFloats(t, "Evaluate utilisation", util, res.Utilization)
				if handMLU != res.MaxUtilization || mlu != res.MaxUtilization {
					t.Fatalf("MLU: hand-rolled %g, Evaluate %g, EvaluateStrategy %g", handMLU, mlu, res.MaxUtilization)
				}
			}
		}
	})
}

// referenceShortestPath is ShortestPath as it stood before the baseline
// became a Strategy: its own next-hop table and propagation loop per sink.
// It is the oracle the one-hot strategy is checked against.
func referenceShortestPath(g *graph.Graph, dm *traffic.DemandMatrix) (*Result, error) {
	if dm.N != g.NumNodes() {
		return nil, fmt.Errorf("routing: demand matrix size %d != graph nodes %d", dm.N, g.NumNodes())
	}
	weights := g.UnitWeights()
	loads := make([]float64, g.NumEdges())
	const eps = 1e-9
	for sink := 0; sink < g.NumNodes(); sink++ {
		if dm.InSum(sink) == 0 {
			continue
		}
		dist, err := g.DistancesTo(sink, weights)
		if err != nil {
			return nil, err
		}
		// next[v] is the single next-hop edge from v towards the sink.
		next := make([]int, g.NumNodes())
		for v := range next {
			next[v] = -1
		}
		for v := 0; v < g.NumNodes(); v++ {
			if v == sink || math.IsInf(dist[v], 1) {
				continue
			}
			bestEdge := -1
			bestTo := -1
			for _, ei := range g.OutEdges(v) {
				to := g.Edge(ei).To
				if math.Abs(weights[ei]+dist[to]-dist[v]) <= eps {
					if bestEdge == -1 || to < bestTo {
						bestEdge = ei
						bestTo = to
					}
				}
			}
			if bestEdge == -1 {
				return nil, fmt.Errorf("routing: no shortest-path next hop at node %d towards %d", v, sink)
			}
			next[v] = bestEdge
		}
		// Propagate in decreasing-distance order.
		order := make([]int, g.NumNodes())
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return dist[order[i]] > dist[order[j]] })
		inflow := make([]float64, g.NumNodes())
		for s := 0; s < g.NumNodes(); s++ {
			d := dm.At(s, sink)
			if d > 0 && math.IsInf(dist[s], 1) {
				return nil, fmt.Errorf("routing: node %d cannot reach sink %d but has demand", s, sink)
			}
			inflow[s] = d
		}
		for _, v := range order {
			if v == sink || inflow[v] == 0 || next[v] < 0 {
				continue
			}
			loads[next[v]] += inflow[v]
			inflow[g.Edge(next[v]).To] += inflow[v]
			inflow[v] = 0
		}
	}
	util := make([]float64, g.NumEdges())
	uMax := 0.0
	for ei := range util {
		util[ei] = loads[ei] / g.Edge(ei).Capacity
		if util[ei] > uMax {
			uMax = util[ei]
		}
	}
	return &Result{MaxUtilization: uMax, Loads: loads, Utilization: util}, nil
}

// TestShortestPathMatchesReference: the one-hot Strategy evaluated by the
// shared loop reproduces the stand-alone baseline bit for bit, on dense and
// on single-pair demand, and — unlike the reference, which propagated it —
// rejects a negative demand entry.
func TestShortestPathMatchesReference(t *testing.T) {
	forEachTopology(t, func(t *testing.T, g *graph.Graph) {
		n := g.NumNodes()
		rng := rand.New(rand.NewSource(7))
		single := traffic.NewDemandMatrix(n)
		single.Set(n-1, 0, 12.5)
		for _, dm := range []*traffic.DemandMatrix{traffic.Bimodal(n, traffic.DefaultBimodal(), rng), single} {
			want, err := referenceShortestPath(g, dm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ShortestPath(g, dm)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "loads", got.Loads, want.Loads)
			sameFloats(t, "utilisation", got.Utilization, want.Utilization)
			if got.MaxUtilization != want.MaxUtilization {
				t.Fatalf("MLU %g != reference %g", got.MaxUtilization, want.MaxUtilization)
			}
		}
		single.Set(1, 0, -3)
		if _, err := ShortestPath(g, single); err == nil {
			t.Fatal("negative demand accepted")
		}
	})
}

// TestRoutingAllocationPins: evaluation with warmed scratch and caller
// buffers allocates nothing, and a Géant strategy build stays under the
// ceiling that container/heap boxing in graph.dijkstra and sort.Slice set.
func TestRoutingAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own; the pins hold for the plain build only")
	}
	g := topo.Geant()
	rng := rand.New(rand.NewSource(3))
	dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
	w := g.InverseCapacityWeights()
	strat, err := NewStrategy(g, w, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	sc, loads, util := new(Scratch), make([]float64, g.NumEdges()), make([]float64, g.NumEdges())
	if _, err := strat.Evaluate(dm, sc, loads, util); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := strat.Evaluate(dm, sc, loads, util); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Strategy.Evaluate with warmed scratch allocated %.0f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewStrategy(g, w, DefaultGamma); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1500 {
		t.Fatalf("NewStrategy on Géant allocated %.0f times, want <= 1500", allocs)
	} else {
		t.Logf("NewStrategy on Géant: %.0f allocations", allocs)
	}
}
