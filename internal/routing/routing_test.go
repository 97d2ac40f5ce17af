package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gddr/internal/graph"
	"gddr/internal/lp"
	"gddr/internal/topo"
	"gddr/internal/traffic"
)

// Softmin normalises values into a probability distribution favouring
// small entries, as softminInto does.
func Softmin(values []float64, gamma float64) []float64 {
	out := make([]float64, len(values))
	if len(values) > 0 {
		softminInto(out, values, gamma)
	}
	return out
}

// SplittingRatios is the softmin splitting ratios towards one sink on raw
// weights: a one-sink Strategy, validated and clamped as NewStrategy does.
func SplittingRatios(g *graph.Graph, sink int, weights []float64, gamma float64) (*Ratios, error) {
	if gamma <= 0 {
		return nil, fmt.Errorf("routing: gamma must be positive, got %g", gamma)
	}
	clamped, err := ClampWeights(weights)
	if err != nil {
		return nil, err
	}
	return splittingRatiosClamped(g, sink, clamped, gamma)
}

func TestSoftminIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
		}
		p := Softmin(vals, 0.5+rng.Float64()*5)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftminFavoursSmall(t *testing.T) {
	p := Softmin([]float64{1, 2, 3}, 2)
	if !(p[0] > p[1] && p[1] > p[2]) {
		t.Fatalf("softmin not decreasing: %v", p)
	}
}

func TestSoftminGammaSharpens(t *testing.T) {
	soft := Softmin([]float64{1, 2}, 0.5)
	sharp := Softmin([]float64{1, 2}, 10)
	if sharp[0] <= soft[0] {
		t.Fatalf("higher gamma must concentrate on the minimum: %v vs %v", sharp, soft)
	}
	if sharp[0] < 0.9999 {
		t.Fatalf("gamma=10 on gap 1 should be near-deterministic, got %v", sharp)
	}
}

func TestSoftminExtremeValuesStable(t *testing.T) {
	p := Softmin([]float64{1000, 1001}, 5)
	if math.IsNaN(p[0]) || p[0] <= p[1] {
		t.Fatalf("softmin unstable for large inputs: %v", p)
	}
}

func TestSoftminEmpty(t *testing.T) {
	if got := Softmin(nil, 2); len(got) != 0 {
		t.Fatalf("softmin(nil) = %v", got)
	}
}

func TestDestinationDAGIsAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.RandomConnected(5+rng.Intn(10), 3, 1, 10, rng)
		if err != nil {
			return false
		}
		w := make([]float64, g.NumEdges())
		for i := range w {
			w[i] = 0.1 + rng.Float64()*3
		}
		sink := rng.Intn(g.NumNodes())
		keep, _, err := DestinationDAG(g, sink, w)
		if err != nil {
			return false
		}
		_, err = g.TopologicalOrder(keep)
		return err == nil // acyclic iff a topological order exists
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDestinationDAGKeepsShortestPaths(t *testing.T) {
	g := topo.Abilene()
	w := g.UnitWeights()
	for sink := 0; sink < g.NumNodes(); sink++ {
		keep, dist, err := DestinationDAG(g, sink, w)
		if err != nil {
			t.Fatal(err)
		}
		// Every non-sink node must retain an edge on a shortest path.
		for v := 0; v < g.NumNodes(); v++ {
			if v == sink {
				continue
			}
			found := false
			for _, ei := range g.OutEdges(v) {
				e := g.Edge(ei)
				if keep[ei] && math.Abs(w[ei]+dist[e.To]-dist[v]) < 1e-9 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("sink %d: node %d lost all shortest-path edges", sink, v)
			}
		}
	}
}

func TestSplittingRatiosSumToOne(t *testing.T) {
	// Paper §IV-A constraint 1: Σ_u R_v(u) = 1 for every v ≠ t that can
	// carry traffic, and constraint 2: the sink forwards nothing.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.RandomConnected(5+rng.Intn(8), 3, 1, 10, rng)
		if err != nil {
			return false
		}
		w := make([]float64, g.NumEdges())
		for i := range w {
			w[i] = 0.2 + rng.Float64()*2
		}
		sink := rng.Intn(g.NumNodes())
		r, err := SplittingRatios(g, sink, w, 1+rng.Float64()*4)
		if err != nil {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			var sum float64
			for _, ei := range g.OutEdges(v) {
				sum += r.Ratio[ei]
			}
			if v == sink {
				if sum != 0 {
					return false
				}
			} else if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadsConserveDemand(t *testing.T) {
	// Total load on edges into the sink must equal total demand to the sink
	// (everything is absorbed, nothing lost — §IV-A).
	rng := rand.New(rand.NewSource(77))
	g := topo.Abilene()
	dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
	w := make([]float64, g.NumEdges())
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	for sink := 0; sink < g.NumNodes(); sink++ {
		r, err := SplittingRatios(g, sink, w, 2)
		if err != nil {
			t.Fatal(err)
		}
		loads := make([]float64, g.NumEdges())
		if err := r.Loads(g, dm, loads); err != nil {
			t.Fatal(err)
		}
		var arrived float64
		for _, ei := range g.InEdges(sink) {
			arrived += loads[ei]
		}
		var wanted float64
		for s := 0; s < g.NumNodes(); s++ {
			wanted += dm.At(s, sink)
		}
		if math.Abs(arrived-wanted) > 1e-6*(1+wanted) {
			t.Fatalf("sink %d: arrived %g want %g", sink, arrived, wanted)
		}
	}
}

func TestEvaluateWeightsNeverBeatsLP(t *testing.T) {
	// Softmin routing is a restricted strategy: its U_max must be >= the LP
	// optimum for any weights (key reward invariant: ratio >= 1).
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 6; trial++ {
		g, err := graph.RandomConnected(5+rng.Intn(5), 3, 50, 150, rng)
		if err != nil {
			t.Fatal(err)
		}
		dm := traffic.Bimodal(g.NumNodes(), traffic.BimodalParams{
			LowMean: 10, LowStd: 2, HighMean: 30, HighStd: 4, ElephantProb: 0.2,
		}, rng)
		w := make([]float64, g.NumEdges())
		for i := range w {
			w[i] = 0.2 + rng.Float64()*3
		}
		res, err := EvaluateWeights(g, dm, w, 1+rng.Float64()*3)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := lp.OptimalMaxUtilization(g, dm)
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxUtilization < opt-1e-6 {
			t.Fatalf("trial %d: softmin %g beats LP optimum %g", trial, res.MaxUtilization, opt)
		}
	}
}

func TestEvaluateWeightsSingleLinkExact(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 0, 10)
	dm := traffic.NewDemandMatrix(2)
	dm.Set(0, 1, 5)
	res, err := EvaluateWeights(g, dm, []float64{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxUtilization-0.5) > 1e-9 {
		t.Fatalf("U=%g want 0.5", res.MaxUtilization)
	}
	if res.Loads[0] != 5 || res.Loads[1] != 0 {
		t.Fatalf("loads=%v", res.Loads)
	}
}

func TestEvaluateWeightsSplitsOnSymmetricPaths(t *testing.T) {
	// Diamond with equal weights: softmin must split 50/50 at the source.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 3, 10)
	g.MustAddEdge(0, 2, 10)
	g.MustAddEdge(2, 3, 10)
	dm := traffic.NewDemandMatrix(4)
	dm.Set(0, 3, 8)
	res, err := EvaluateWeights(g, dm, []float64{1, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Loads[0]-4) > 1e-9 || math.Abs(res.Loads[2]-4) > 1e-9 {
		t.Fatalf("loads=%v want 4/4 split", res.Loads)
	}
	if math.Abs(res.MaxUtilization-0.4) > 1e-9 {
		t.Fatalf("U=%g want 0.4", res.MaxUtilization)
	}
}

func TestWeightsSteerTraffic(t *testing.T) {
	// Raising one path's weight must shift load to the other.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 3, 10)
	g.MustAddEdge(0, 2, 10)
	g.MustAddEdge(2, 3, 10)
	dm := traffic.NewDemandMatrix(4)
	dm.Set(0, 3, 8)
	res, err := EvaluateWeights(g, dm, []float64{5, 5, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loads[2] <= res.Loads[0] {
		t.Fatalf("expected cheap path to carry more: %v", res.Loads)
	}
}

func TestShortestPathBaseline(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(0, 2, 10) // direct link
	dm := traffic.NewDemandMatrix(3)
	dm.Set(0, 2, 6)
	res, err := ShortestPath(g, dm)
	if err != nil {
		t.Fatal(err)
	}
	// Direct 1-hop path must carry everything.
	if res.Loads[2] != 6 || res.Loads[0] != 0 {
		t.Fatalf("loads=%v want direct path", res.Loads)
	}
}

func TestShortestPathConservesDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := topo.NSFNet()
	dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
	res, err := ShortestPath(g, dm)
	if err != nil {
		t.Fatal(err)
	}
	for sink := 0; sink < g.NumNodes(); sink++ {
		var arrived float64
		for _, ei := range g.InEdges(sink) {
			arrived += res.Loads[ei]
		}
		_ = arrived
	}
	var totalIn float64
	for _, e := range g.Edges() {
		_ = e
	}
	// The max utilisation must be at least the LP optimum.
	opt, _, err := lp.OptimalMaxUtilization(g, dm)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxUtilization < opt-1e-6 {
		t.Fatalf("shortest path %g beats LP %g", res.MaxUtilization, opt)
	}
	_ = totalIn
}

func TestInverseCapacityECMP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := topo.Abilene()
	dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
	res, err := InverseCapacityECMP(g, dm)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxUtilization <= 0 {
		t.Fatalf("U=%g", res.MaxUtilization)
	}
}

func TestEvaluateWeightsValidation(t *testing.T) {
	g := topo.Abilene()
	dm := traffic.NewDemandMatrix(3)
	if _, err := EvaluateWeights(g, dm, g.UnitWeights(), 2); err == nil {
		t.Fatal("size mismatch accepted")
	}
	dm2 := traffic.NewDemandMatrix(g.NumNodes())
	if _, err := EvaluateWeights(g, dm2, []float64{1}, 2); err == nil {
		t.Fatal("weight count mismatch accepted")
	}
	if _, err := SplittingRatios(g, 0, g.UnitWeights(), -1); err == nil {
		t.Fatal("negative gamma accepted")
	}
}

func TestLargeGammaBeatsSinglePathOnUniformRing(t *testing.T) {
	// On a uniform-capacity ring, sharp softmin with unit weights is ECMP:
	// equal-length alternatives split 50/50, which can only spread load
	// relative to the single shortest-path baseline.
	rng := rand.New(rand.NewSource(31))
	g, err := graph.Ring(6, 100)
	if err != nil {
		t.Fatal(err)
	}
	dm := traffic.Bimodal(g.NumNodes(), traffic.BimodalParams{
		LowMean: 10, LowStd: 2, HighMean: 20, HighStd: 3, ElephantProb: 0.2,
	}, rng)
	soft, err := EvaluateWeights(g, dm, g.UnitWeights(), 50)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ShortestPath(g, dm)
	if err != nil {
		t.Fatal(err)
	}
	if soft.MaxUtilization > sp.MaxUtilization+1e-9 {
		t.Fatalf("ECMP-like softmin %g worse than single shortest path %g on uniform ring",
			soft.MaxUtilization, sp.MaxUtilization)
	}
}
