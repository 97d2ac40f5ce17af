package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gddr/internal/graph"
	"gddr/internal/topo"
	"gddr/internal/traffic"
)

// goldenEvaluateDigest is the SHA-256 of Strategy.Evaluate's loads,
// utilisations and MLU over goldenEvaluateCases, as computed by the per-sink
// AccumulateLoads loop before Evaluate ran a compiled hop program. Neither
// side of the program-vs-loop comparison may move it.
const goldenEvaluateDigest = "f2bd22210ec1b5d78dee6d206c79a88e58236bd356a7907b04fd6b4b68855cff"

// goldenEvaluateCases calls f with every (topology, weight seed, matrix)
// of the golden digest: four topologies × two random weight vectors × three
// seeded matrices (bimodal, gravity, and a sparsified bimodal).
func goldenEvaluateCases(t *testing.T, f func(strat *Strategy, dm *traffic.DemandMatrix)) {
	t.Helper()
	for _, name := range []string{"abilene", "nsfnet", "b4", "geant"} {
		g, err := topo.Named(name)
		if err != nil {
			t.Fatal(err)
		}
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
			f(strat, traffic.Bimodal(n, traffic.DefaultBimodal(), rng))
			f(strat, traffic.Gravity(n, 100*float64(n), rng))
			f(strat, traffic.Sparsify(traffic.Bimodal(n, traffic.DefaultBimodal(), rng), 0.3, rng))
		}
	}
}

// TestEvaluateGoldenDigest: Strategy.Evaluate reproduces, bit for bit, the
// loads, utilisations and MLU the reference loop produced on the golden
// cases.
func TestEvaluateGoldenDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	goldenEvaluateCases(t, func(strat *Strategy, dm *traffic.DemandMatrix) {
		ne := strat.g.NumEdges()
		loads, util := make([]float64, ne), make([]float64, ne)
		mlu, err := strat.Evaluate(dm, new(Scratch), loads, util)
		if err != nil {
			t.Fatal(err)
		}
		for i := range loads {
			put(loads[i])
			put(util[i])
		}
		put(mlu)
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenEvaluateDigest {
		t.Fatalf("Evaluate digest %s, want %s", got, goldenEvaluateDigest)
	}
}

// referenceEvaluate is Strategy.Evaluate spelt as the per-sink
// AccumulateLoads loop, with Evaluate's error wrapping.
func referenceEvaluate(strat *Strategy, dm *traffic.DemandMatrix) ([]float64, float64, error) {
	g := strat.g
	loads, inflow := make([]float64, g.NumEdges()), make([]float64, g.NumNodes())
	for sink := 0; sink < g.NumNodes(); sink++ {
		if dm.InSum(sink) == 0 {
			continue
		}
		rt, _ := strat.Ratios(sink)
		if err := rt.AccumulateLoads(g, dm, loads, inflow); err != nil {
			return nil, 0, fmt.Errorf("routing: sink %d: %w", sink, err)
		}
	}
	mlu := 0.0
	for ei, l := range loads {
		mlu = math.Max(mlu, l/g.Edge(ei).Capacity)
	}
	return loads, mlu, nil
}

// cutOff returns a copy of g without any out-edge of v: v still receives
// traffic but can reach no other node.
func cutOff(t *testing.T, g *graph.Graph, v int) *graph.Graph {
	t.Helper()
	c := g.Clone()
	for len(c.OutEdges(v)) > 0 {
		if err := c.RemoveEdge(c.OutEdges(v)[0]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestEvaluateProgramEdgeCases: on sparse demand, zeroed and cancelling sink
// columns, a kept edge with a zero ratio, negative demand, demand stranded at
// a cut-off vertex and one-hot shortest-path rows, Strategy.Evaluate's loads
// equal the reference loop's with == and its errors read exactly as they
// always have; the program holds exactly one hop per kept non-zero ratio.
func TestEvaluateProgramEdgeCases(t *testing.T) {
	abilene := topo.Abilene()
	n := abilene.NumNodes()
	rng := rand.New(rand.NewSource(11))
	w := make([]float64, abilene.NumEdges())
	for i := range w {
		w[i] = 0.5 + rng.Float64()*2
	}
	softmin, err := NewStrategy(abilene, w, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	shortest, err := NewShortestPathStrategy(abilene)
	if err != nil {
		t.Fatal(err)
	}
	// A weight this heavy underflows its softmin share to exactly 0 where
	// the edge is still downhill: a kept edge the program must leave out.
	heavyW := append([]float64(nil), w...)
	heavyW[0] = 1e4
	heavy, err := NewStrategy(abilene, heavyW, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	stranded := cutOff(t, abilene, 4)
	strandedStrat, err := NewStrategy(stranded, stranded.UnitWeights(), DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	zeroKept := 0
	for _, strat := range []*Strategy{softmin, heavy, shortest, strandedStrat} {
		want := 0
		for _, r := range strat.sinks {
			for ei, keep := range r.Keep {
				if keep && r.Ratio[ei] != 0 {
					want++
				} else if keep {
					zeroKept++
				}
			}
		}
		if len(strat.prog) != want || int(strat.off[len(strat.sinks)]) != want {
			t.Fatalf("program has %d hops (last offset %d), want one per kept non-zero-ratio edge per sink: %d",
				len(strat.prog), strat.off[len(strat.sinks)], want)
		}
	}
	if zeroKept == 0 {
		t.Fatal("no strategy keeps an edge with a zero ratio")
	}

	dense := traffic.Bimodal(n, traffic.DefaultBimodal(), rng)
	sparse := traffic.Sparsify(dense, 0.2, rng)
	zeroed := dense.Clone()
	for s := 0; s < n; s++ {
		zeroed.Set(s, 3, 0)
	}
	cancelling := dense.Clone()
	for s := 0; s < n; s++ {
		cancelling.Set(s, 5, 0)
	}
	cancelling.Set(1, 5, 7)
	cancelling.Set(2, 5, -7)
	negative := dense.Clone()
	negative.Set(6, 2, -1)
	intoCutOff := dense.Clone() // every column has demand; none leaves node 4
	for sink := 0; sink < n; sink++ {
		intoCutOff.Set(4, sink, 0)
	}
	fromCutOff := intoCutOff.Clone()
	fromCutOff.Set(4, 9, 2.5)

	for _, c := range []struct {
		name    string
		strat   *Strategy
		dm      *traffic.DemandMatrix
		wantErr string
	}{
		{"dense", softmin, dense, ""},
		{"sparse", softmin, sparse, ""},
		{"zeroed-sink-column", softmin, zeroed, ""},
		{"cancelling-column", softmin, cancelling, ""},
		{"zero-ratio-edge", heavy, dense, ""},
		{"negative-demand", softmin, negative, "routing: sink 2: routing: negative demand at (6,2)"},
		{"shortest-path-dense", shortest, dense, ""},
		{"shortest-path-sparse", shortest, sparse, ""},
		{"shortest-path-negative", shortest, negative, "routing: sink 2: routing: negative demand at (6,2)"},
		{"cut-off-no-demand", strandedStrat, intoCutOff, ""},
		{"cut-off-demand", strandedStrat, fromCutOff, "routing: sink 9: routing: node 4 cannot reach sink 9 but has demand"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ne := c.strat.g.NumEdges()
			wantLoads, wantMLU, refErr := referenceEvaluate(c.strat, c.dm)
			loads, util := make([]float64, ne), make([]float64, ne)
			mlu, err := c.strat.Evaluate(c.dm, new(Scratch), loads, util)
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Fatalf("Evaluate error %v, want %q", err, c.wantErr)
				}
				if refErr == nil || refErr.Error() != c.wantErr {
					t.Fatalf("reference loop error %v, want %q", refErr, c.wantErr)
				}
				return
			}
			if err != nil || refErr != nil {
				t.Fatalf("Evaluate error %v, reference loop error %v", err, refErr)
			}
			sameFloats(t, "loads", loads, wantLoads)
			if mlu != wantMLU {
				t.Fatalf("MLU %g != reference loop %g", mlu, wantMLU)
			}
		})
	}
}

func benchTopologies(b *testing.B, f func(b *testing.B, g *graph.Graph)) {
	for _, name := range []string{"abilene", "geant"} {
		g, err := topo.Named(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { f(b, g) })
	}
}

// BenchmarkStrategyEvaluate times one dense-demand evaluation with warmed
// scratch and caller buffers: the per-request load evaluation of a cached
// route.
func BenchmarkStrategyEvaluate(b *testing.B) {
	benchTopologies(b, func(b *testing.B, g *graph.Graph) {
		dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rand.New(rand.NewSource(3)))
		strat, err := NewStrategy(g, g.InverseCapacityWeights(), DefaultGamma)
		if err != nil {
			b.Fatal(err)
		}
		sc, loads, util := new(Scratch), make([]float64, g.NumEdges()), make([]float64, g.NumEdges())
		if _, err := strat.Evaluate(dm, sc, loads, util); err != nil { // sizes the scratch
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := strat.Evaluate(dm, sc, loads, util); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNewStrategy times one full strategy build: the softmin
// translation of a cache miss.
func BenchmarkNewStrategy(b *testing.B) {
	benchTopologies(b, func(b *testing.B, g *graph.Graph) {
		w := g.InverseCapacityWeights()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewStrategy(g, w, DefaultGamma); err != nil {
				b.Fatal(err)
			}
		}
	})
}
