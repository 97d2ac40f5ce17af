// Package routing implements the paper's routing translation (§VI): deriving
// a fully-specified, loop-free, multipath routing strategy from per-edge
// weights via softmin splitting ratios, plus the evaluation machinery that
// turns a routing and a demand matrix into link loads and the maximum link
// utilisation, and the shortest-path baseline of the evaluation section.
package routing

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gddr/internal/graph"
	"gddr/internal/traffic"
)

// DefaultGamma is the softmin spread parameter used when a policy does not
// learn γ itself (the iterative GNN policy emits γ as part of its action).
const DefaultGamma = 2.0

// MinWeight is the smallest admissible edge weight; weights are clamped up
// to it so that softmin distances stay strictly positive and the downhill
// DAG construction is well defined.
const MinWeight = 1e-6

// softminInto writes the softmin of scores (non-empty) into dst, which has
// the same length and may be scores itself: softmin(x)_i = exp(-γ·x_i) /
// Σ_j exp(-γ·x_j), numerically stabilised by shifting by the minimum entry.
func softminInto(dst, scores []float64, gamma float64) {
	minV := scores[0]
	for _, v := range scores {
		if v < minV {
			minV = v
		}
	}
	var sum float64
	for i, v := range scores {
		e := math.Exp(-gamma * (v - minV))
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// DestinationDAG converts the weighted graph into the loop-free DAG used for
// routing towards sink, together with the per-node distances to the sink.
//
// The paper's Figure 3 algorithm (Dijkstra plus frontier-meets path repair)
// is underspecified; we implement the standard equivalent documented in
// DESIGN.md substitution #4: keep edge (u,v) iff d(u) > d(v) where d is the
// weighted shortest-path distance to the sink. The result is acyclic, keeps
// every shortest path and every strictly "downhill" longer path, and
// therefore retains the multipath diversity the paper's loop-breaking aims
// to preserve.
func DestinationDAG(g *graph.Graph, sink int, weights []float64) (keep []bool, dist []float64, err error) {
	dist, err = g.DistancesTo(sink, weights)
	if err != nil {
		return nil, nil, err
	}
	keep = make([]bool, g.NumEdges())
	for ei, e := range g.Edges() {
		if math.IsInf(dist[e.From], 1) || math.IsInf(dist[e.To], 1) {
			continue
		}
		if dist[e.From] > dist[e.To] {
			keep[ei] = true
		}
	}
	return keep, dist, nil
}

// Ratios holds, for one destination, the per-edge splitting ratios: for each
// vertex v, the kept out-edges of v carry the fraction Ratio[e] of all
// traffic transiting v that is destined for Sink.
type Ratios struct {
	Sink  int
	Ratio []float64 // per edge index; zero on dropped edges
	Keep  []bool
	Dist  []float64
	// order is the vertex propagation order (decreasing distance to the
	// sink — a topological order of the downhill DAG), precomputed at
	// construction so repeated Loads calls do not re-sort (and so the hop
	// program is emitted in it).
	order []int
}

// ClampWeights validates weights (no NaN) and returns a copy with every
// entry clamped up to MinWeight, the form every per-sink routine consumes.
// Strategy clamps once per (weights, gamma) pair instead of once per sink.
func ClampWeights(weights []float64) ([]float64, error) {
	clamped := make([]float64, len(weights))
	for i, w := range weights {
		if math.IsNaN(w) {
			return nil, fmt.Errorf("routing: weight %d is NaN", i)
		}
		if w < MinWeight {
			w = MinWeight
		}
		clamped[i] = w
	}
	return clamped, nil
}

// splittingRatiosClamped runs the paper's softmin routing algorithm
// (Figure 2) for one destination on validated, clamped weights: per vertex,
// the score of each kept out-edge is the edge weight plus the neighbour's
// distance to the sink, and the splitting ratios are the softmin of those
// scores.
func splittingRatiosClamped(g *graph.Graph, sink int, clamped []float64, gamma float64) (*Ratios, error) {
	keep, dist, err := DestinationDAG(g, sink, clamped)
	if err != nil {
		return nil, err
	}
	ratio := make([]float64, g.NumEdges())
	var scores []float64 // one buffer, reused by every vertex
	for v := 0; v < g.NumNodes(); v++ {
		if v == sink || math.IsInf(dist[v], 1) {
			continue
		}
		scores = scores[:0]
		for _, ei := range g.OutEdges(v) {
			if keep[ei] {
				scores = append(scores, clamped[ei]+dist[g.Edge(ei).To])
			}
		}
		if len(scores) == 0 {
			return nil, fmt.Errorf("routing: node %d has no downhill edge to sink %d", v, sink)
		}
		softminInto(scores, scores, gamma)
		i := 0
		for _, ei := range g.OutEdges(v) {
			if keep[ei] {
				ratio[ei] = scores[i]
				i++
			}
		}
	}
	return &Ratios{Sink: sink, Ratio: ratio, Keep: keep, Dist: dist, order: propagationOrder(dist)}, nil
}

// shortestPathRatios is the single-shortest-path routing towards sink in
// Ratios form: every vertex forwards everything over one next hop, the
// out-edge on a hop-count shortest path whose head has the smallest id, so
// its row is one-hot and propagating through it multiplies loads by exactly 1.
func shortestPathRatios(g *graph.Graph, sink int, unit []float64) (*Ratios, error) {
	dist, err := g.DistancesTo(sink, unit)
	if err != nil {
		return nil, err
	}
	const eps = 1e-9
	keep := make([]bool, g.NumEdges())
	ratio := make([]float64, g.NumEdges())
	for v := 0; v < g.NumNodes(); v++ {
		if v == sink || math.IsInf(dist[v], 1) {
			continue
		}
		best := -1
		for _, ei := range g.OutEdges(v) {
			to := g.Edge(ei).To
			if math.Abs(unit[ei]+dist[to]-dist[v]) <= eps && (best == -1 || to < g.Edge(best).To) {
				best = ei
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("routing: no shortest-path next hop at node %d towards %d", v, sink)
		}
		keep[best], ratio[best] = true, 1
	}
	return &Ratios{Sink: sink, Ratio: ratio, Keep: keep, Dist: dist, order: propagationOrder(dist)}, nil
}

// propagationOrder returns the vertices sorted by decreasing distance to the
// sink — the topological order of the downhill DAG that load propagation
// walks. Vertices at equal distance have no kept edge between them, so their
// relative order does not affect the propagated loads.
func propagationOrder(dist []float64) []int {
	order := make([]int, len(dist))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] > dist[order[j]] })
	return order
}

// Loads propagates all demand destined for r.Sink through the splitting
// ratios and accumulates the per-edge load into loads (len NumEdges).
//
// Loads ADDS into loads without zeroing it first — that is how the per-sink
// results compose into one total-load vector. A caller reusing a loads
// buffer across evaluations must therefore zero it between them, or the
// previous evaluation's loads silently double-count (Strategy.Evaluate,
// which runs the strategy's hop program rather than this loop, zeroes its
// loads first for the same reason).
func (r *Ratios) Loads(g *graph.Graph, dm *traffic.DemandMatrix, loads []float64) error {
	return r.AccumulateLoads(g, dm, loads, nil)
}

// AccumulateLoads is Loads with a caller-owned scratch buffer: inflow must
// be nil (allocated per call) or a slice of len NumNodes whose contents are
// overwritten. It exists so per-request serving code can propagate demand
// with zero allocations. The accumulation contract of Loads applies: loads
// is added into, not reset. Propagation processes vertices in decreasing
// distance order, which is a topological order of the downhill DAG.
// It is the reference loop Strategy.Evaluate's hop program reproduces.
func (r *Ratios) AccumulateLoads(g *graph.Graph, dm *traffic.DemandMatrix, loads, inflow []float64) error {
	if inflow == nil {
		inflow = make([]float64, g.NumNodes())
	}
	total, err := r.column(dm, inflow)
	if err != nil || total == 0 {
		return err
	}
	for _, v := range r.order {
		if v == r.Sink || inflow[v] == 0 {
			continue
		}
		if math.IsInf(r.Dist[v], 1) {
			continue
		}
		for _, ei := range g.OutEdges(v) {
			if !r.Keep[ei] || r.Ratio[ei] == 0 {
				continue
			}
			f := inflow[v] * r.Ratio[ei]
			loads[ei] += f
			inflow[g.Edge(ei).To] += f
		}
		inflow[v] = 0
	}
	return nil
}

// column copies the demand destined for r.Sink into inflow (len NumNodes)
// and returns its total. It rejects a negative entry and an entry at a node
// that cannot reach the sink, checking sources in increasing index.
func (r *Ratios) column(dm *traffic.DemandMatrix, inflow []float64) (float64, error) {
	total := 0.0
	for s, dist := range r.Dist {
		d := dm.At(s, r.Sink)
		if d < 0 {
			return 0, fmt.Errorf("routing: negative demand at (%d,%d)", s, r.Sink)
		}
		if d > 0 && math.IsInf(dist, 1) {
			return 0, fmt.Errorf("routing: node %d cannot reach sink %d but has demand", s, r.Sink)
		}
		inflow[s] = d
		total += d
	}
	return total, nil
}

// hop moves the share ratio of the flow at vertex from over edge into to.
type hop struct {
	from, to, edge int32
	ratio          float64
}

// Strategy is one fully-specified routing strategy: the complete table of
// per-sink splitting ratios induced by a (weights, gamma) pair on one graph.
// It is the unit the serving fast path reuses across request batches while
// the policy keeps emitting the same weights — the softmin translation (§VI)
// runs once per strategy instead of once per batch. A Strategy is complete
// when its constructor returns and is never written again, so it is safe for
// concurrent use without a lock. Evaluate runs the ratios compiled into one
// flat hop program: 24 bytes per kept non-zero-ratio edge per sink, 16–20 KB
// on Géant.
type Strategy struct {
	g       *graph.Graph
	weights []float64 // caller-supplied weights (pre-clamp), the cache key
	gamma   float64
	sinks   []*Ratios // indexed by sink, every entry built
	// splits maps every sink to its Ratio row: the Splits view of demand
	// that loads every sink.
	splits map[int][]float64
	// prog holds every sink's hops in AccumulateLoads' visiting order:
	// sink t's are prog[off[t]:off[t+1]].
	prog []hop
	off  []int32
}

// NewStrategy validates (weights, gamma) for g and builds the splitting
// ratios towards every sink. weights is copied.
func NewStrategy(g *graph.Graph, weights []float64, gamma float64) (*Strategy, error) {
	if gamma <= 0 {
		return nil, fmt.Errorf("routing: gamma must be positive, got %g", gamma)
	}
	if len(weights) != g.NumEdges() {
		return nil, fmt.Errorf("routing: %d weights for %d edges", len(weights), g.NumEdges())
	}
	clamped, err := ClampWeights(weights)
	if err != nil {
		return nil, err
	}
	return newStrategy(g, append([]float64(nil), weights...), gamma, func(sink int) (*Ratios, error) {
		return splittingRatiosClamped(g, sink, clamped, gamma)
	})
}

// NewShortestPathStrategy builds classic single-shortest-path routing (hop
// count, deterministic smallest-id tie break) as a Strategy: the baseline
// drawn as a dotted line in the paper's Figures 6 and 8. Its Weights are
// the unit weights and its Gamma is 0, a value NewStrategy rejects, so it
// never Matches a softmin strategy's key.
func NewShortestPathStrategy(g *graph.Graph) (*Strategy, error) {
	unit := g.UnitWeights()
	return newStrategy(g, unit, 0, func(sink int) (*Ratios, error) {
		return shortestPathRatios(g, sink, unit)
	})
}

// newStrategy fills the per-sink table with build, taking ownership of weights.
func newStrategy(g *graph.Graph, weights []float64, gamma float64, build func(sink int) (*Ratios, error)) (*Strategy, error) {
	n := g.NumNodes()
	s := &Strategy{g: g, weights: weights, gamma: gamma, sinks: make([]*Ratios, n), splits: make(map[int][]float64, n)}
	for sink := range s.sinks {
		rt, err := build(sink)
		if err != nil {
			return nil, fmt.Errorf("routing: sink %d: %w", sink, err)
		}
		s.sinks[sink], s.splits[sink] = rt, rt.Ratio
	}
	s.compile()
	return s, nil
}

// compile writes each sink's steps of AccumulateLoads that can carry load as
// hops, in the loop's order. No edge out of the sink or an unreachable vertex
// is kept, so counting kept non-zero ratios sizes the program exactly.
func (s *Strategy) compile() {
	g := s.g
	count := 0
	for _, r := range s.sinks {
		for ei, keep := range r.Keep {
			if keep && r.Ratio[ei] != 0 {
				count++
			}
		}
	}
	s.prog, s.off = make([]hop, 0, count), make([]int32, len(s.sinks)+1)
	for sink, r := range s.sinks {
		for _, v := range r.order {
			if v == sink || math.IsInf(r.Dist[v], 1) {
				continue
			}
			for _, ei := range g.OutEdges(v) {
				if r.Keep[ei] && r.Ratio[ei] != 0 {
					s.prog = append(s.prog, hop{from: int32(v), to: int32(g.Edge(ei).To), edge: int32(ei), ratio: r.Ratio[ei]})
				}
			}
		}
		s.off[sink+1] = int32(len(s.prog))
	}
}

// Gamma returns the softmin spread the strategy was built with.
func (s *Strategy) Gamma() float64 { return s.gamma }

// Weights returns the strategy's weights. The slice is shared: read-only.
func (s *Strategy) Weights() []float64 { return s.weights }

// Matches reports whether the strategy was built for exactly these weights
// and gamma — the cache-hit test. Comparison is bitwise on the pre-clamp
// weights, so a hit reproduces the miss path's output exactly.
func (s *Strategy) Matches(weights []float64, gamma float64) bool {
	if s.gamma != gamma || len(s.weights) != len(weights) {
		return false
	}
	for i, w := range s.weights {
		if w != weights[i] {
			return false
		}
	}
	return true
}

// Ratios returns the splitting ratios towards sink (a node index of the
// strategy's graph). They are shared and read-only. The error is always
// nil: the constructor built every sink.
func (s *Strategy) Ratios(sink int) (*Ratios, error) { return s.sinks[sink], nil }

// Splits returns the Ratio rows of the sinks with in[sink] != 0 (in is
// indexed by sink, as Scratch.InSums is after Evaluate), keyed by sink. The
// rows are the strategy's own: shared and read-only. When every sink has
// demand, the served dense case, the map is the strategy's one prebuilt
// map, equally read-only; otherwise it is fresh.
func (s *Strategy) Splits(in []float64) map[int][]float64 {
	if !slices.Contains(in, 0) {
		return s.splits
	}
	splits := make(map[int][]float64, len(in))
	for sink, v := range in {
		if v != 0 {
			splits[sink] = s.sinks[sink].Ratio
		}
	}
	return splits
}

// Scratch holds the buffers Strategy.Evaluate reuses from call to call, so a
// caller that keeps one evaluates without allocating. The zero value is
// ready to use; one Scratch serves one Evaluate at a time.
type Scratch struct {
	// InSums is, after Evaluate, the total demand destined for each node in
	// the matrix just evaluated; InSums[v] != 0 marks the sinks whose ratios
	// carried load.
	InSums []float64
	inflow []float64
}

// Evaluate is the module's one load evaluator: it propagates every sink's
// demand in dm through the strategy's hop program (sinks in increasing
// index, those without demand skipped), overwrites loads and util (len
// NumEdges each) with the per-edge traffic and load/capacity, and returns
// the maximum utilisation. Per sink the hops add in AccumulateLoads' order,
// so the loads are that loop's bit for bit; the loop's skip of vertices with
// no inflow only ever added +0.
func (s *Strategy) Evaluate(dm *traffic.DemandMatrix, sc *Scratch, loads, util []float64) (float64, error) {
	g := s.g
	n := g.NumNodes()
	if dm.N != n {
		return 0, fmt.Errorf("routing: demand matrix size %d != graph nodes %d", dm.N, n)
	}
	if len(sc.InSums) != n {
		sc.InSums, sc.inflow = make([]float64, n), make([]float64, n)
	}
	dm.InSums(sc.InSums)
	clear(loads)
	inflow := sc.inflow
	for sink, in := range sc.InSums {
		if in == 0 {
			continue
		}
		if _, err := s.sinks[sink].column(dm, inflow); err != nil {
			return 0, fmt.Errorf("routing: sink %d: %w", sink, err)
		}
		for _, h := range s.prog[s.off[sink]:s.off[sink+1]] {
			f := inflow[h.from] * h.ratio
			loads[h.edge] += f
			inflow[h.to] += f
		}
	}
	maxU := 0.0
	for ei := range loads {
		util[ei] = loads[ei] / g.Edge(ei).Capacity
		if util[ei] > maxU {
			maxU = util[ei]
		}
	}
	return maxU, nil
}

// Result is the outcome of evaluating a routing strategy on a demand matrix.
type Result struct {
	MaxUtilization float64
	Loads          []float64 // per-edge carried traffic
	Utilization    []float64 // per-edge load/capacity
}

// MeanUtilization returns the average per-edge utilisation, the alternative
// utility function of the paper's further-work section (§IX-A).
func (r *Result) MeanUtilization() float64 {
	if len(r.Utilization) == 0 {
		return 0
	}
	var sum float64
	for _, u := range r.Utilization {
		sum += u
	}
	return sum / float64(len(r.Utilization))
}

// EvaluateWeights runs the full softmin routing translation and returns the
// maximum link utilisation, the paper's evaluation metric. It builds a
// one-shot Strategy; code that reuses weights across demand matrices should
// hold the Strategy itself and call EvaluateStrategy.
func EvaluateWeights(g *graph.Graph, dm *traffic.DemandMatrix, weights []float64, gamma float64) (*Result, error) {
	strat, err := NewStrategy(g, weights, gamma)
	if err != nil {
		return nil, err
	}
	return EvaluateStrategy(strat, dm)
}

// EvaluateStrategy evaluates a strategy on one demand matrix into a fresh,
// caller-owned Result.
func EvaluateStrategy(strat *Strategy, dm *traffic.DemandMatrix) (*Result, error) {
	ne := strat.g.NumEdges()
	res := &Result{Loads: make([]float64, ne), Utilization: make([]float64, ne)}
	var err error
	if res.MaxUtilization, err = strat.Evaluate(dm, new(Scratch), res.Loads, res.Utilization); err != nil {
		return nil, err
	}
	return res, nil
}

// ShortestPath evaluates the shortest-path baseline on one demand matrix;
// see NewShortestPathStrategy.
func ShortestPath(g *graph.Graph, dm *traffic.DemandMatrix) (*Result, error) {
	strat, err := NewShortestPathStrategy(g)
	if err != nil {
		return nil, err
	}
	return EvaluateStrategy(strat, dm)
}

// InverseCapacityECMP evaluates softmin routing with oblivious inverse-
// capacity weights and a sharp gamma, approximating OSPF-with-recommended-
// weights ECMP: an additional traffic-oblivious baseline.
func InverseCapacityECMP(g *graph.Graph, dm *traffic.DemandMatrix) (*Result, error) {
	return EvaluateWeights(g, dm, g.InverseCapacityWeights(), 10*DefaultGamma)
}
