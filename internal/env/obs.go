package env

import (
	"fmt"

	"gddr/internal/graph"
	"gddr/internal/mat"
	"gddr/internal/traffic"
)

// Observe builds the full-action observation for a demand history on g: the
// per-node in/out demand sums of §V-B, the capacity edge feature, and the
// flattened raw history for the MLP baseline. hist must hold the m most
// recent demand matrices, oldest first. The iterative-mode edge-feature
// columns are zero; use SetIterativeState to fill them.
//
// Every call allocates a fresh Observation the caller owns indefinitely —
// the training path stores observations across rollout steps. A serving
// loop that discards each observation after the forward pass should hold an
// Observer instead and reuse its buffers.
func Observe(g *graph.Graph, hist []*traffic.DemandMatrix) (*Observation, error) {
	return new(Observer).Observe(g, hist)
}

// Observer builds observations into reusable buffers: node/edge feature
// matrices, the flattened history, and the in/out-sum scratch are allocated
// once and overwritten by each Observe call, so a steady serving loop
// observes without allocating.
//
// The returned Observation (and everything it references) is only valid
// until the next Observe call on the same Observer; callers that retain
// observations — PPO rollouts do — must use the package-level Observe. An
// Observer is not safe for concurrent use; pool one per concurrent caller.
type Observer struct {
	g    *graph.Graph // buffers below are sized for this topology
	m    int
	obs  Observation
	outs []float64
	ins  []float64
}

// Observe fills the observer's buffers with the observation for hist on g
// and returns it. See Observe (package-level) for the feature layout.
func (o *Observer) Observe(g *graph.Graph, hist []*traffic.DemandMatrix) (*Observation, error) {
	m := len(hist)
	if m < 1 {
		return nil, fmt.Errorf("env: observe needs at least one demand matrix")
	}
	n := g.NumNodes()
	ne := g.NumEdges()
	for i, dm := range hist {
		if dm == nil {
			return nil, fmt.Errorf("env: history matrix %d is nil", i)
		}
		if dm.N != n {
			return nil, fmt.Errorf("env: history matrix %d has size %d, graph has %d nodes", i, dm.N, n)
		}
	}

	if o.g != g || o.m != m {
		// First use, or a different topology/memory: size fresh buffers.
		o.g, o.m = g, m
		o.obs = Observation{
			G:        g,
			NodeFeat: mat.New(n, 2*m),
			EdgeFeat: mat.New(ne, 4),
			Global:   mat.New(1, 1),
			Flat:     make([]float64, 0, m*n*n),
		}
		o.obs.Senders = make([]int, ne)
		o.obs.Receivers = make([]int, ne)
		for ei := 0; ei < ne; ei++ {
			edge := g.Edge(ei)
			o.obs.Senders[ei] = edge.From
			o.obs.Receivers[ei] = edge.To
		}
		o.outs = make([]float64, n)
		o.ins = make([]float64, n)
	}
	nodeFeat := o.obs.NodeFeat
	flat := o.obs.Flat[:0]
	for h, dm := range hist {
		// Per-node in/out sums, normalised by the largest node sum of this
		// DM so features stay comparable across graph sizes (§V-B).
		outs, ins := o.outs, o.ins
		maxSum := 0.0
		for v := 0; v < n; v++ {
			outs[v] = dm.OutSum(v)
			ins[v] = dm.InSum(v)
			if outs[v] > maxSum {
				maxSum = outs[v]
			}
			if ins[v] > maxSum {
				maxSum = ins[v]
			}
		}
		if maxSum == 0 {
			maxSum = 1
		}
		for v := 0; v < n; v++ {
			nodeFeat.Set(v, 2*h, outs[v]/maxSum)
			nodeFeat.Set(v, 2*h+1, ins[v]/maxSum)
		}
		// Raw flattened history for the MLP baseline, normalised by the
		// largest entry of the DM (Valadarsky et al. feed the raw history).
		maxEntry := dm.MaxEntry()
		if maxEntry == 0 {
			maxEntry = 1
		}
		for _, v := range dm.Data {
			flat = append(flat, v/maxEntry)
		}
	}
	o.obs.Flat = flat

	// Edge features: column 0 carries the normalised link capacity (the
	// agent cannot avoid low-capacity links it cannot see); columns 1-3
	// are the iterative-mode triple (value, set?, target?) of Eq. 6, zero
	// until SetIterativeState fills them (cleared here on buffer reuse).
	edgeFeat := o.obs.EdgeFeat
	for i := range edgeFeat.Data {
		edgeFeat.Data[i] = 0
	}
	maxCap := 0.0
	for ei := 0; ei < ne; ei++ {
		if c := g.Edge(ei).Capacity; c > maxCap {
			maxCap = c
		}
	}
	for ei := 0; ei < ne; ei++ {
		edgeFeat.Set(ei, 0, g.Edge(ei).Capacity/maxCap)
	}

	o.obs.Global.Data[0] = 1 // constant bias channel
	o.obs.TargetEdge = -1
	return &o.obs, nil
}

// HistoryWindow returns the memory most recent matrices of hist (oldest
// first), padding a cold-start history by repeating fallback. It is the
// single definition of the serving-time history contract — the Router fast
// path and the Engine's topology rebuilds both window histories through it,
// matching the training-time rule that a decision for time t observes the m
// demands up to t-1.
func HistoryWindow(hist []*traffic.DemandMatrix, memory int, fallback *traffic.DemandMatrix) []*traffic.DemandMatrix {
	if len(hist) > memory {
		hist = hist[len(hist)-memory:]
	}
	// The window must be a stable snapshot (hist keeps mutating once the
	// caller's lock is released), so one small allocation per batch — not
	// per request — is the contract here.
	out := make([]*traffic.DemandMatrix, memory)
	pad := memory - len(hist)
	for i := 0; i < pad; i++ {
		out[i] = fallback
	}
	copy(out[pad:], hist)
	return out
}

// SetIterativeState overwrites the iterative-mode edge features in place:
// column 1 holds the pending action value per edge, column 2 marks edges
// whose weight has been set this round, column 3 marks the edge the next
// action will set (Eq. 6). target may be -1 to clear.
func (o *Observation) SetIterativeState(pending []float64, set []bool, target int) {
	ne := o.EdgeFeat.Rows
	for ei := 0; ei < ne; ei++ {
		v, s, tg := 0.0, 0.0, 0.0
		if pending != nil {
			v = pending[ei]
		}
		if set != nil && set[ei] {
			s = 1
		}
		if ei == target {
			tg = 1
		}
		o.EdgeFeat.Set(ei, 1, v)
		o.EdgeFeat.Set(ei, 2, s)
		o.EdgeFeat.Set(ei, 3, tg)
	}
	o.TargetEdge = target
}

// observe builds the observation for the demand history seq[t-m : t].
func (e *Env) observe() (*Observation, error) {
	m := e.cfg.Memory
	obs, err := Observe(e.g, e.seq[e.t-m:e.t])
	if err != nil {
		return nil, err
	}
	if e.cfg.Mode == IterativeAction {
		obs.SetIterativeState(e.dec.pending, e.dec.set, e.dec.edge)
	}
	return obs, nil
}
