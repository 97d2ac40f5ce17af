package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"gddr"
	"gddr/internal/graph"
	"gddr/internal/rl"
	"gddr/internal/rng"
	"gddr/internal/topo"
	"gddr/internal/traffic"
)

// Serving-side model shape. These are gddr-serve's flag defaults, which the
// spawned server runs with, and the shape of the committed checkpoint.
const (
	modelMemory = 3
	modelHidden = 16
	modelSteps  = 2
)

// Shape of every generated training sequence (cyclical bimodal, §VIII).
const (
	seqLen   = 30
	seqCycle = 10
)

// opKind is what one slot of a workload's request stream asks for.
type opKind uint8

const (
	opRoute opKind = iota
	opEvent
	opSwap
)

// op is one slot of the stream: a route request for matrix dm, a topology
// event, or a model swap.
type op struct {
	kind  opKind
	dm    int
	event gddr.Event
}

// trainItem is one topology of a research scenario with its sequence counts.
type trainItem struct {
	topology    string
	train, test int
}

// workloadSpec is the fixed part of a workload; inputs adds what the seed
// generates.
type workloadSpec struct {
	name     string
	topology string // serving topology
	// matrices is the number of distinct demand matrices in the stream and
	// hold how many consecutive requests repeat one before moving on.
	matrices, hold int
	// opsEvery > 0 inserts one control operation after every opsEvery route
	// requests, cycling capacity_change, link_down, link_up, model swap.
	opsEvery int
	// research is the training scenario: the whole point of train, a
	// one-sequence probe on the serving topology for the serving workloads.
	research []trainItem
	// stepsPerSecond scales the PPO step budget with -seconds; fixedSteps
	// (when non-zero) overrides it with a constant budget.
	stepsPerSecond, fixedSteps int
	// ownModel serves the agent the research stage just trained instead of
	// the committed checkpoint.
	ownModel bool
	// libShare, httpShare and probeShare are the parts of -seconds the timed
	// phases and the control-operation probe get; the rest is about what the
	// training budget above takes.
	libShare, httpShare, probeShare float64
	// openRate is the open-loop arrival rate of the traced run, about 40% of
	// the closed-loop capacity measured on the seed commit.
	openRate float64
}

var workloadSpecs = map[string]workloadSpec{
	"steady": {
		name: "steady", topology: "geant", matrices: 1, hold: 1,
		research:   []trainItem{{"geant", 1, 1}},
		fixedSteps: 2048, libShare: 0.28, httpShare: 0.39, probeShare: 0.06, openRate: 500,
	},
	"shifting": {
		name: "shifting", topology: "geant", matrices: 64, hold: 1,
		research:   []trainItem{{"geant", 1, 1}},
		fixedSteps: 2048, libShare: 0.28, httpShare: 0.39, probeShare: 0.06, openRate: 300,
	},
	"liveops": {
		name: "liveops", topology: "abilene", matrices: 16, hold: 8, opsEvery: 25,
		research:   []trainItem{{"abilene", 1, 1}},
		fixedSteps: 4096, libShare: 0.36, httpShare: 0.50, openRate: 500,
	},
	"train": {
		name: "train", topology: "abilene", matrices: seqCycle, hold: 1,
		research:       []trainItem{{"abilene", 3, 1}, {"geant", 2, 1}},
		stepsPerSecond: 246, ownModel: true,
		libShare: 0.36, httpShare: 0.18, probeShare: 0.07, openRate: 500,
	},
}

// inputs is everything a run feeds the program, generated from the seed
// alone: the same (workload, seed) gives byte-identical inputs.
type inputs struct {
	spec  workloadSpec
	seed  int64
	graph *gddr.Graph
	// matrices are the stream's distinct demand matrices and bodies their
	// POST /route encodings.
	matrices []*gddr.DemandMatrix
	bodies   [][]byte
	// link is the seed-chosen link the control operations act on (its loss
	// keeps the graph connected) and linkCap its original capacity.
	link    [2]int
	linkCap float64
	// train and test are the research scenarios (test is held out).
	train, test *gddr.Scenario
}

// newInputs generates the inputs of one workload. Independent random
// streams (stream matrices, link choice, one per scenario item) are derived
// from the seed so changing one part of a workload never reshuffles another.
func newInputs(name string, seed int64) (*inputs, error) {
	spec, ok := workloadSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	g, err := topo.Named(spec.topology)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: spec, seed: seed, graph: g}

	in.train, in.test = &gddr.Scenario{}, &gddr.Scenario{}
	gen := gddr.Cyclical(gddr.Bimodal(gddr.DefaultBimodalParams()), seqCycle)
	for i, item := range spec.research {
		ig, err := topo.Named(item.topology)
		if err != nil {
			return nil, err
		}
		if err := in.train.AddGenerated(ig, gen, item.train, seqLen, rng.DeriveSeed(seed, uint64(100+2*i))); err != nil {
			return nil, err
		}
		if err := in.test.AddGenerated(ig, gen, item.test, seqLen, rng.DeriveSeed(seed, uint64(101+2*i))); err != nil {
			return nil, err
		}
	}

	if spec.ownModel {
		// The deployed agent serves the held-out sequence of the serving
		// topology: traffic it was not trained on.
		for i, item := range spec.research {
			if item.topology == spec.topology {
				in.matrices = in.test.Items[i].Sequences[0][:seqCycle]
			}
		}
		if in.matrices == nil {
			return nil, fmt.Errorf("workload %s: no held-out sequence on %s", name, spec.topology)
		}
	} else {
		rng := rand.New(rand.NewSource(rng.DeriveSeed(seed, uint64(1))))
		for i := 0; i < spec.matrices; i++ {
			in.matrices = append(in.matrices, traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng))
		}
	}
	for _, dm := range in.matrices {
		body, err := routeBody(dm)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}

	if spec.opsEvery > 0 {
		if err := in.chooseLink(rand.New(rand.NewSource(rng.DeriveSeed(seed, uint64(2))))); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// routeBody encodes dm as a POST /route request body.
func routeBody(dm *gddr.DemandMatrix) ([]byte, error) {
	rows := make([][]float64, dm.N)
	for s := range rows {
		rows[s] = dm.Data[s*dm.N : (s+1)*dm.N]
	}
	return json.Marshal(map[string]any{"demands": rows})
}

// chooseLink picks, uniformly among the links whose loss keeps the graph
// strongly connected, the one the control operations act on.
func (in *inputs) chooseLink(rng *rand.Rand) error {
	var candidates [][2]int
	for _, e := range in.graph.Edges() {
		if e.From > e.To {
			continue
		}
		if _, err := graph.RemoveLink(in.graph, e.From, e.To); err == nil {
			candidates = append(candidates, [2]int{e.From, e.To})
		}
	}
	if len(candidates) == 0 {
		return fmt.Errorf("workload %s: no link of %s can fail without disconnecting it", in.spec.name, in.spec.topology)
	}
	in.link = candidates[rng.Intn(len(candidates))]
	ei, err := in.graph.EdgeBetween(in.link[0], in.link[1])
	if err != nil {
		return err
	}
	in.linkCap = in.graph.Edge(ei).Capacity
	return nil
}

// at returns slot i of the request stream. The stream is a pure function of
// i, so every entry point, the warm-up and the replay see the same traffic.
func (in *inputs) at(i int) op {
	routes := i
	if every := in.spec.opsEvery; every > 0 {
		period := every + 1
		if i%period == every {
			u, v := in.link[0], in.link[1]
			switch (i / period) % 4 {
			case 0:
				return op{kind: opEvent, event: gddr.CapacityChange{From: u, To: v, Capacity: in.linkCap / 2}}
			case 1:
				return op{kind: opEvent, event: gddr.LinkDown{From: u, To: v}}
			case 2:
				return op{kind: opEvent, event: gddr.LinkUp{From: u, To: v, Capacity: in.linkCap}}
			default:
				return op{kind: opSwap}
			}
		}
		routes = i - i/period
	}
	return op{kind: opRoute, dm: (routes / in.spec.hold) % len(in.matrices)}
}

// trainSteps is the PPO step budget of the research stage: the scale's
// override, the workload's constant, or its rate times -seconds rounded
// down to whole rollouts.
func (in *inputs) trainSteps(sc scale) int {
	switch {
	case sc.trainSteps > 0:
		return sc.trainSteps
	case in.spec.fixedSteps > 0:
		return in.spec.fixedSteps
	}
	rollout := rl.DefaultConfig().RolloutSteps
	return max(1, int(float64(in.spec.stepsPerSecond)*sc.seconds)/rollout) * rollout
}
