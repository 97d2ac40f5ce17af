// Package gddr is a from-scratch Go reproduction of "GDDR: GNN-based
// Data-Driven Routing" (Hope & Yoneki, ICDCS 2021): deep reinforcement
// learning for intradomain traffic engineering where graph-neural-network
// policies convert traffic-demand histories into softmin routing strategies
// that minimise maximum link utilisation, generalising across network
// topologies.
//
// The package exposes the high-level workflow — build a scenario (graphs +
// demand sequences), train an agent (MLP, GNN, or iterative GNN policy with
// PPO), evaluate it against the LP-optimal routing and the shortest-path
// baseline — while the substrates (graph library, simplex LP solver,
// autodiff, graph-network blocks, PPO, routing translation) live in
// internal packages and are re-exported here where part of the public
// surface.
package gddr

import (
	"context"
	"fmt"
	"math/rand"

	"gddr/internal/env"
	"gddr/internal/graph"
	"gddr/internal/policy"
	"gddr/internal/rl"
	"gddr/internal/routing"
	"gddr/internal/topo"
	"gddr/internal/traffic"
)

// Re-exported core types: these internal types are part of the public API
// surface via aliases.
type (
	// Graph is a directed capacitated network topology.
	Graph = graph.Graph
	// DemandMatrix is an N×N traffic demand matrix.
	DemandMatrix = traffic.DemandMatrix
	// EpisodeStat is a per-episode training record (learning curves).
	EpisodeStat = rl.EpisodeStat
	// PolicyKind selects the agent architecture.
	PolicyKind = policy.Kind
	// PPOConfig holds the PPO hyperparameters.
	PPOConfig = rl.Config
	// A2CConfig holds the A2C hyperparameters.
	A2CConfig = rl.A2CConfig
	// GNNConfig sizes the graph-network policies.
	GNNConfig = policy.GNNConfig
	// BimodalParams configures the bimodal demand generator.
	BimodalParams = traffic.BimodalParams
	// SamplerSpec describes how multi-topology training scenarios sample
	// their member environment per episode. It is JSON-serialisable and
	// carried inside checkpoints so a resumed run samples identically.
	SamplerSpec = env.SamplerSpec
	// SamplerStage is one curriculum stage of a SamplerSpec.
	SamplerStage = env.SamplerSpecStage
)

// UniformSampling samples scenario members uniformly (the default).
func UniformSampling() SamplerSpec { return SamplerSpec{Kind: "uniform"} }

// WeightedSampling samples member i proportionally to weights[i]; the
// weight count must match the scenario's (graph, sequence) pair count.
func WeightedSampling(weights ...float64) SamplerSpec {
	return SamplerSpec{Kind: "weighted", Weights: weights}
}

// SizeWeightedSampling samples members proportionally to their graph's
// node count raised to alpha (alpha 0 means 1, i.e. linear in size), so
// large topologies — which learn slowest per episode — see more episodes.
func SizeWeightedSampling(alpha float64) SamplerSpec {
	return SamplerSpec{Kind: "size", Alpha: alpha}
}

// CurriculumSampling anneals the member distribution across explicit
// stages: the first stage whose UpTo bound covers the current training
// progress is used.
func CurriculumSampling(stages ...SamplerStage) SamplerSpec {
	return SamplerSpec{Kind: "curriculum", Stages: stages}
}

// SizeCurriculumSampling builds a small-to-large curriculum over the
// scenario's graphs in the given number of stages: early training samples
// only the smallest topologies (denser reward signal per second), the
// final stage samples all of them — the annealing schedule for the
// generalisation experiments (§VIII-D).
func SizeCurriculumSampling(stages int) SamplerSpec {
	return SamplerSpec{Kind: "size-curriculum", StageCount: stages}
}

// Policy kinds.
const (
	MLPPolicy          = policy.MLPKind
	GNNPolicy          = policy.GNNKind
	GNNIterativePolicy = policy.GNNIterativeKind
)

// Topology constructors re-exported from the embedded Topology-Zoo set.
var (
	Abilene = topo.Abilene
	NSFNet  = topo.NSFNet
	B4      = topo.B4
	Geant   = topo.Geant
)

// ScenarioItem couples one topology with its demand sequences.
type ScenarioItem struct {
	Graph     *Graph
	Sequences [][]*DemandMatrix
}

// Scenario is a training or evaluation workload: one or more topologies,
// each with one or more demand sequences. The fixed-graph experiments use a
// single item; the generalisation experiments use many.
type Scenario struct {
	Items []ScenarioItem
}

// NewScenario builds a single-topology scenario.
func NewScenario(g *Graph, sequences [][]*DemandMatrix) *Scenario {
	return &Scenario{Items: []ScenarioItem{{Graph: g, Sequences: sequences}}}
}

// Add appends a topology with its sequences and returns the scenario.
func (s *Scenario) Add(g *Graph, sequences [][]*DemandMatrix) *Scenario {
	s.Items = append(s.Items, ScenarioItem{Graph: g, Sequences: sequences})
	return s
}

// Validate checks the scenario is non-empty and dimensionally consistent.
func (s *Scenario) Validate() error {
	if len(s.Items) == 0 {
		return fmt.Errorf("gddr: scenario has no items")
	}
	for i, item := range s.Items {
		if item.Graph == nil {
			return fmt.Errorf("gddr: scenario item %d has nil graph", i)
		}
		if len(item.Sequences) == 0 {
			return fmt.Errorf("gddr: scenario item %d has no sequences", i)
		}
		for j, seq := range item.Sequences {
			for k, dm := range seq {
				if dm.N != item.Graph.NumNodes() {
					return fmt.Errorf("gddr: item %d sequence %d matrix %d: size %d != %d nodes",
						i, j, k, dm.N, item.Graph.NumNodes())
				}
			}
		}
	}
	return nil
}

// envs expands the scenario into one environment per (graph, sequence).
func (s *Scenario) envs(cfg env.Config, cache *env.OptimalCache) ([]*env.Env, error) {
	var envs []*env.Env
	for _, item := range s.Items {
		for _, seq := range item.Sequences {
			e, err := env.New(item.Graph, seq, cfg, cache)
			if err != nil {
				return nil, err
			}
			envs = append(envs, e)
		}
	}
	return envs, nil
}

// AbileneScenario reproduces the paper's main workload: cyclical bimodal
// sequences on the Abilene graph (60 DMs, cycle length 10), split into
// train and test scenario pairs (the paper uses 7 train + 3 test). It is a
// convenience over the generator surface: Cyclical(Bimodal(params), cycle)
// drawn from one seeded rng.
func AbileneScenario(trainSeqs, testSeqs, seqLen, cycle int, seed int64) (train, test *Scenario, err error) {
	g := Abilene()
	rng := rand.New(rand.NewSource(seed))
	gen := Cyclical(Bimodal(traffic.DefaultBimodal()), cycle)
	trainS, err := GenerateSequences(gen, trainSeqs, g.NumNodes(), seqLen, rng)
	if err != nil {
		return nil, nil, err
	}
	testS, err := GenerateSequences(gen, testSeqs, g.NumNodes(), seqLen, rng)
	if err != nil {
		return nil, nil, err
	}
	return NewScenario(g, trainS), NewScenario(g, testS), nil
}

// ShortestPathRatio evaluates classic shortest-path routing on every
// (sequence, timestep) of the scenario (skipping the first memory steps to
// match agent evaluation) and returns the mean U_sp/U_opt ratio — the dotted
// baseline of the paper's Figures 6 and 8. Cancellation of ctx is honoured
// before every LP solve.
func ShortestPathRatio(ctx context.Context, s *Scenario, memory int, cache *OptimalCache) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if cache == nil {
		cache = NewOptimalCache()
	}
	var sum float64
	var count int
	for _, item := range s.Items {
		sp, err := routing.NewShortestPathStrategy(item.Graph)
		if err != nil {
			return 0, err
		}
		for _, seq := range item.Sequences {
			for t := memory; t < len(seq); t++ {
				res, err := routing.EvaluateStrategy(sp, seq[t])
				if err != nil {
					return 0, err
				}
				opt, err := cache.GetSeqContext(ctx, item.Graph, seq, t)
				if err != nil {
					return 0, err
				}
				if opt <= 1e-12 {
					continue
				}
				sum += res.MaxUtilization / opt
				count++
			}
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("gddr: no evaluable timesteps in scenario")
	}
	return sum / float64(count), nil
}

// OptimalCache memoises LP optima across training and evaluation.
type OptimalCache = env.OptimalCache

// NewOptimalCache returns an empty shared LP cache.
func NewOptimalCache() *OptimalCache { return env.NewOptimalCache() }
