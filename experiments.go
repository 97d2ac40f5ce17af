package gddr

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"gddr/internal/graph"
	"gddr/internal/routing"
	"gddr/internal/stats"
	"gddr/internal/topo"
	"gddr/internal/traffic"
)

// ExperimentOptions scales the paper's experiments. Paper-scale values are
// noted per field; the defaults are laptop-scale (DESIGN.md substitution
// #5) and preserve the qualitative shape of the results. Callers normally
// set these through functional options (WithSeed, WithTotalSteps, ...)
// rather than mutating fields.
type ExperimentOptions struct {
	Seed       int64 `json:"seed"`
	TrainSteps int   `json:"train_steps"` // paper: 500000
	TrainSeqs  int   `json:"train_seqs"`  // paper: 7
	TestSeqs   int   `json:"test_seqs"`   // paper: 3
	SeqLen     int   `json:"seq_len"`     // paper: 60
	Cycle      int   `json:"cycle"`       // paper: 10
	Memory     int   `json:"memory"`      // paper: 5
	GNNHidden  int   `json:"gnn_hidden"`
	GNNSteps   int   `json:"gnn_steps"`
	// Topology names the embedded graph for experiments that are not bound
	// to a specific one (empty means "abilene"); the figure experiments
	// follow the paper and ignore it.
	Topology string `json:"topology,omitempty"`
	// Algo selects the training algorithm (default PPO).
	Algo AlgoKind `json:"algo,omitempty"`
	// RolloutWorkers is the parallel rollout-collection worker count per
	// trained policy (default 1; part of the determinism contract).
	RolloutWorkers int `json:"rollout_workers,omitempty"`
	// CheckpointDir, when set, makes every training stage write periodic
	// checkpoints to <dir>/<stage>.ckpt.json so an interrupted experiment
	// can resume its trained policies.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	// CheckpointEvery is the checkpoint interval in environment steps
	// (default TrainSteps/4 when CheckpointDir is set).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Sampler selects multi-topology episode sampling for the
	// generalisation experiments (zero value: uniform).
	Sampler SamplerSpec `json:"sampler,omitempty"`
}

// DefaultExperimentOptions returns the scaled-down defaults.
func DefaultExperimentOptions() ExperimentOptions {
	return ExperimentOptions{
		Seed:       7,
		TrainSteps: 6000,
		TrainSeqs:  3,
		TestSeqs:   2,
		SeqLen:     30,
		Cycle:      5,
		Memory:     3,
		GNNHidden:  16,
		GNNSteps:   2,
		Topology:   "abilene",
	}
}

// PaperExperimentOptions returns the paper's full-scale settings (several
// CPU-hours per policy).
func PaperExperimentOptions() ExperimentOptions {
	return ExperimentOptions{
		Seed:       7,
		TrainSteps: 500000,
		TrainSeqs:  7,
		TestSeqs:   3,
		SeqLen:     60,
		Cycle:      10,
		Memory:     5,
		GNNHidden:  24,
		GNNSteps:   3,
		Topology:   "abilene",
	}
}

func (o ExperimentOptions) trainConfig(kind PolicyKind) TrainConfig {
	cfg := DefaultTrainConfig(kind)
	cfg.Memory = o.Memory
	cfg.TotalSteps = o.TrainSteps
	cfg.Seed = o.Seed
	cfg.GNN.Hidden = o.GNNHidden
	cfg.GNN.Steps = o.GNNSteps
	if o.Algo != "" {
		cfg.Algo = o.Algo
	}
	if o.RolloutWorkers > 0 {
		cfg.Workers = o.RolloutWorkers
	}
	cfg.Sampler = o.Sampler
	// Short trainings need more, smaller PPO updates than the PPO2
	// defaults, and a slightly hotter learning rate.
	if o.TrainSteps < 100000 {
		cfg.PPO.LearningRate = 1e-3
	}
	if cfg.PPO.RolloutSteps > o.TrainSteps {
		cfg.PPO.RolloutSteps = o.TrainSteps
	}
	return cfg
}

// topology resolves the configured topology name.
func (o ExperimentOptions) topology() (*Graph, error) {
	name := o.Topology
	if name == "" {
		name = "abilene"
	}
	return topo.Named(name)
}

func init() {
	mustRegisterExperiment(Experiment{
		Name:        "figure6",
		Description: "fixed-graph policy comparison on Abilene (paper Figure 6)",
		Run:         runFigure6,
	})
	mustRegisterExperiment(Experiment{
		Name:        "figure7",
		Description: "MLP vs GNN learning curves on Abilene (paper Figure 7)",
		Run:         runFigure7,
	})
	mustRegisterExperiment(Experiment{
		Name:        "figure8",
		Description: "generalisation to modified and unseen topologies (paper Figure 8)",
		Run:         runFigure8,
	})
	mustRegisterExperiment(Experiment{
		Name:        "baselines",
		Description: "classic routing baselines vs the LP optimum (no learning)",
		Run:         runBaselines,
	})
}

// stageCheckpointPath maps a progress-stage name to its checkpoint file
// under the experiment's checkpoint directory.
func stageCheckpointPath(dir, stage string) string {
	return filepath.Join(dir, strings.ReplaceAll(stage, "/", "-")+".ckpt.json")
}

// stageAgent builds the agent for one experiment training stage. When the
// experiment carries a checkpoint directory, the stage writes periodic
// checkpoints to <dir>/<stage>.ckpt.json and resumes from an existing one;
// the returned path is empty when checkpointing is off.
func stageAgent(kind PolicyKind, train *Scenario, opts ExperimentOptions, progress ProgressFunc, stage string) (*Agent, string, error) {
	cfg := opts.trainConfig(kind)
	if opts.CheckpointDir == "" {
		agent, err := NewAgent(kind, train, WithConfig(cfg), WithProgress(stagedProgress(progress, stage)))
		return agent, "", err
	}
	if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
		return nil, "", err
	}
	path := stageCheckpointPath(opts.CheckpointDir, stage)
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = opts.CheckpointEvery
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = max(1, cfg.TotalSteps/4)
	}
	if cp, err := LoadCheckpointFile(path); err == nil {
		// A stage checkpoint only resumes a run of the *same* experiment
		// configuration; silently adopting the checkpointed config would
		// attribute old results to the new options. Mismatches (changed
		// steps, seed, algorithm, workers, sizes) must be explicit.
		if err := checkpointConfigMatches(cp.Config, cfg); err != nil {
			return nil, "", fmt.Errorf("gddr: checkpoint %s was written by a different experiment configuration (%w); delete it or point WithCheckpointDir elsewhere", path, err)
		}
		// Checkpoint plumbing follows the *current* options (the config
		// match above ignores it): periodic checkpoints must land in the
		// current directory, not wherever the original run wrote them.
		agent, err := ResumeAgent(cp, train,
			WithProgress(stagedProgress(progress, stage)),
			WithCheckpointPath(path),
			WithCheckpointEvery(cfg.CheckpointEvery))
		if err != nil {
			return nil, "", fmt.Errorf("gddr: resume %s: %w", path, err)
		}
		return agent, path, nil
	} else if !os.IsNotExist(err) {
		return nil, "", fmt.Errorf("gddr: read %s: %w", path, err)
	}
	agent, err := NewAgent(kind, train, WithConfig(cfg), WithProgress(stagedProgress(progress, stage)))
	return agent, path, err
}

// checkpointConfigMatches reports whether a stage checkpoint's config and
// the config derived from the current experiment options describe the same
// run, comparing every field that shapes the result (architecture, seed,
// budget, algorithm, hyperparameters, workers, sampler).
func checkpointConfigMatches(got, want TrainConfig) error {
	// Checkpoint plumbing itself may differ (the interval is re-derived).
	got.CheckpointEvery, want.CheckpointEvery = 0, 0
	got.CheckpointPath, want.CheckpointPath = "", ""
	gj, err := json.Marshal(got)
	if err != nil {
		return err
	}
	wj, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gj, wj) {
		return fmt.Errorf("checkpoint config %s != current %s", gj, wj)
	}
	return nil
}

// stageTrain trains a stage agent and writes its final checkpoint when the
// experiment checkpoints.
func stageTrain(ctx context.Context, agent *Agent, train *Scenario, cache *OptimalCache, ckptPath string) ([]EpisodeStat, error) {
	curve, err := agent.Train(ctx, train, cache)
	if err != nil {
		return nil, err
	}
	if ckptPath != "" {
		if err := agent.WriteCheckpointFile(ckptPath); err != nil {
			return nil, err
		}
	}
	return curve, nil
}

// trainAndEvaluate builds, trains, and evaluates one policy, reporting
// progress under the given stage name; it returns the held-out ratio and
// the learning curve.
func trainAndEvaluate(ctx context.Context, kind PolicyKind, train, test *Scenario, opts ExperimentOptions, cache *OptimalCache, progress ProgressFunc, stage string) (float64, []EpisodeStat, error) {
	agent, ckptPath, err := stageAgent(kind, train, opts, progress, stage)
	if err != nil {
		return 0, nil, err
	}
	curve, err := stageTrain(ctx, agent, train, cache, ckptPath)
	if err != nil {
		return 0, nil, err
	}
	ratio, err := agent.Evaluate(ctx, test, cache)
	if err != nil {
		return 0, nil, err
	}
	return ratio, curve, nil
}

// runFigure6 trains the MLP, GNN, and iterative-GNN policies on Abilene
// and evaluates them on held-out sequences, reproducing the paper's
// Figure 6 (mean U_agent/U_opt per policy plus the shortest-path dotted
// line).
func runFigure6(ctx context.Context, opts ExperimentOptions, progress ProgressFunc) (*Report, error) {
	train, test, err := AbileneScenario(opts.TrainSeqs, opts.TestSeqs, opts.SeqLen, opts.Cycle, opts.Seed)
	if err != nil {
		return nil, err
	}
	cache := NewOptimalCache()
	for _, s := range []*Scenario{train, test} {
		if _, err := Prewarm(ctx, s, cache, WithProgress(stagedProgress(progress, "figure6"))); err != nil {
			return nil, err
		}
	}
	metrics := make(map[string]float64)
	metrics["shortest_path_ratio"], err = ShortestPathRatio(ctx, test, opts.Memory, cache)
	if err != nil {
		return nil, err
	}
	for _, p := range []struct {
		kind   PolicyKind
		metric string
	}{
		{MLPPolicy, "mlp_ratio"},
		{GNNPolicy, "gnn_ratio"},
		{GNNIterativePolicy, "gnn_iterative_ratio"},
	} {
		ratio, _, err := trainAndEvaluate(ctx, p.kind, train, test, opts, cache, progress, "figure6/"+p.kind.String())
		if err != nil {
			return nil, err
		}
		metrics[p.metric] = ratio
	}
	return &Report{Metrics: metrics}, nil
}

// runFigure7 reproduces the paper's Figure 7 learning-curve comparison:
// total reward per episode against cumulative timesteps for the MLP and
// GNN policies.
func runFigure7(ctx context.Context, opts ExperimentOptions, progress ProgressFunc) (*Report, error) {
	train, _, err := AbileneScenario(opts.TrainSeqs, opts.TestSeqs, opts.SeqLen, opts.Cycle, opts.Seed)
	if err != nil {
		return nil, err
	}
	cache := NewOptimalCache()
	if _, err := Prewarm(ctx, train, cache, WithProgress(stagedProgress(progress, "figure7"))); err != nil {
		return nil, err
	}
	metrics := make(map[string]float64)
	curves := make(map[string][]EpisodeStat)
	for _, kind := range []PolicyKind{MLPPolicy, GNNPolicy} {
		name := kind.String()
		agent, ckptPath, err := stageAgent(kind, train, opts, progress, "figure7/"+name)
		if err != nil {
			return nil, err
		}
		curve, err := stageTrain(ctx, agent, train, cache, ckptPath)
		if err != nil {
			return nil, err
		}
		curves[name] = curve
		metrics[name+"_episodes"] = float64(len(curve))
		if len(curve) > 0 {
			metrics[name+"_final_reward"] = curve[len(curve)-1].TotalReward
		}
	}
	return &Report{Metrics: metrics, Curves: curves}, nil
}

// runFigure8 reproduces the paper's Figure 8 generalisation experiment.
// Only GNN policies participate: as the paper notes, the MLP cannot be
// applied across topologies at all.
func runFigure8(ctx context.Context, opts ExperimentOptions, progress ProgressFunc) (*Report, error) {
	modTrain, modTest, err := modifiedAbileneScenarios(opts)
	if err != nil {
		return nil, err
	}
	diffTrain, diffTest, err := differentGraphScenarios(opts)
	if err != nil {
		return nil, err
	}
	cache := NewOptimalCache()
	for _, s := range []*Scenario{modTrain, modTest, diffTrain, diffTest} {
		if _, err := Prewarm(ctx, s, cache, WithProgress(stagedProgress(progress, "figure8"))); err != nil {
			return nil, err
		}
	}
	metrics := make(map[string]float64)
	metrics["mod_shortest_path_ratio"], err = ShortestPathRatio(ctx, modTest, opts.Memory, cache)
	if err != nil {
		return nil, err
	}
	metrics["diff_shortest_path_ratio"], err = ShortestPathRatio(ctx, diffTest, opts.Memory, cache)
	if err != nil {
		return nil, err
	}
	for _, run := range []struct {
		kind        PolicyKind
		train, test *Scenario
		metric      string
		stage       string
	}{
		{GNNPolicy, modTrain, modTest, "mod_gnn_ratio", "figure8/modifications/gnn"},
		{GNNIterativePolicy, modTrain, modTest, "mod_gnn_iterative_ratio", "figure8/modifications/gnn-iterative"},
		{GNNPolicy, diffTrain, diffTest, "diff_gnn_ratio", "figure8/different/gnn"},
		{GNNIterativePolicy, diffTrain, diffTest, "diff_gnn_iterative_ratio", "figure8/different/gnn-iterative"},
	} {
		ratio, _, err := trainAndEvaluate(ctx, run.kind, run.train, run.test, opts, cache, progress, run.stage)
		if err != nil {
			return nil, err
		}
		metrics[run.metric] = ratio
	}
	return &Report{Metrics: metrics}, nil
}

// runBaselines evaluates the classic non-learning routing strategies —
// shortest path, inverse-capacity ECMP, and unit-weight softmin — against
// the LP optimum on fresh demand sequences over the configured topology.
// It is cheap (no training) and gives the context the learned ratios are
// judged against.
func runBaselines(ctx context.Context, opts ExperimentOptions, progress ProgressFunc) (*Report, error) {
	g, err := opts.topology()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	seqs, err := traffic.Sequences(max(1, opts.TestSeqs), g.NumNodes(), opts.SeqLen, opts.Cycle, traffic.DefaultBimodal(), rng)
	if err != nil {
		return nil, err
	}
	scenario := NewScenario(g, seqs)
	cache := NewOptimalCache()
	if _, err := Prewarm(ctx, scenario, cache, WithProgress(stagedProgress(progress, "baselines"))); err != nil {
		return nil, err
	}
	sp, err := ShortestPathRatio(ctx, scenario, opts.Memory, cache)
	if err != nil {
		return nil, err
	}
	// The oblivious baselines route every matrix the same way: build each
	// strategy once. The ECMP one is routing.InverseCapacityECMP's.
	ecmpStrat, err := routing.NewStrategy(g, g.InverseCapacityWeights(), 10*routing.DefaultGamma)
	if err != nil {
		return nil, err
	}
	softStrat, err := routing.NewStrategy(g, g.UnitWeights(), routing.DefaultGamma)
	if err != nil {
		return nil, err
	}
	var ecmpSum, softminSum float64
	var count int
	for _, seq := range seqs {
		for t := opts.Memory; t < len(seq); t++ {
			opt, err := cache.GetSeqContext(ctx, g, seq, t)
			if err != nil {
				return nil, err
			}
			if opt <= 1e-12 {
				continue
			}
			ecmp, err := routing.EvaluateStrategy(ecmpStrat, seq[t])
			if err != nil {
				return nil, err
			}
			soft, err := routing.EvaluateStrategy(softStrat, seq[t])
			if err != nil {
				return nil, err
			}
			ecmpSum += ecmp.MaxUtilization / opt
			softminSum += soft.MaxUtilization / opt
			count++
		}
	}
	if count == 0 {
		return nil, fmt.Errorf("gddr: baselines produced no evaluable timesteps")
	}
	return &Report{Metrics: map[string]float64{
		"shortest_path_ratio":         sp,
		"inverse_capacity_ecmp_ratio": ecmpSum / float64(count),
		"unit_softmin_ratio":          softminSum / float64(count),
	}}, nil
}

// modifiedAbileneScenarios builds train/test scenarios over Abilene plus
// randomly modified variants (±1–2 edges/nodes), per §VIII-D.
func modifiedAbileneScenarios(opts ExperimentOptions) (train, test *Scenario, err error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	base := topo.Abilene()
	variants := []*graph.Graph{base}
	for i := 0; i < 3; i++ {
		m, err := graph.RandomMutation(base, 1+rng.Intn(2), rng)
		if err != nil {
			return nil, nil, err
		}
		variants = append(variants, m)
	}
	params := traffic.DefaultBimodal()
	train = &Scenario{}
	test = &Scenario{}
	for i, g := range variants {
		trainS, err := traffic.Sequences(max(1, opts.TrainSeqs/2), g.NumNodes(), opts.SeqLen, opts.Cycle, params, rng)
		if err != nil {
			return nil, nil, err
		}
		train.Add(g, trainS)
		// Test on the later variants only, so some test topologies were
		// never trained on.
		if i >= len(variants)/2 {
			testS, err := traffic.Sequences(1, g.NumNodes(), opts.SeqLen, opts.Cycle, params, rng)
			if err != nil {
				return nil, nil, err
			}
			test.Add(g, testS)
		}
	}
	return train, test, nil
}

// differentGraphScenarios builds train/test scenarios over entirely
// different topologies between half and double Abilene's size.
func differentGraphScenarios(opts ExperimentOptions) (train, test *Scenario, err error) {
	rng := rand.New(rand.NewSource(opts.Seed + 100))
	graphs, err := topo.EvaluationSet(opts.Seed + 200)
	if err != nil {
		return nil, nil, err
	}
	params := traffic.DefaultBimodal()
	train = &Scenario{}
	test = &Scenario{}
	for i, g := range graphs {
		seqs, err := traffic.Sequences(1, g.NumNodes(), opts.SeqLen, opts.Cycle, params, rng)
		if err != nil {
			return nil, nil, err
		}
		// Alternate graphs between train and test so test topologies are
		// unseen, as in the paper.
		if i%2 == 0 {
			train.Add(g, seqs)
		} else {
			test.Add(g, seqs)
		}
	}
	if len(train.Items) == 0 || len(test.Items) == 0 {
		return nil, nil, fmt.Errorf("gddr: evaluation set too small to split")
	}
	return train, test, nil
}

// CurvePoint is one smoothed learning-curve point with a confidence band.
type CurvePoint = stats.CurvePoint

// SmoothLearningCurve buckets per-episode rewards into windowsPerRun equal
// timestep windows and returns mean reward with a 95% confidence band — the
// presentation used by the paper's Figure 7.
func SmoothLearningCurve(eps []EpisodeStat, windowsPerRun int) ([]CurvePoint, error) {
	if len(eps) == 0 {
		return nil, fmt.Errorf("gddr: empty learning curve")
	}
	if windowsPerRun < 1 {
		return nil, fmt.Errorf("gddr: windowsPerRun must be >= 1, got %d", windowsPerRun)
	}
	xs := make([]float64, len(eps))
	ys := make([]float64, len(eps))
	maxT := 0.0
	for i, e := range eps {
		xs[i] = float64(e.Timestep)
		ys[i] = e.TotalReward
		if xs[i] > maxT {
			maxT = xs[i]
		}
	}
	// Inflate slightly so the final timestep falls inside the last window
	// instead of opening a new one at the boundary.
	window := maxT / float64(windowsPerRun) * (1 + 1e-9)
	if window <= 0 {
		window = 1
	}
	return stats.SmoothCurve(xs, ys, window)
}
