package gddr

import (
	"runtime"
	"time"

	"gddr/internal/metrics"
)

// RouterOption configures NewRouter and NewEngine: the serving-side option
// surface, distinct from the training/experiment Option type below.
type RouterOption func(*routerConfig)

type routerConfig struct {
	workers     int
	maxBatch    int
	batchWindow time.Duration
	history     []*DemandMatrix
	// replicas multiplies an Engine snapshot's serve slots (default 1):
	// the snapshot's one Router gets workers × replicas of them. Bare
	// Routers ignore it.
	replicas int
	// skipProbe elides the construction-time probe forward pass. Only the
	// Engine sets it, when rebuilding a snapshot around a graph-size-
	// agnostic (GNN-family) agent that an earlier snapshot already
	// validated: the probe exists to catch shape-bound policies, and
	// skipping it keeps high-rate topology events off the forward-pass
	// budget.
	skipProbe bool
	// noCache disables the serving fast-path cache (policy output and
	// routing strategy). Test/benchmark only: the uncached path is the
	// baseline the cache speedup gate and the golden decision test compare
	// against.
	noCache bool
	// metrics is the registry serving instruments register in. Nil selects a
	// private per-router registry; the Engine always sets it so counters and
	// histograms stay cumulative across snapshot rebuilds.
	metrics *metrics.Registry
	// tracing attaches a per-request timing breakdown to every Decision.
	tracing bool
	// noMetrics skips the per-request clock reads and histogram observations
	// (the counters always count, and Stats/Metrics still answer). Benchmark
	// only: the bare path is the baseline the instrumentation-overhead CI
	// gate compares against.
	noMetrics bool
}

// WithRouterWorkers sets the number of serve slots (default GOMAXPROCS):
// how many Route callers may serve a batch at once. No goroutine is
// started — a slot holder serves on its own goroutine. One slot maximises
// request batching; more slots maximise forward-pass parallelism.
func WithRouterWorkers(n int) RouterOption {
	return func(c *routerConfig) { c.workers = n }
}

// WithMaxBatch bounds how many concurrent requests share one policy
// forward pass (default 16).
func WithMaxBatch(n int) RouterOption {
	return func(c *routerConfig) { c.maxBatch = n }
}

// WithWarmHistory seeds the router's demand history (oldest first) so the
// first decisions observe real traffic instead of a cold-start zero pad —
// e.g. the tail of the training scenario.
func WithWarmHistory(dms ...*DemandMatrix) RouterOption {
	return func(c *routerConfig) { c.history = dms }
}

// WithMetricsRegistry makes the router (or engine) register its serving
// instruments — request/batch/forward-pass counters, route-latency,
// queue-wait, and batch-size histograms — in reg instead of a private
// registry, so one registry can expose every subsystem of a process on a
// single /metrics endpoint. Instruments are registered idempotently by
// name: routers (and engines) sharing a registry share counters, and with
// them Stats, which is a view over those counters.
func WithMetricsRegistry(reg *metrics.Registry) RouterOption {
	return func(c *routerConfig) { c.metrics = reg }
}

// WithTracing attaches a per-request RouteTrace to every Decision: the
// queue-wait, observe, forward, strategy, and evaluate timings plus which
// fast-path caches answered. Off by default; the cached fast path pays no
// per-stage timing cost while disabled.
func WithTracing(on bool) RouterOption {
	return func(c *routerConfig) { c.tracing = on }
}

// WithReplicas multiplies an Engine's serve slots by n (default 1): each
// snapshot is one Router, with one demand history and one serving cache,
// whose WithRouterWorkers slot count is scaled by n, so n× as many callers
// may serve batches at once and steady-demand throughput scales across
// cores. Decisions stay bit-identical to a single-replica engine.
// Snapshot().Replicas reports n. NewRouter ignores the option.
func WithReplicas(n int) RouterOption {
	return func(c *routerConfig) { c.replicas = n }
}

// WithBatchWindow makes a serve-slot holder that has taken queued requests
// wait up to d for more to share its forward pass (default 0: serve
// immediately after taking what is already queued). On busy cores the
// zero-window path can degenerate to singleton batches — callers on their
// way never get scheduled before the batch is taken — so a
// microseconds-scale window buys large batching gains at bounded latency
// cost.
func WithBatchWindow(d time.Duration) RouterOption {
	return func(c *routerConfig) { c.batchWindow = d }
}

// resolveRouterConfig folds options over the defaults. Engine resolves the
// options once at construction and reuses the config for every topology or
// model rebuild, overriding only the carried history.
func resolveRouterConfig(opts []RouterOption) routerConfig {
	cfg := routerConfig{workers: runtime.GOMAXPROCS(0), maxBatch: 16}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.maxBatch < 1 {
		cfg.maxBatch = 1
	}
	if cfg.replicas < 1 {
		cfg.replicas = 1
	}
	if cfg.batchWindow < 0 {
		cfg.batchWindow = 0
	}
	return cfg
}

// This file also defines the v2 functional-option surface: a single Option type
// layered over the existing TrainConfig and ExperimentOptions structs so
// that callers compose agents and experiments instead of mutating config
// fields. The same options are accepted by NewAgent, Prewarm, and
// RunExperiment; each consumer reads the subset that concerns it.

// Progress is one progress report from a long-running operation. Total is
// zero when the total amount of work is unknown up front.
type Progress struct {
	// Stage names the phase emitting the report: "prewarm", "train",
	// "evaluate", or an experiment-defined stage such as "figure6/gnn".
	Stage string
	// Step counts completed work units — environment steps for training,
	// LP solves for prewarming, sequences for evaluation.
	Step int
	// Total is the number of work units the stage will perform, if known.
	Total int
	// Episode is set when a training episode just finished (learning-curve
	// consumers); nil otherwise.
	Episode *EpisodeStat
}

// ProgressFunc receives progress reports. Implementations must be safe for
// concurrent use when passed to Prewarm, which reports from worker
// goroutines (reports are serialised by the caller, but the function must
// not assume it runs on any particular goroutine).
type ProgressFunc func(Progress)

// settings is the merged option state. Agent construction consumes cfg and
// progress; Prewarm consumes workers and progress; RunExperiment consumes
// exp, workers, and progress. cfgOnly records options that affect agent
// construction exclusively, so RunExperiment can reject them instead of
// silently ignoring them.
type settings struct {
	cfg      TrainConfig
	exp      ExperimentOptions
	progress ProgressFunc
	workers  int
	metrics  *metrics.Registry
	cfgOnly  []string
}

// Option configures agent construction (NewAgent), cache prewarming
// (Prewarm), or a registered experiment (RunExperiment).
type Option func(*settings)

func newSettings(kind PolicyKind) *settings {
	return &settings{
		cfg: DefaultTrainConfig(kind),
		exp: DefaultExperimentOptions(),
	}
}

func (s *settings) apply(opts []Option) *settings {
	for _, opt := range opts {
		if opt != nil {
			opt(s)
		}
	}
	return s
}

// WithConfig replaces the full agent training configuration. Later options
// still apply on top, so WithConfig(cfg) composes with, say, WithSeed.
// Agent-construction only: registered experiments derive their agent
// configs from ExperimentOptions, so RunExperiment rejects this option.
func WithConfig(cfg TrainConfig) Option {
	return func(s *settings) {
		s.cfg = cfg
		s.cfgOnly = append(s.cfgOnly, "WithConfig")
	}
}

// WithExperimentOptions replaces the full experiment preset (for example
// PaperExperimentOptions()). Later options still apply on top.
func WithExperimentOptions(opts ExperimentOptions) Option {
	return func(s *settings) { s.exp = opts }
}

// WithPaperScale selects the paper's full-scale experiment settings
// (several CPU-hours per policy).
func WithPaperScale() Option {
	return func(s *settings) { s.exp = PaperExperimentOptions() }
}

// WithMemory sets the demand-history length m (paper: 5).
func WithMemory(m int) Option {
	return func(s *settings) {
		s.cfg.Memory = m
		s.exp.Memory = m
	}
}

// WithSeed sets the random seed for initialisation and traffic generation.
func WithSeed(seed int64) Option {
	return func(s *settings) {
		s.cfg.Seed = seed
		s.exp.Seed = seed
	}
}

// WithTotalSteps sets the PPO training budget in environment steps.
func WithTotalSteps(n int) Option {
	return func(s *settings) {
		s.cfg.TotalSteps = n
		s.exp.TrainSteps = n
	}
}

// WithGNNSize sets the graph-network latent width and message-passing
// steps of the GNN policies.
func WithGNNSize(hidden, msgSteps int) Option {
	return func(s *settings) {
		s.cfg.GNN.Hidden = hidden
		s.cfg.GNN.Steps = msgSteps
		s.exp.GNNHidden = hidden
		s.exp.GNNSteps = msgSteps
	}
}

// WithMLPHidden sets the hidden layer sizes of the MLP baseline policy.
// Agent-construction only; RunExperiment rejects it.
func WithMLPHidden(sizes ...int) Option {
	return func(s *settings) {
		s.cfg.MLPHidden = sizes
		s.cfgOnly = append(s.cfgOnly, "WithMLPHidden")
	}
}

// WithPPO replaces the PPO hyperparameters of the agent under
// construction. Agent-construction only; RunExperiment rejects it.
func WithPPO(cfg PPOConfig) Option {
	return func(s *settings) {
		s.cfg.PPO = cfg
		s.cfgOnly = append(s.cfgOnly, "WithPPO")
	}
}

// WithAlgo selects the training algorithm (PPOAlgo or A2CAlgo).
func WithAlgo(algo AlgoKind) Option {
	return func(s *settings) {
		s.cfg.Algo = algo
		s.exp.Algo = algo
	}
}

// WithRolloutWorkers sets the number of parallel rollout-collection
// workers. Each worker steps its own environment clone on an independent
// deterministic stream and the update pass merges worker slices in fixed
// worker order, so results are bit-identical for a given (seed, workers)
// pair — but differ across worker counts.
func WithRolloutWorkers(n int) Option {
	return func(s *settings) {
		s.cfg.Workers = n
		s.exp.RolloutWorkers = n
	}
}

// WithCheckpointEvery writes a training checkpoint every n environment
// steps (rounded up to update boundaries). Agents write to the path set
// with WithCheckpointPath; experiments derive per-stage paths from the
// directory set with WithCheckpointDir.
func WithCheckpointEvery(n int) Option {
	return func(s *settings) {
		s.cfg.CheckpointEvery = n
		s.exp.CheckpointEvery = n
	}
}

// WithCheckpointPath sets the file periodic checkpoints are written to
// (atomically). Agent-construction only; RunExperiment derives paths from
// WithCheckpointDir instead.
func WithCheckpointPath(path string) Option {
	return func(s *settings) {
		s.cfg.CheckpointPath = path
		s.cfgOnly = append(s.cfgOnly, "WithCheckpointPath")
	}
}

// WithCheckpointDir makes registered experiments checkpoint every trained
// policy under the directory (one file per training stage), so an
// interrupted experiment resumes instead of restarting. NewAgent ignores
// it; use WithCheckpointPath there.
func WithCheckpointDir(dir string) Option {
	return func(s *settings) { s.exp.CheckpointDir = dir }
}

// WithSampler selects how multi-topology training scenarios sample their
// member environment per episode — e.g. UniformSampling(),
// SizeWeightedSampling(alpha), or SizeCurriculumSampling(stages) to anneal
// from small to large graphs.
func WithSampler(spec SamplerSpec) Option {
	return func(s *settings) {
		s.cfg.Sampler = spec
		s.exp.Sampler = spec
	}
}

// WithSequences sets the number of training and held-out test demand
// sequences an experiment generates (paper: 7 and 3).
func WithSequences(train, test int) Option {
	return func(s *settings) {
		s.exp.TrainSeqs = train
		s.exp.TestSeqs = test
	}
}

// WithSequenceShape sets the length and cycle period of the cyclical
// demand sequences (paper: 60 and 10).
func WithSequenceShape(seqLen, cycle int) Option {
	return func(s *settings) {
		s.exp.SeqLen = seqLen
		s.exp.Cycle = cycle
	}
}

// WithTopology selects the embedded topology an experiment runs on, for
// experiments that are not tied to a specific graph (e.g. "baselines").
func WithTopology(name string) Option {
	return func(s *settings) { s.exp.Topology = name }
}

// WithProgress installs a progress callback invoked during prewarming,
// training, and evaluation.
func WithProgress(fn ProgressFunc) Option {
	return func(s *settings) { s.progress = fn }
}

// WithWorkers bounds the concurrency of operations that fan out over a
// worker pool (Prewarm). Zero or negative selects GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(s *settings) { s.workers = n }
}

// WithMetrics installs a metrics registry on the operation: NewAgent
// records per-update training metrics (steps, episode reward, policy and
// value loss, update and checkpoint-write latency) into it during Train,
// and Prewarm instruments the LP cache (solve latency, hit/miss counters)
// with it. Serving uses the RouterOption WithMetricsRegistry instead.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *settings) { s.metrics = reg }
}
