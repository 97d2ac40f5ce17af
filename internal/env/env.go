// Package env implements the paper's OpenAI-Gym-style reinforcement-learning
// environment for data-driven routing (§V): observations are histories of
// traffic demands summarised per node, actions are edge weights (all at once
// or one edge per iteration), and the reward compares the agent's routing
// against the LP-optimal routing, r = -U_max(agent)/U_max(optimal) (Eq. 2).
package env

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gddr/internal/graph"
	"gddr/internal/lp"
	"gddr/internal/mat"
	"gddr/internal/metrics"
	"gddr/internal/routing"
	"gddr/internal/traffic"
)

// Mode selects the action space.
type Mode int

// Action-space modes. FullAction emits every edge weight in one action
// (paper §VII-A); IterativeAction sets one edge per step and reads γ from
// the final action (paper §VII-B).
const (
	FullAction Mode = iota + 1
	IterativeAction
)

// Objective selects the utility function the reward compares against — the
// paper's primary max-utilisation objective, or the mean-utilisation
// alternative from its further-work section (§IX-A).
type Objective int

// Objectives. The zero value behaves as MaxUtilization so existing configs
// keep the paper's primary objective.
const (
	MaxUtilization Objective = iota
	MeanUtilization
)

func (o Objective) String() string {
	switch o {
	case MaxUtilization:
		return "max-utilisation"
	case MeanUtilization:
		return "mean-utilisation"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

func (m Mode) String() string {
	switch m {
	case FullAction:
		return "full"
	case IterativeAction:
		return "iterative"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterises the environment.
type Config struct {
	Memory      int     // demand history length m (paper uses 5)
	Gamma       float64 // softmin γ for FullAction mode
	Mode        Mode
	WeightScale float64 // edge weight = base(e) * exp(WeightScale * action)
	// Objective selects the utility function (default: MaxUtilization).
	Objective Objective
	// CapacityAware makes the action-to-weight mapping multiplicative
	// around inverse-capacity base weights instead of uniform ones, so the
	// untrained policy starts from the classic capacity-aware ECMP routing
	// rather than uniform splitting. This warm start compensates for the
	// scaled-down training budgets of this reproduction (DESIGN.md
	// substitution #5); the action space and its semantics are unchanged.
	CapacityAware bool
}

// DefaultConfig returns the paper's main experimental settings.
func DefaultConfig() Config {
	return Config{
		Memory:        5,
		Gamma:         routing.DefaultGamma,
		Mode:          FullAction,
		WeightScale:   2,
		CapacityAware: true,
	}
}

// Observation is one environment state. Node features are the normalised
// outgoing/incoming demand sums per history step (§V-B); edge features are
// the link capacity normalised by the largest one (column 0) followed by the
// iterative-mode triple (value, set?, target?) of Eq. 6 (columns 1-3, zeros
// in full mode); Flat is the raw normalised m·N² history for the MLP
// baseline.
type Observation struct {
	G          *graph.Graph
	NodeFeat   *mat.Matrix // N x 2m
	EdgeFeat   *mat.Matrix // E x 4
	Global     *mat.Matrix // 1 x 1 (constant bias input)
	Senders    []int
	Receivers  []int
	Flat       []float64 // m*N*N
	TargetEdge int       // iterative mode: edge set by the next action; -1 in full mode
}

// Interface is the Gym-like contract consumed by the PPO trainer.
type Interface interface {
	// Reset starts a new episode and returns the first observation.
	Reset() (*Observation, error)
	// Step applies an action, returning the next observation (nil when the
	// episode ended), the reward, and the done flag.
	Step(action []float64) (*Observation, float64, bool, error)
	// ActionDim returns the action dimensionality for the current episode.
	ActionDim() int
}

// OptimalCache memoises LP optimal max-utilisation per (graph, demand
// matrix). Cyclical sequences reuse base matrices by pointer, so each
// sequence costs only cycle-many LP solves. The cache is safe for
// concurrent use.
//
// Sequence-aware lookups (GetSeqContext and friends) additionally chain LP
// solves along a demand sequence: the solve for seq[i] warm-starts from the
// final simplex basis of seq[i-1], which is near-incremental because
// consecutive matrices differ only slightly. To keep cached values
// deterministic regardless of worker interleaving, every chained value is
// produced by the same canonical computation — solve seq[0] cold, then each
// later step warm from its predecessor — serialised per sequence; the basis
// map is populated only by these chain solves, and a sequence is identified
// by (graph, first matrix, objective), so a demand matrix must not head two
// different sequences on the same graph.
type OptimalCache struct {
	mu    sync.Mutex
	m     map[cacheKey]float64     // guarded by mu
	basis map[cacheKey]*lp.Basis   // guarded by mu
	chain map[chainKey]*sync.Mutex // guarded by mu

	// Registry instruments, nil until Instrument is called. Readers copy
	// them into locals under mu and use the copies after unlocking.
	metHits   *metrics.Counter   // guarded by mu
	metMisses *metrics.Counter   // guarded by mu
	metSolve  *metrics.Histogram // guarded by mu
	metWarm   *metrics.Counter   // guarded by mu
	metCold   *metrics.Counter   // guarded by mu
	metPivots *metrics.Histogram // guarded by mu
}

type cacheKey struct {
	g   *graph.Graph
	dm  *traffic.DemandMatrix
	obj Objective
}

// chainKey identifies one canonical warm-start chain: a sequence is its
// graph, its first demand matrix, and the objective.
type chainKey struct {
	g    *graph.Graph
	head *traffic.DemandMatrix
	obj  Objective
}

// NewOptimalCache returns an empty cache.
func NewOptimalCache() *OptimalCache {
	return &OptimalCache{
		m:     make(map[cacheKey]float64),
		basis: make(map[cacheKey]*lp.Basis),
		chain: make(map[chainKey]*sync.Mutex),
	}
}

// Instrument registers the cache's telemetry on reg: cumulative hit/miss
// counters, a solve-latency histogram, and a size gauge. Safe to call
// concurrently with lookups; calling it again with the same registry is a
// no-op (registration is idempotent).
func (c *OptimalCache) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	hits := reg.Counter("gddr_lp_cache_hits_total", "LP optimal-cache hits.")
	misses := reg.Counter("gddr_lp_cache_misses_total", "LP optimal-cache misses (each one paid for an LP solve).")
	solve := reg.Histogram("gddr_lp_solve_seconds", "LP solve latency on cache misses.", metrics.LatencyBuckets())
	warm := reg.Counter("gddr_lp_warm_start_total", "LP solves that reused the previous basis in a sequence chain.")
	cold := reg.Counter("gddr_lp_cold_start_total", "LP solves started from the slack/artificial basis.")
	pivots := reg.Histogram("gddr_lp_solve_pivots", "Simplex pivots per LP solve.", metrics.ExpBuckets(1, 2, 16))
	reg.GaugeFunc("gddr_lp_cache_entries", "Number of memoised LP optima.", func() float64 {
		return float64(c.Len())
	})
	c.mu.Lock()
	c.metHits, c.metMisses, c.metSolve = hits, misses, solve
	c.metWarm, c.metCold, c.metPivots = warm, cold, pivots
	c.mu.Unlock()
}

// Get returns the optimal max utilisation for dm on g, solving the LP on a
// cache miss.
func (c *OptimalCache) Get(g *graph.Graph, dm *traffic.DemandMatrix) (float64, error) {
	return c.get(context.Background(), g, dm, MaxUtilization)
}

// GetContext is Get with cancellation: on a cache miss the context is
// checked before the LP solve starts and polled between simplex pivots
// during it, so a cancelled caller stops promptly even mid-solve.
func (c *OptimalCache) GetContext(ctx context.Context, g *graph.Graph, dm *traffic.DemandMatrix) (float64, error) {
	return c.get(ctx, g, dm, MaxUtilization)
}

func (c *OptimalCache) get(ctx context.Context, g *graph.Graph, dm *traffic.DemandMatrix, obj Objective) (float64, error) {
	key := cacheKey{g: g, dm: dm, obj: obj}
	c.mu.Lock()
	v, ok := c.m[key]
	metHits, metMisses := c.metHits, c.metMisses
	c.mu.Unlock()
	if ok {
		if metHits != nil {
			metHits.Inc()
		}
		return v, nil
	}
	if metMisses != nil {
		metMisses.Inc()
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	// Plain lookups always solve cold and never store a basis: only the
	// canonical chain solves (chainTo) may populate the basis map, which is
	// what keeps chained values deterministic.
	opt, _, err := c.solveOne(ctx, g, dm, obj, nil)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	if prev, ok := c.m[key]; ok {
		opt = prev // first write wins
	} else {
		c.m[key] = opt
	}
	c.mu.Unlock()
	return opt, nil
}

// solveOne runs one instrumented LP solve, optionally warm-started.
func (c *OptimalCache) solveOne(ctx context.Context, g *graph.Graph, dm *traffic.DemandMatrix, obj Objective, warm *lp.Basis) (float64, *lp.Basis, error) {
	c.mu.Lock()
	metSolve, metWarm, metCold, metPivots := c.metSolve, c.metWarm, c.metCold, c.metPivots
	c.mu.Unlock()
	var opt float64
	var stats lp.MCFStats
	var err error
	//gddr:allow determinism LP solve wall-clock feeds the latency histogram only, never the optimum
	solveStart := time.Now()
	switch obj {
	case MeanUtilization:
		opt, _, stats, err = lp.OptimalMeanUtilizationCtx(ctx, g, dm, warm)
	default:
		opt, _, stats, err = lp.OptimalMaxUtilizationCtx(ctx, g, dm, warm)
	}
	if metSolve != nil {
		//gddr:allow determinism LP solve wall-clock feeds the latency histogram only, never the optimum
		metSolve.Observe(time.Since(solveStart).Seconds())
	}
	if err != nil {
		return 0, nil, err
	}
	if stats.WarmStarted {
		if metWarm != nil {
			metWarm.Inc()
		}
	} else if metCold != nil {
		metCold.Inc()
	}
	if metPivots != nil {
		metPivots.Observe(float64(stats.Pivots))
	}
	return opt, stats.Basis, nil
}

// GetSeqContext returns the optimal max utilisation for seq[t] on g,
// warm-chaining LP solves along the sequence on a miss: seq[0] is solved
// cold and each later matrix warm-starts from its predecessor's final
// basis. Values are identical across lookup orders because the chain is the
// single canonical computation (see the OptimalCache doc).
func (c *OptimalCache) GetSeqContext(ctx context.Context, g *graph.Graph, seq []*traffic.DemandMatrix, t int) (float64, error) {
	return c.getSeq(ctx, g, seq, t, MaxUtilization)
}

// GetMeanSeqContext is GetSeqContext for the mean-utilisation objective.
func (c *OptimalCache) GetMeanSeqContext(ctx context.Context, g *graph.Graph, seq []*traffic.DemandMatrix, t int) (float64, error) {
	return c.getSeq(ctx, g, seq, t, MeanUtilization)
}

func (c *OptimalCache) getSeq(ctx context.Context, g *graph.Graph, seq []*traffic.DemandMatrix, t int, obj Objective) (float64, error) {
	if t < 0 || t >= len(seq) {
		return 0, fmt.Errorf("env: sequence index %d out of range [0,%d)", t, len(seq))
	}
	key := cacheKey{g: g, dm: seq[t], obj: obj}
	c.mu.Lock()
	v, ok := c.m[key]
	metHits := c.metHits
	c.mu.Unlock()
	if ok {
		if metHits != nil {
			metHits.Inc()
		}
		return v, nil
	}
	if err := c.chainTo(ctx, g, seq, t, obj, nil); err != nil {
		return 0, err
	}
	c.mu.Lock()
	v, ok = c.m[key]
	c.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("env: chain solve left seq[%d] unsolved", t)
	}
	return v, nil
}

// WarmSequence fills the cache for an entire demand sequence in canonical
// chain order, warm-starting each solve from the previous basis. onSolve,
// when non-nil, is invoked after every LP actually solved (already-cached
// steps are skipped), for progress reporting.
func (c *OptimalCache) WarmSequence(ctx context.Context, g *graph.Graph, seq []*traffic.DemandMatrix, obj Objective, onSolve func(i int)) error {
	if len(seq) == 0 {
		return nil
	}
	return c.chainTo(ctx, g, seq, len(seq)-1, obj, onSolve)
}

// chainTo runs the canonical chain computation for seq[0..upTo] under the
// per-sequence mutex. Steps whose value and basis are both cached are
// skipped (their basis still feeds the chain); a step with a cached value
// but no basis — a plain Get raced ahead of the chain — keeps its cached
// value and only contributes its re-solved basis.
func (c *OptimalCache) chainTo(ctx context.Context, g *graph.Graph, seq []*traffic.DemandMatrix, upTo int, obj Objective, onSolve func(i int)) error {
	mu := c.chainMutex(chainKey{g: g, head: seq[0], obj: obj})
	mu.Lock()
	defer mu.Unlock()
	var warm *lp.Basis
	for i := 0; i <= upTo; i++ {
		key := cacheKey{g: g, dm: seq[i], obj: obj}
		c.mu.Lock()
		_, haveVal := c.m[key]
		b, haveBasis := c.basis[key]
		metMisses := c.metMisses
		c.mu.Unlock()
		if haveVal && haveBasis {
			warm = b
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		opt, nb, err := c.solveOne(ctx, g, seq[i], obj, warm)
		if err != nil {
			return err
		}
		c.mu.Lock()
		if !haveVal {
			c.m[key] = opt
		}
		c.basis[key] = nb
		c.mu.Unlock()
		if !haveVal && metMisses != nil {
			metMisses.Inc()
		}
		warm = nb
		if onSolve != nil {
			onSolve(i)
		}
	}
	return nil
}

// chainMutex returns (creating if needed) the mutex serialising one
// sequence's canonical chain.
func (c *OptimalCache) chainMutex(k chainKey) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	mu, ok := c.chain[k]
	if !ok {
		mu = new(sync.Mutex)
		c.chain[k] = mu
	}
	return mu
}

// Len returns the number of cached optima.
func (c *OptimalCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Env simulates routing one demand sequence on one graph.
type Env struct {
	g    *graph.Graph
	seq  []*traffic.DemandMatrix
	cfg  Config
	opt  *OptimalCache
	ctx  context.Context // bound per run; cancels cache-miss LP solves
	base []float64       // per-edge base weights of the action mapping

	// Episode state.
	t   int     // index of the DM being routed next (starts at cfg.Memory)
	dec decoder // the decision in progress for seq[t]
}

var _ Interface = (*Env)(nil)

// New creates an environment for the sequence on g. The optimal cache may
// be shared between environments; pass nil for a private cache.
func New(g *graph.Graph, seq []*traffic.DemandMatrix, cfg Config, opt *OptimalCache) (*Env, error) {
	if cfg.Memory < 1 {
		return nil, fmt.Errorf("env: memory must be >= 1, got %d", cfg.Memory)
	}
	if len(seq) <= cfg.Memory {
		return nil, fmt.Errorf("env: sequence length %d too short for memory %d", len(seq), cfg.Memory)
	}
	if cfg.Gamma <= 0 {
		return nil, fmt.Errorf("env: gamma must be positive, got %g", cfg.Gamma)
	}
	if cfg.WeightScale <= 0 {
		return nil, fmt.Errorf("env: weight scale must be positive, got %g", cfg.WeightScale)
	}
	if cfg.Mode != FullAction && cfg.Mode != IterativeAction {
		return nil, fmt.Errorf("env: invalid mode %d", int(cfg.Mode))
	}
	for i, dm := range seq {
		if dm.N != g.NumNodes() {
			return nil, fmt.Errorf("env: demand matrix %d has size %d, graph has %d nodes", i, dm.N, g.NumNodes())
		}
	}
	if !g.StronglyConnected() {
		return nil, fmt.Errorf("env: graph must be strongly connected")
	}
	if opt == nil {
		opt = NewOptimalCache()
	}
	return &Env{g: g, seq: seq, cfg: cfg, opt: opt, ctx: context.Background(), base: BaseWeights(g, cfg)}, nil
}

// Graph returns the environment's topology.
func (e *Env) Graph() *graph.Graph { return e.g }

// SetContext binds ctx to the environment: reward computations consult it
// before solving an LP on a cache miss, so cancelling the context stops a
// training or evaluation run at the next solve. A nil ctx resets to the
// background context.
func (e *Env) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
}

// ActionDim returns |E| in full mode, 2 (weight, γ) in iterative mode.
func (e *Env) ActionDim() int {
	if e.cfg.Mode == IterativeAction {
		return 2
	}
	return e.g.NumEdges()
}

// EpisodeSteps returns the number of environment steps per episode.
func (e *Env) EpisodeSteps() int {
	dms := len(e.seq) - e.cfg.Memory
	if e.cfg.Mode == IterativeAction {
		return dms * e.g.NumEdges()
	}
	return dms
}

// Reset starts a new episode.
func (e *Env) Reset() (*Observation, error) {
	e.t = e.cfg.Memory
	e.dec = newDecoder(e.g.NumEdges())
	return e.observe()
}

// Step feeds one pass's action to the decision for seq[t] (see Decode). A
// pass that completes the decision earns its reward and moves the episode
// on to the next DM; an earlier iterative pass earns 0.
func (e *Env) Step(action []float64) (*Observation, float64, bool, error) {
	if e.t < e.cfg.Memory || e.t >= len(e.seq) {
		return nil, 0, false, fmt.Errorf("env: step called outside an episode (t=%d)", e.t)
	}
	weights, gamma, err := e.dec.step(e.base, e.cfg, action)
	if err != nil {
		return nil, 0, false, err
	}
	if weights == nil {
		obs, err := e.observe()
		return obs, 0, false, err
	}
	reward, err := e.rewardFor(weights, gamma)
	if err != nil {
		return nil, 0, false, err
	}
	e.t++
	if e.t >= len(e.seq) {
		return nil, reward, true, nil
	}
	obs, err := e.observe()
	return obs, reward, false, err
}

// rewardFor evaluates the routing implied by weights against the LP optimum
// for the demand matrix of the current timestep, under the configured
// utility function.
func (e *Env) rewardFor(weights []float64, gamma float64) (float64, error) {
	dm := e.seq[e.t]
	res, err := routing.EvaluateWeights(e.g, dm, weights, gamma)
	if err != nil {
		return 0, err
	}
	var achieved, opt float64
	switch e.cfg.Objective {
	case MeanUtilization:
		achieved = res.MeanUtilization()
		opt, err = e.opt.GetMeanSeqContext(e.ctx, e.g, e.seq, e.t)
	default:
		achieved = res.MaxUtilization
		opt, err = e.opt.GetSeqContext(e.ctx, e.g, e.seq, e.t)
	}
	if err != nil {
		return 0, err
	}
	if opt <= 1e-12 {
		if achieved <= 1e-12 {
			return -1, nil // both trivially optimal on an empty matrix
		}
		return 0, fmt.Errorf("env: optimal utilisation is zero but agent's is %g", achieved)
	}
	return -achieved / opt, nil
}
