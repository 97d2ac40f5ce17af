package gddr

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"gddr/internal/metrics"
	"gddr/internal/policy"
	"gddr/internal/topo"
)

// TenantConfig describes one serving tenant: which embedded topology it
// routes, the policy architecture and (optionally) saved model it serves
// with, how its Engine is shaped (replicas, workers, batching), and the
// admission limits protecting the rest of the fleet from its traffic. The
// zero value of every optional field means "use the default"; the JSON
// form is what fleet config files (-fleet fleet.json) and the POST /tenants
// admin endpoint accept.
type TenantConfig struct {
	// Topology names the embedded topology this tenant serves (see
	// topo.Names). Required.
	Topology string `json:"topology"`
	// Policy is the architecture the tenant's model was trained with
	// (default "gnn").
	Policy string `json:"policy,omitempty"`
	// Checkpoint is a path to saved model JSON (Agent.Save format). Empty
	// means a capacity-aware cold start, mirroring gddr-serve -model.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Memory is the demand-history length m; must match training (default 3).
	Memory int `json:"memory,omitempty"`
	// GNNHidden and GNNSteps size the GNN policy; must match training
	// (defaults 16 and 2).
	GNNHidden int `json:"gnn_hidden,omitempty"`
	GNNSteps  int `json:"gnn_steps,omitempty"`
	// Replicas multiplies the tenant snapshot's serve slots (default 1; see
	// WithReplicas).
	Replicas int `json:"replicas,omitempty"`
	// Workers is the serve-slot count per replica (0: GOMAXPROCS; see
	// WithRouterWorkers).
	Workers int `json:"workers,omitempty"`
	// MaxBatch bounds how many requests share one forward pass (default 16).
	MaxBatch int `json:"max_batch,omitempty"`
	// QueueDepth bounds the tenant's in-flight admission slots: once this
	// many Route calls are in flight, further calls shed with ErrOverloaded
	// instead of queueing unboundedly (default 64).
	QueueDepth int `json:"queue_depth,omitempty"`
	// RateLimit caps sustained admitted Route calls per second via a token
	// bucket; 0 means unlimited.
	RateLimit float64 `json:"rate_limit,omitempty"`
	// Burst is the token-bucket capacity: how far above the sustained rate
	// a short spike may go (default: max(1, ceil(RateLimit))). Ignored when
	// RateLimit is 0.
	Burst int `json:"burst,omitempty"`
}

// defaultQueueDepth bounds a tenant's in-flight Route calls when the config
// does not say otherwise: deep enough that batching stays effective, small
// enough that one tenant's backlog cannot hold the gateway's memory.
const defaultQueueDepth = 64

// withDefaults returns cfg with every zero optional field resolved to its
// documented default.
func (c TenantConfig) withDefaults() TenantConfig {
	if c.Policy == "" {
		c.Policy = "gnn"
	}
	if c.Memory == 0 {
		c.Memory = 3
	}
	if c.GNNHidden == 0 {
		c.GNNHidden = 16
	}
	if c.GNNSteps == 0 {
		c.GNNSteps = 2
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.RateLimit > 0 && c.Burst == 0 {
		c.Burst = int(c.RateLimit)
		if float64(c.Burst) < c.RateLimit {
			c.Burst++
		}
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// Validate rejects configs that could not boot a tenant or would violate
// the fleet's invariants (negative limits, unknown topology or policy).
// It validates the defaulted form, so callers may pass sparse configs.
func (c TenantConfig) Validate() error {
	c = c.withDefaults()
	if c.Topology == "" {
		return fmt.Errorf("gddr: tenant config needs a topology")
	}
	if _, err := topo.Named(c.Topology); err != nil {
		return err
	}
	if _, err := policy.ParseKind(c.Policy); err != nil {
		return err
	}
	if c.Memory < 1 {
		return fmt.Errorf("gddr: tenant memory must be >= 1, got %d", c.Memory)
	}
	if c.Replicas < 1 {
		return fmt.Errorf("gddr: tenant replicas must be >= 1, got %d", c.Replicas)
	}
	if c.Workers < 0 {
		return fmt.Errorf("gddr: tenant workers must be >= 0, got %d", c.Workers)
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("gddr: tenant max_batch must be >= 1, got %d", c.MaxBatch)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("gddr: tenant queue_depth must be >= 1, got %d", c.QueueDepth)
	}
	if c.RateLimit < 0 {
		return fmt.Errorf("gddr: tenant rate_limit must be >= 0, got %g", c.RateLimit)
	}
	if c.Burst < 0 {
		return fmt.Errorf("gddr: tenant burst must be >= 0, got %d", c.Burst)
	}
	return nil
}

// admission is one tenant's gate: a bounded in-flight slot pool (the
// admission queue) plus an optional token bucket capping the sustained
// admitted rate. Both shed immediately with ErrOverloaded rather than
// blocking — under saturation the caller gets a fast, typed 429-able
// answer and sibling tenants keep their capacity.
type admission struct {
	// slots holds one token per admitted in-flight Route call; buffered to
	// QueueDepth so a full channel IS the saturation signal.
	slots chan struct{}

	// The token bucket refills continuously at rate tokens/second up to
	// burst. rate 0 disables it. Guarded by mu; admission is two cheap
	// arithmetic ops under the lock, never a wait.
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64   //gddr:guardedby mu
	last   time.Time //gddr:guardedby mu
}

func newAdmission(cfg TenantConfig) *admission {
	a := &admission{
		slots: make(chan struct{}, cfg.QueueDepth),
		rate:  cfg.RateLimit,
		burst: float64(cfg.Burst),
	}
	a.tokens = a.burst // a fresh tenant may burst immediately
	a.last = time.Now()
	return a
}

// acquire admits one request or fails fast with ErrOverloaded. On success
// the caller must release exactly once.
func (a *admission) acquire() error {
	select {
	case a.slots <- struct{}{}:
	default:
		return fmt.Errorf("%w: admission queue is full", ErrOverloaded)
	}
	if a.rate > 0 && !a.takeToken() {
		<-a.slots
		return fmt.Errorf("%w: rate limit exceeded", ErrOverloaded)
	}
	return nil
}

func (a *admission) release() { <-a.slots }

// takeToken refills the bucket for the elapsed wall time and spends one
// token if available.
func (a *admission) takeToken() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	a.tokens += now.Sub(a.last).Seconds() * a.rate
	if a.tokens > a.burst {
		a.tokens = a.burst
	}
	a.last = now
	if a.tokens < 1 {
		return false
	}
	a.tokens--
	return true
}

// A Tenant is one named serving unit inside a Fleet: an Engine on its own
// topology, model, and demand history, fronted by this tenant's admission
// gate. Tenants are handed out by Fleet.Tenant and stay valid until the
// fleet deletes them (after which the engine is closed and Route returns
// ErrClosed).
type Tenant struct {
	id     string
	cfg    TenantConfig
	engine *Engine

	adm *admission

	// Fleet-registry instruments, bound to this tenant's label at create
	// time so the serving path never re-resolves them.
	admitted *metrics.Counter
	shed     *metrics.Counter
	latency  *metrics.Histogram
}

// ID returns the tenant's fleet-unique name.
func (t *Tenant) ID() string { return t.id }

// Config returns the tenant's resolved (defaulted) configuration.
func (t *Tenant) Config() TenantConfig { return t.cfg }

// Engine exposes the tenant's underlying engine for operations the tenant
// wrapper does not gate (metrics, graph inspection).
func (t *Tenant) Engine() *Engine { return t.engine }

// Route admits the request through the tenant's bounded queue and rate
// limit, then routes on the tenant's engine. Saturation returns
// ErrOverloaded without touching the engine, so an overloaded tenant sheds
// at the gate instead of queueing into shared compute.
func (t *Tenant) Route(ctx context.Context, dm *DemandMatrix) (*Decision, error) {
	if err := t.adm.acquire(); err != nil {
		t.shed.Inc()
		return nil, err
	}
	defer t.adm.release()
	t.admitted.Inc()
	begin := time.Now()
	d, err := t.engine.Route(ctx, dm)
	t.latency.Observe(time.Since(begin).Seconds())
	return d, err
}

// Apply forwards topology events to the tenant's engine. Mutations are not
// admission-gated: they are rare control-plane operations whose loss would
// desynchronize the tenant from its real network.
func (t *Tenant) Apply(ctx context.Context, events ...Event) error {
	return t.engine.Apply(ctx, events...)
}

// SwapAgent hot-swaps the tenant's model (see Engine.SwapAgent).
func (t *Tenant) SwapAgent(ctx context.Context, agent *Agent) error {
	return t.engine.SwapAgent(ctx, agent)
}

// SwapCheckpoint hot-swaps the tenant's model from a serialized checkpoint
// (see Engine.SwapCheckpoint).
func (t *Tenant) SwapCheckpoint(ctx context.Context, r io.Reader) error {
	return t.engine.SwapCheckpoint(ctx, r)
}

// Stats returns the tenant engine's cumulative serving statistics.
func (t *Tenant) Stats() EngineStats { return t.engine.Stats() }

// Snapshot returns the tenant engine's current topology snapshot.
func (t *Tenant) Snapshot() TopologySnapshot { return t.engine.Snapshot() }

// Version returns the tenant's current topology version.
func (t *Tenant) Version() int64 { return t.engine.Version() }

// newTenantAgent builds the agent a tenant config describes: the named
// architecture sized for the tenant's topology, loaded from the checkpoint
// file when one is configured.
func newTenantAgent(cfg TenantConfig, g *Graph) (*Agent, error) {
	kind, err := policy.ParseKind(cfg.Policy)
	if err != nil {
		return nil, err
	}
	// The MLP constructor sizes itself from a scenario's topology; GNN
	// agents ignore the scenario.
	scen := &Scenario{Items: []ScenarioItem{{Graph: g}}}
	agent, err := NewAgent(kind, scen,
		WithMemory(cfg.Memory),
		WithGNNSize(cfg.GNNHidden, cfg.GNNSteps))
	if err != nil {
		return nil, err
	}
	if cfg.Checkpoint != "" {
		f, err := os.Open(cfg.Checkpoint)
		if err != nil {
			return nil, err
		}
		err = agent.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", cfg.Checkpoint, err)
		}
	}
	return agent, nil
}
