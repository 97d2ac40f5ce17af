package gddr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gddr/internal/metrics"
)

// Engine is the live network-operations serving surface: a Router whose
// topology and model can change at runtime without dropping traffic. It is
// the layer that makes the paper's central claim — GNN policies generalise
// across topology changes — exercisable at serve time: Apply mutates the
// topology through typed events and the same trained policy immediately
// routes on the mutated graph, while SwapAgent hot-reloads the model.
//
// Internally the engine keeps an immutable serving snapshot — one Router,
// with one demand history and one serving cache, bound to one frozen graph
// (WithReplicas scales its serve slots) — behind an atomic pointer. Route
// reads the snapshot lock-free; Apply and the swap operations build a
// fully-validated replacement snapshot — mutated graph, consistently
// renumbered demand history, probe-checked policy, a fresh Router — then
// publish it atomically and drain the old one.
// In-flight Route calls complete on the snapshot that accepted them; calls
// that lose the race to a retiring snapshot transparently retry on the new
// one, so callers never observe a swap as an error. A failed event or swap
// leaves the current snapshot serving untouched.
type Engine struct {
	cfg routerConfig // workers/replicas/maxBatch reused for every rebuild

	mu     sync.Mutex // serialises Apply/SwapAgent/SwapCheckpoint/Close
	closed bool       // guarded by mu

	state atomic.Pointer[engineState] // stored only under mu

	// registry is pinned for the engine's lifetime and shared with every
	// snapshot's routers, which register into it idempotently: the serving
	// counters and histograms are cumulative across topology and model swaps
	// by construction. serving is the engine's own handle on those router
	// instruments (what Stats reads); met adds the event/swap instruments.
	registry *metrics.Registry
	serving  *routerMetrics
	met      *engineMetrics
}

// engineMetrics bundles the engine's registry instruments: event and swap
// counters plus the timing distributions of the snapshot-replacement
// machinery (rebuild = building the validated replacement while the old
// snapshot still serves; drain = waiting out the old snapshot's in-flight
// batches; apply = the whole Apply call).
type engineMetrics struct {
	eventsApplied  *metrics.Counter
	agentSwaps     *metrics.Counter
	applySeconds   *metrics.Histogram
	rebuildSeconds *metrics.Histogram
	drainSeconds   *metrics.Histogram
}

func newEngineMetrics(reg *metrics.Registry) *engineMetrics {
	return &engineMetrics{
		eventsApplied:  reg.Counter("gddr_engine_events_applied_total", "Topology events successfully applied."),
		agentSwaps:     reg.Counter("gddr_engine_agent_swaps_total", "Successful hot model swaps."),
		applySeconds:   reg.Histogram("gddr_engine_event_apply_seconds", "End-to-end Apply duration (validation, rebuild, drain, publish).", metrics.LatencyBuckets()),
		rebuildSeconds: reg.Histogram("gddr_engine_snapshot_rebuild_seconds", "Building and probe-validating a replacement serving snapshot.", metrics.LatencyBuckets()),
		drainSeconds:   reg.Histogram("gddr_engine_snapshot_drain_seconds", "Draining in-flight requests off a retiring snapshot.", metrics.LatencyBuckets()),
	}
}

// engineState is one immutable serving snapshot: the Router serving
// (agent, graph) with its demand history, published and replaced as a whole
// behind the engine's atomic state pointer. next is closed when the
// snapshot is replaced (or the engine closes), waking Route callers that
// hit the drain window of a swap. nodes/edges cache the topology's shape at
// build time so Stats and Snapshot never touch the graph on the read path.
type engineState struct {
	router  *Router
	agent   *Agent
	version int64
	nodes   int
	edges   int
	next    chan struct{}
}

// EngineStats aggregates serving activity across every topology and model
// the engine has served. Like RouterStats it is a read-only view of the
// counters in the engine's metrics registry, so engines handed one shared
// registry with WithMetricsRegistry share their counts.
type EngineStats struct {
	RouterStats
	// EventsApplied counts topology events successfully applied.
	EventsApplied int64 `json:"events_applied"`
	// AgentSwaps counts successful hot model swaps.
	AgentSwaps int64 `json:"agent_swaps"`
	// TopologyVersion increments on every successful Apply or swap; version
	// 1 is the topology the engine was built with.
	TopologyVersion int64 `json:"topology_version"`
	// Nodes and Edges describe the current topology.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Replicas is the configured WithReplicas serve-slot multiplier.
	Replicas int `json:"replicas"`
}

// TopologySnapshot is the constant-time description of the serving
// snapshot: the fields handlers would otherwise recompute from Graph().
// They are cached when the snapshot is built, so reading them is one atomic
// load — no lock, no graph traversal.
type TopologySnapshot struct {
	// Version is the topology version (0 after Close).
	Version int64 `json:"version"`
	// Nodes and Edges describe the topology currently served.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Replicas is the configured WithReplicas serve-slot multiplier (0
	// after Close).
	Replicas int `json:"replicas"`
}

// Snapshot returns the current topology version, shape, and replica count
// in one atomic read. It is the cheap accessor behind /stats and
// /t/{id}/stats; use Stats for the cumulative serving counters.
func (e *Engine) Snapshot() TopologySnapshot {
	st := e.state.Load()
	if st == nil {
		return TopologySnapshot{}
	}
	return TopologySnapshot{
		Version:  st.version,
		Nodes:    st.nodes,
		Edges:    st.edges,
		Replicas: e.cfg.replicas,
	}
}

// NewEngine builds a dynamic serving engine for agent on topology g. The
// router options (workers, batch bound, warm history) configure the initial
// snapshot; workers and batch bound are reused for every snapshot a
// topology event or model swap builds. The same probe validation as
// NewRouter applies, and re-applies whenever it can fail: on every model
// swap, and on topology events under a shape-bound policy (MLP), where an
// event the policy's fixed dimensions cannot absorb is rejected with the
// old topology still serving. Graph-size-agnostic GNN agents skip the
// re-probe on topology events, keeping event application cheap.
func NewEngine(agent *Agent, g *Graph, opts ...RouterOption) (*Engine, error) {
	cfg := resolveRouterConfig(opts)
	// Pin one registry for the engine's lifetime before the first snapshot
	// is built: every rebuilt router registers into it idempotently, so the
	// serving instruments are cumulative across topology and model swaps.
	if cfg.metrics == nil {
		cfg.metrics = metrics.NewRegistry()
	}
	st, err := buildEngineState(agent, g, cfg, cfg.history, false, 1)
	if err != nil {
		return nil, err
	}
	cfg.history = nil // warm history applies to the first snapshot only
	e := &Engine{
		cfg:      cfg,
		registry: cfg.metrics,
		serving:  newRouterMetrics(cfg.metrics),
		met:      newEngineMetrics(cfg.metrics),
	}
	e.registry.GaugeFunc("gddr_engine_topology_version", "Current topology version (0 after Close).", func() float64 {
		return float64(e.Version())
	})
	e.registry.GaugeFunc("gddr_engine_topology_nodes", "Nodes in the topology currently served.", func() float64 {
		return float64(e.Snapshot().Nodes)
	})
	e.registry.GaugeFunc("gddr_engine_topology_edges", "Edges in the topology currently served.", func() float64 {
		return float64(e.Snapshot().Edges)
	})
	e.registry.GaugeFunc("gddr_engine_replicas", "Configured serve-slot multiplier of the current snapshot (0 after Close).", func() float64 {
		return float64(e.Snapshot().Replicas)
	})
	e.state.Store(st)
	return e, nil
}

// buildEngineState builds one serving snapshot: a Router around (agent, g)
// with workers × replicas serve slots and its history seeded with hist,
// probe-validated unless skipProbe. On failure nothing is published.
func buildEngineState(agent *Agent, g *Graph, cfg routerConfig, hist []*DemandMatrix, skipProbe bool, version int64) (*engineState, error) {
	if agent == nil {
		return nil, fmt.Errorf("gddr: engine needs an agent")
	}
	cfg.workers *= cfg.replicas
	cfg.history = hist
	cfg.skipProbe = skipProbe
	r, err := newRouter(agent, g, cfg)
	if err != nil {
		return nil, err
	}
	return &engineState{
		router:  r,
		agent:   agent,
		version: version,
		nodes:   g.NumNodes(),
		edges:   g.NumEdges(),
		next:    make(chan struct{}),
	}, nil
}

// Metrics returns the registry every snapshot's serving instruments and the
// engine's own event/swap metrics live in — the process's /metrics source.
func (e *Engine) Metrics() *metrics.Registry { return e.registry }

// Route computes the routing decision for dm on the current topology. It is
// safe for concurrent use and never fails because of a concurrent Apply or
// swap: a request that races with a snapshot retirement waits out the drain
// (at most one in-flight batch) and retries on the replacement. After Close
// it returns ErrClosed; a demand matrix sized for a stale topology returns a
// size-mismatch error. As with Router.Route, dm
// joins the demand history and must not be modified after the call.
func (e *Engine) Route(ctx context.Context, dm *DemandMatrix) (*Decision, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		st := e.state.Load()
		if st == nil {
			return nil, ErrClosed
		}
		d, err := st.router.Route(ctx, dm)
		if errors.Is(err, ErrClosed) {
			select {
			case <-st.next: // snapshot replaced (or engine closed); retry
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return d, err
	}
}

// Apply atomically applies a sequence of topology events: the routing state
// is rebuilt on the mutated graph, the demand history is renumbered
// consistently (dropped rows for removed nodes, zero rows for added ones),
// the serving cache (policy output and routing strategy) dies with the old
// snapshot so a cached strategy can never route on a stale graph, and the
// policy is probe-validated on the new topology before it serves. Events are
// all-or-nothing: the first invalid event (unknown link, disconnecting
// removal, ...) rejects the whole call and the current topology keeps
// serving. Apply returns only after in-flight requests on the old topology
// have drained, so once it returns every subsequent decision is computed on
// the mutated graph.
func (e *Engine) Apply(ctx context.Context, events ...Event) error {
	if len(events) == 0 {
		return fmt.Errorf("gddr: apply needs at least one event")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st := e.state.Load()
	// GNN-family policies are graph-size agnostic and were probe-validated
	// when this agent first started serving, so topology rebuilds skip the
	// probe forward pass; shape-bound policies (MLP) re-probe and reject
	// events their fixed dimensions cannot absorb.
	skipProbe := st.agent.Kind == GNNPolicy || st.agent.Kind == GNNIterativePolicy
	transform := func(g *Graph, hist []*DemandMatrix) (*Graph, []*DemandMatrix, error) {
		return applyEvents(g, hist, events)
	}
	start := time.Now()
	if err := e.replaceLocked(st, st.agent, transform, skipProbe); err != nil {
		return err
	}
	e.met.applySeconds.Observe(time.Since(start).Seconds())
	e.met.eventsApplied.Add(int64(len(events)))
	return nil
}

// identityTransform is the model-swap transition: same graph, same history.
func identityTransform(g *Graph, hist []*DemandMatrix) (*Graph, []*DemandMatrix, error) {
	return g, hist, nil
}

// SwapAgent hot-swaps the serving model with zero downtime: the new agent
// is probe-validated on the current topology and inherits the demand
// history, requests in flight on the old policy drain to completion, and
// every subsequent decision uses the new policy. The old agent is rejected
// (and keeps serving) if the new one cannot route the current topology.
func (e *Engine) SwapAgent(ctx context.Context, agent *Agent) error {
	if agent == nil {
		return fmt.Errorf("gddr: swap needs an agent")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st := e.state.Load()
	if err := e.replaceLocked(st, agent, identityTransform, false); err != nil {
		return err
	}
	e.met.agentSwaps.Inc()
	return nil
}

// SwapCheckpoint hot-reloads model parameters from a checkpoint written by
// Agent.Save: it builds a fresh agent with the serving agent's architecture
// and configuration, loads the checkpoint into it, and swaps it in like
// SwapAgent. The checkpoint must match the serving architecture; a
// mismatch is rejected with the old model still serving.
func (e *Engine) SwapCheckpoint(ctx context.Context, r io.Reader) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st := e.state.Load()
	// The MLP constructor sizes itself from a scenario's topology; hand it
	// the topology currently being served.
	scen := &Scenario{Items: []ScenarioItem{{Graph: st.router.Graph()}}}
	agent, err := NewAgent(st.agent.Kind, scen, WithConfig(st.agent.Config))
	if err != nil {
		return fmt.Errorf("gddr: rebuilding serving architecture: %w", err)
	}
	if err := agent.Load(r); err != nil {
		return fmt.Errorf("gddr: loading checkpoint: %w", err)
	}
	if err := e.replaceLocked(st, agent, identityTransform, false); err != nil {
		return err
	}
	e.met.agentSwaps.Inc()
	return nil
}

// replaceLocked swaps the serving snapshot to (agent, transform(old)) with
// validation before disruption and no lost observations:
//
//  1. The transition is validated and the replacement built and
//     probe-checked against a provisional history, all while the old
//     snapshot keeps serving — a rejected event or incompatible agent
//     returns here with serving untouched.
//  2. The old snapshot's Router is closed, which drains its in-flight
//     batches, so its demand history is final; Route callers arriving in
//     this window wait on old.next instead of failing.
//  3. The final history is re-transformed and carried into the replacement,
//     which is then published behind one atomic store. No demand matrix
//     routed on the old snapshot is lost, and every post-return decision is
//     computed on the new state.
//
// skipProbe elides the probe forward pass for rebuilds around an
// already-validated graph-size-agnostic agent. Callers hold e.mu.
func (e *Engine) replaceLocked(old *engineState, agent *Agent, transform func(*Graph, []*DemandMatrix) (*Graph, []*DemandMatrix, error), skipProbe bool) error {
	g := old.router.Graph()
	g2, hist, err := transform(g, old.router.hist.snapshot())
	if err != nil {
		return err
	}
	rebuildStart := time.Now()
	st, err := buildEngineState(agent, g2, e.cfg, hist, skipProbe, old.version+1)
	if err != nil {
		return err
	}
	drainStart := time.Now()
	e.met.rebuildSeconds.Observe(drainStart.Sub(rebuildStart).Seconds())
	old.router.Close()
	e.met.drainSeconds.Observe(time.Since(drainStart).Seconds())
	// Re-transform the now-final history (in-flight batches may have pushed
	// matrices after the provisional snapshot). A transform that just
	// succeeded on the same graph cannot fail on a longer history; if it
	// somehow does, the provisional history stands.
	if _, final, err := transform(g, old.router.hist.snapshot()); err == nil {
		st.router.hist.set(final)
	}
	e.state.Store(st)
	close(old.next)
	return nil
}

// Graph returns a copy of the topology currently being served (nil after
// Close). The copy is the caller's to modify; changing it does not affect
// the engine — topology changes go through Apply.
func (e *Engine) Graph() *Graph {
	st := e.state.Load()
	if st == nil {
		return nil
	}
	return st.router.Graph().Clone()
}

// Version returns the current topology version: 1 at construction,
// incremented by every successful Apply, SwapAgent, or SwapCheckpoint.
// Zero after Close.
func (e *Engine) Version() int64 {
	st := e.state.Load()
	if st == nil {
		return 0
	}
	return st.version
}

// Stats returns cumulative serving counters across every topology and
// model the engine has served, read straight from the registry instruments
// (they outlive Close). It takes no lock, so it never waits behind an Apply
// or swap that is draining a snapshot.
func (e *Engine) Stats() EngineStats {
	stats := EngineStats{
		RouterStats:   e.serving.stats(),
		EventsApplied: e.met.eventsApplied.Value(),
		AgentSwaps:    e.met.agentSwaps.Value(),
	}
	if st := e.state.Load(); st != nil {
		stats.TopologyVersion = st.version
		stats.Nodes = st.nodes
		stats.Edges = st.edges
		stats.Replicas = e.cfg.replicas
	}
	return stats
}

// Close stops serving: in-flight requests drain, then every subsequent
// Route, Apply, or swap returns ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	st := e.state.Load()
	e.state.Store(nil)
	if st != nil {
		st.router.Close()
		close(st.next) // wake waiters; they observe the nil state
	}
}
