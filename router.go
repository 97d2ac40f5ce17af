package gddr

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gddr/internal/env"
	"gddr/internal/metrics"
	"gddr/internal/rl"
	"gddr/internal/routing"
	"gddr/internal/traffic"
)

// ErrClosed is the sentinel returned by Route (and every Engine operation)
// after Close: serving has stopped and no request will be accepted. Test
// with errors.Is.
var ErrClosed = errors.New("gddr: serving engine is closed")

// ErrRouterClosed is the former name of ErrClosed, kept as an alias so
// existing errors.Is checks keep working.
var ErrRouterClosed = ErrClosed

// ErrInternal is the sentinel wrapped by the error every unanswered request
// of a batch receives when serving that batch panicked. The panic is
// contained to the batch: the router and every other tenant in the process
// keep serving. Test with errors.Is.
var ErrInternal = errors.New("gddr: internal serving error")

// Decision is the routing decision for one demand matrix: the learned edge
// weights, the softmin spread, the fully-specified splitting ratios they
// induce, and the link loads and utilisation of applying that routing to
// the requested demand. Weights and Splits (the map and every row) are
// read-only views of the serving strategy, shared by every decision it
// serves; Loads, Utilization and Trace are the caller's. Clone gives a copy
// that is the caller's throughout.
type Decision struct {
	// Weights holds one strictly positive weight per edge (graph edge
	// order), as emitted by the policy's action head.
	Weights []float64 `json:"weights"`
	// Gamma is the softmin spread used to derive the splitting ratios; the
	// iterative policy learns it per decision, the others use the
	// configured value.
	Gamma float64 `json:"gamma"`
	// Splits maps each destination node with demand to its per-edge
	// splitting ratios: Splits[sink][e] is the fraction of traffic
	// transiting edge e's source that is destined for sink and forwarded
	// over e (zero on edges dropped from the destination DAG).
	Splits map[int][]float64 `json:"splits"`
	// Loads is the per-edge traffic carried under this routing.
	Loads []float64 `json:"loads"`
	// Utilization is the per-edge load/capacity ratio.
	Utilization []float64 `json:"utilization"`
	// MaxUtilization is the maximum link utilisation, the paper's objective.
	MaxUtilization float64 `json:"max_utilization"`
	// Trace is the per-request timing breakdown, attached only when the
	// router was built with WithTracing.
	Trace *RouteTrace `json:"trace,omitempty"`
}

// Clone returns a deep copy of d, every slice and map the caller's own.
func (d *Decision) Clone() *Decision {
	c := *d
	c.Weights, c.Loads, c.Utilization = slices.Clone(d.Weights), slices.Clone(d.Loads), slices.Clone(d.Utilization)
	c.Splits = maps.Clone(d.Splits)
	for sink, row := range c.Splits {
		c.Splits[sink] = slices.Clone(row)
	}
	if d.Trace != nil {
		t := *d.Trace
		c.Trace = &t
	}
	return &c
}

// RouteTrace is the opt-in (WithTracing) per-request timing breakdown: how
// long the request waited for a serve slot, what the batch it joined
// spent in each serving stage, and which fast-path caches answered. The
// observe/forward/strategy stages are shared by the whole batch (one
// observation and forward pass serve every member); queue-wait and evaluate
// are this request's own. A policy-cache hit zeroes observe and forward; a
// strategy-cache hit zeroes strategy — this is how the cached and uncached
// paths are individually attributable.
type RouteTrace struct {
	// BatchSize is the number of requests served by this request's batch.
	BatchSize int `json:"batch_size"`
	// QueueWaitNS is the time from Route submission until a combiner (the
	// caller holding a serve slot) took the request into its batch.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	// ObserveNS is the demand-history observation build (0 on a policy-cache
	// hit).
	ObserveNS int64 `json:"observe_ns"`
	// ForwardNS covers the policy forward pass(es) (0 on a policy-cache hit).
	ForwardNS int64 `json:"forward_ns"`
	// StrategyNS is the softmin routing-strategy build, every sink's
	// splitting ratios included (0 on a strategy-cache hit).
	StrategyNS int64 `json:"strategy_ns"`
	// EvaluateNS is this request's demand propagation and Decision assembly
	// only; it builds no ratios.
	EvaluateNS int64 `json:"evaluate_ns"`
	// PolicyCacheHit reports whether the batch reused the cached policy
	// output (no observation, no forward pass).
	PolicyCacheHit bool `json:"policy_cache_hit"`
	// StrategyCacheHit reports whether the batch reused the cached routing
	// strategy.
	StrategyCacheHit bool `json:"strategy_cache_hit"`
}

// RouterStats is a read-only view of the serving counters in the router's
// metrics registry (see Router.Metrics): activity since the registry's
// first router started, so routers handed one shared registry with
// WithMetricsRegistry share their stats exactly as they share the counters.
type RouterStats struct {
	// Requests is the number of demand matrices routed.
	Requests int64 `json:"requests"`
	// Batches is the number of request batches served; Requests/Batches is
	// the mean batch size.
	Batches int64 `json:"batches"`
	// ForwardPasses is the number of policy forward passes run. Concurrent
	// callers batched together share one pass (the iterative policy runs
	// |E| passes per batch), and batches answered from the policy-output
	// cache run none.
	ForwardPasses int64 `json:"forward_passes"`
	// PolicyCacheHits counts batches that reused the previous policy output
	// because the observed demand-history window was unchanged (steady
	// demand), skipping the observation build and every forward pass.
	PolicyCacheHits int64 `json:"policy_cache_hits"`
	// StrategyHits counts batches that reused the cached routing strategy —
	// the policy emitted the same (weights, gamma), so the per-sink softmin
	// splitting ratios were served from cache instead of being rebuilt.
	StrategyHits int64 `json:"strategy_hits"`
	// StrategyMisses counts batches that built a fresh routing strategy.
	StrategyMisses int64 `json:"strategy_misses"`
}

// Router wraps a trained Agent as a thread-safe inference engine for one
// frozen topology: the "GNN as deployable router" of the paper's
// motivation, and the single-graph fast path underneath Engine. It keeps a
// sliding window of the most recent demand matrices (the policy's
// observation history) and answers Route calls with fully-specified
// routing decisions.
//
// Route serves by flat combining on the callers' own goroutines: a caller
// queues its request, and whichever caller holds one of the router's serve
// slots (WithRouterWorkers) takes every queued request, up to the batch
// bound, and serves them together — so requests arriving while the policy
// is busy share a single forward pass, and no goroutine is started.
//
// A Router never changes its graph: topology events are expressed by
// building a fresh Router on the mutated graph and retiring the old one,
// which is exactly what Engine.Apply does. Use an Engine when the topology
// or the model must change at runtime; use a bare Router when neither does
// and the indirection is unwanted.
//
// The agent must not be trained while the router is serving; training
// mutates the policy parameters the forward passes read.
type Router struct {
	agent       *Agent
	g           *Graph
	ecfg        env.Config
	base        []float64 // per-edge base weights of the action mapping
	maxBatch    int
	batchWindow time.Duration
	noCache     bool
	zero        *DemandMatrix // cold-start history pad (all-zero demand)

	// hist is the sliding demand-history window, the policy's observation
	// state.
	hist *demandHistory

	// Flat combining. Route appends its request to pending and contends for
	// a serve slot; the slot holder serves what is pending. arrived is a
	// 1-buffered doorbell rung on every append, which a combiner holding a
	// batch window open waits on. Close sets closed, closes quit and takes
	// every slot for good.
	mu        sync.Mutex
	closed    bool            //gddr:guardedby mu
	pending   []*routeRequest //gddr:guardedby mu
	arrived   chan struct{}
	slots     chan struct{}
	quit      chan struct{}
	closeOnce sync.Once

	// cache is the serving fast path: the strategy built for the last
	// observed window. An unchanged window reuses it whole (no observation,
	// no forward pass, no build); fresh policy output that Matches it reuses
	// the strategy. Entries are immutable and published only after a
	// successful build; the cache dies with the Router, so
	// Engine.Apply/SwapAgent/SwapCheckpoint invalidate it by construction.
	cache atomic.Pointer[servingCache]

	observers sync.Pool // *env.Observer, one in flight per combiner
	scratch   sync.Pool // *routing.Scratch, one in flight per evaluation

	// registry holds the serving instruments met points into. They are the
	// only serving counters: Stats() is a view over them, and a registry
	// shared across routers (every snapshot of one Engine) keeps them
	// cumulative. noMetrics (benchmark only) skips the per-request clock
	// reads and histogram observations, never the counters.
	registry  *metrics.Registry
	met       *routerMetrics
	tracing   bool
	noMetrics bool
}

// routerMetrics bundles the router's registry instruments. Names follow the
// gddr_<subsystem>_<name>_<unit> contract pinned in DESIGN.md.
type routerMetrics struct {
	requests        *metrics.Counter
	batches         *metrics.Counter
	forwardPasses   *metrics.Counter
	policyCacheHits *metrics.Counter
	strategyHits    *metrics.Counter
	strategyMisses  *metrics.Counter
	panics          *metrics.Counter
	routeLatency    *metrics.Histogram
	queueWait       *metrics.Histogram
	batchSize       *metrics.Histogram
}

func newRouterMetrics(reg *metrics.Registry) *routerMetrics {
	return &routerMetrics{
		requests:        reg.Counter("gddr_router_requests_total", "Demand matrices routed."),
		batches:         reg.Counter("gddr_router_batches_total", "Request batches served; requests/batches is the mean batch size."),
		forwardPasses:   reg.Counter("gddr_router_forward_passes_total", "Policy forward passes run (cache hits run none)."),
		policyCacheHits: reg.Counter("gddr_router_policy_cache_hits_total", "Batches answered from the policy-output cache."),
		strategyHits:    reg.Counter("gddr_router_strategy_cache_hits_total", "Batches that reused the cached routing strategy."),
		strategyMisses:  reg.Counter("gddr_router_strategy_cache_misses_total", "Batches that built a fresh routing strategy."),
		panics:          reg.Counter("gddr_router_panics_total", "Batches whose serving panicked; their requests got ErrInternal."),
		routeLatency:    reg.Histogram("gddr_router_route_latency_seconds", "End-to-end Route latency (queue wait included).", metrics.LatencyBuckets()),
		queueWait:       reg.Histogram("gddr_router_queue_wait_seconds", "Time a request waited for a serve slot.", metrics.LatencyBuckets()),
		batchSize:       reg.Histogram("gddr_router_batch_size", "Requests sharing one forward pass.", metrics.LinearBuckets(1, 1, 16)),
	}
}

// stats reads the serving counters as a RouterStats view.
func (m *routerMetrics) stats() RouterStats {
	return RouterStats{
		Requests:        m.requests.Value(),
		Batches:         m.batches.Value(),
		ForwardPasses:   m.forwardPasses.Value(),
		PolicyCacheHits: m.policyCacheHits.Value(),
		StrategyHits:    m.strategyHits.Value(),
		StrategyMisses:  m.strategyMisses.Value(),
	}
}

// servingCache is one immutable serving-cache entry: the routing strategy
// (which carries its weights and gamma) the deterministic MeanAction
// produced for one observed history window. window holds the matrices by
// pointer; entries are value-compared on lookup so a gateway decoding
// identical steady demand into fresh allocations still hits, with a pointer
// fast path that is sound because Route takes ownership of submitted
// matrices (they are immutable once in the history).
type servingCache struct {
	window   []*DemandMatrix
	strategy *routing.Strategy
}

// demandHistory is the sliding window of the most recently routed demand
// matrices (oldest first, len <= memory): the policy's observation state.
// Concurrent combiners serialise on its mutex.
type demandHistory struct {
	mu     sync.Mutex
	memory int
	// dms is preallocated to memory capacity once and then only resliced
	// or shifted in place, so the serving path never reallocates it.
	dms []*DemandMatrix //gddr:guardedby mu
}

func newDemandHistory(memory int) *demandHistory {
	if memory < 0 {
		memory = 0
	}
	return &demandHistory{memory: memory, dms: make([]*DemandMatrix, 0, memory)}
}

// observeAndPush atomically snapshots the observation window (cold-start
// slots padded with pad) and appends the batch's matrices, so concurrent
// batches serialise into one coherent history: each batch observes
// everything pushed before it and nothing pushed after. The window returned
// is the cached entry's own when its slots are pointer-identical to the
// full history (steady demand re-pushes the same matrices), and a fresh
// HistoryWindow copy otherwise; no one writes either again, so it is safe
// to retain.
func (h *demandHistory) observeAndPush(pad *DemandMatrix, batch []*routeRequest, cached *servingCache) []*DemandMatrix {
	h.mu.Lock()
	defer h.mu.Unlock()
	var win []*DemandMatrix
	if cached != nil && slices.Equal(cached.window, h.dms) {
		win = cached.window
	} else {
		win = env.HistoryWindow(h.dms, h.memory, pad)
	}
	for _, req := range batch {
		h.pushLocked(req.dm)
	}
	return win
}

// pushLocked appends one matrix to the window in place; callers hold h.mu.
// The buffer's capacity is pinned at memory by the constructor and set, so
// a full window shifts left instead of growing — steady-state pushes are
// allocation-free.
func (h *demandHistory) pushLocked(dm *DemandMatrix) {
	if h.memory <= 0 {
		return
	}
	if n := len(h.dms); n < h.memory {
		h.dms = h.dms[:n+1]
		h.dms[n] = dm
	} else {
		copy(h.dms, h.dms[1:])
		h.dms[h.memory-1] = dm
	}
}

// window returns the current observation window without pushing anything
// (construction-time probe).
func (h *demandHistory) window(pad *DemandMatrix) []*DemandMatrix {
	h.mu.Lock()
	defer h.mu.Unlock()
	return env.HistoryWindow(h.dms, h.memory, pad)
}

// snapshot copies the raw history (no padding, oldest first).
func (h *demandHistory) snapshot() []*DemandMatrix {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*DemandMatrix(nil), h.dms...)
}

// set replaces the history, trimming to the memory window. The matrices are
// copied into the preallocated buffer (never aliased), preserving the
// capacity invariant pushLocked relies on.
func (h *demandHistory) set(dms []*DemandMatrix) {
	if len(dms) > h.memory {
		dms = dms[len(dms)-h.memory:]
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dms = append(h.dms[:0], dms...)
}

// push appends one matrix, trimming to the memory window.
func (h *demandHistory) push(dm *DemandMatrix) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pushLocked(dm)
}

// monoEpoch anchors monoNow, the serving path's clock: nanoseconds on the
// monotonic clock alone, which costs one clock read where time.Now costs
// two (wall and monotonic).
var monoEpoch = time.Now()

func monoNow() int64 { return int64(time.Since(monoEpoch)) }

type routeRequest struct {
	ctx      context.Context
	dm       *DemandMatrix
	enqueued int64 // monoNow at submission; set unless noMetrics and untraced
	resp     chan routeResponse
}

type routeResponse struct {
	d   *Decision
	err error
}

// NewRouter builds a serving engine for agent on topology g. The agent may
// be freshly loaded (Save/Load round-trip) or just trained; a probe
// forward pass validates that the policy fits the topology, so an MLP
// agent bound to a different graph is rejected here rather than at the
// first Route call.
func NewRouter(agent *Agent, g *Graph, opts ...RouterOption) (*Router, error) {
	return newRouter(agent, g, resolveRouterConfig(opts))
}

// newRouter builds a router from a resolved config.
func newRouter(agent *Agent, g *Graph, cfg routerConfig) (*Router, error) {
	if agent == nil {
		return nil, fmt.Errorf("gddr: router needs an agent")
	}
	if g == nil {
		return nil, fmt.Errorf("gddr: router needs a topology")
	}
	if !g.StronglyConnected() {
		return nil, fmt.Errorf("gddr: router topology must be strongly connected")
	}
	ecfg := agent.envConfig()
	r := &Router{
		agent:       agent,
		g:           g,
		ecfg:        ecfg,
		base:        env.BaseWeights(g, ecfg),
		maxBatch:    cfg.maxBatch,
		batchWindow: cfg.batchWindow,
		noCache:     cfg.noCache,
		tracing:     cfg.tracing,
		noMetrics:   cfg.noMetrics,
		registry:    cfg.metrics,
		zero:        traffic.NewDemandMatrix(g.NumNodes()),
		hist:        newDemandHistory(ecfg.Memory),
		arrived:     make(chan struct{}, 1),
		slots:       make(chan struct{}, cfg.workers),
		quit:        make(chan struct{}),
	}
	r.observers.New = func() any { return new(env.Observer) }
	r.scratch.New = func() any { return new(routing.Scratch) }
	if r.registry == nil {
		r.registry = metrics.NewRegistry()
	}
	r.met = newRouterMetrics(r.registry)
	for _, dm := range cfg.history {
		if dm == nil || dm.N != g.NumNodes() {
			return nil, fmt.Errorf("gddr: warm-history matrix does not match the %d-node topology", g.NumNodes())
		}
		r.hist.push(dm)
	}
	// Probe: one decision on the current history window catches policies
	// whose shape is bound to a different topology before serving starts. The
	// stage functions neither count nor cache — only serve does — so the
	// probe leaves the cache cold and the serving counters honest.
	if !cfg.skipProbe {
		obs, err := env.Observe(g, r.hist.window(r.zero))
		if err == nil {
			_, _, _, err = env.Decode(obs, r.base, ecfg, r.act)
		}
		if err != nil {
			return nil, fmt.Errorf("gddr: agent incompatible with topology: %w", err)
		}
	}
	return r, nil
}

// Route computes the routing decision for dm. The request observes the
// demand history accumulated by previous calls (the paper's m-step demand
// memory); dm itself joins the history for subsequent decisions, so
// ownership of dm passes to the router: the caller must not modify it
// after Route returns (a mutated matrix would silently rewrite the demand
// history past decisions were supposed to have observed, and defeat the
// serving cache's change detection — submit a fresh or cloned matrix per
// tick instead). The Decision's Weights and Splits are likewise not the
// caller's to modify: they are views shared with other decisions (see
// Decision). Route is safe for concurrent use: requests that arrive
// while the policy is busy are batched onto one shared forward pass, served
// on the goroutine of whichever caller holds a serve slot. Cancelling ctx
// abandons the request.
func (r *Router) Route(ctx context.Context, dm *DemandMatrix) (*Decision, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if dm == nil {
		return nil, fmt.Errorf("gddr: route needs a demand matrix")
	}
	if dm.N != r.g.NumNodes() {
		return nil, fmt.Errorf("gddr: demand matrix size %d != %d topology nodes", dm.N, r.g.NumNodes())
	}
	// One request envelope (struct + response channel) per call is the
	// batching contract: the envelope is queued where any combiner may serve
	// it, so it cannot live on this stack or in a pool keyed to it.
	req := &routeRequest{ctx: ctx, dm: dm, resp: make(chan routeResponse, 1)}
	if !r.noMetrics || r.tracing {
		req.enqueued = monoNow()
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.pending = append(r.pending, req)
	r.mu.Unlock()
	select {
	case r.arrived <- struct{}{}:
	default:
	}
	// Every queued request's owner contends for a slot until answered, so no
	// request is stranded. A combiner that found nothing queued knows its own
	// request is in another combiner's batch and stops contending (a send on
	// a nil channel never proceeds), only waiting for the reply.
	slots := r.slots
	for {
		select {
		case resp := <-req.resp:
			return resp.d, resp.err
		case slots <- struct{}{}:
			if !r.combine() {
				slots = nil
			}
			<-r.slots
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Stats returns the serving counters: a view over the registry instruments
// behind Metrics, cumulative across every router sharing that registry.
func (r *Router) Stats() RouterStats { return r.met.stats() }

// Graph returns the frozen topology the router serves. The graph is shared,
// not copied; it must not be modified.
func (r *Router) Graph() *Graph { return r.g }

// Metrics returns the registry the router's instruments live in: the
// private per-router one by default, or the registry passed with
// WithMetricsRegistry. Expose it with metrics.Registry.WritePrometheus (the
// gddr-serve /metrics endpoint) or snapshot it with Snapshot/WriteJSON.
func (r *Router) Metrics() *metrics.Registry { return r.registry }

// Close stops serving and drains: queued requests no combiner has taken
// return ErrClosed, batches already taken complete normally, and Close
// returns once none is in flight. Later Route calls return ErrClosed. Close
// is idempotent and safe to call concurrently with Route.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		queued := r.pending
		r.pending = nil
		r.mu.Unlock()
		close(r.quit)
		fail(queued, ErrClosed)
		for i := 0; i < cap(r.slots); i++ {
			r.slots <- struct{}{}
		}
	})
}

// combine is the serve-slot holder's turn: it takes queued requests, up to
// the batch bound, and serves them as one batch, reporting whether it took
// any. The yield first lets concurrent callers that are runnable but have
// not queued yet do so — without it, on few cores batches degenerate to
// singletons. With a batch window configured, the combiner then keeps the
// batch open up to that long, taking requests as they arrive; Close cuts
// the wait short, and the batch taken so far is still served (Close drains
// in-flight work).
func (r *Router) combine() bool {
	runtime.Gosched()
	batch := r.take(nil)
	if len(batch) == 0 {
		return false
	}
	if r.batchWindow > 0 && len(batch) < r.maxBatch {
		timer := time.NewTimer(r.batchWindow)
	window:
		for len(batch) < r.maxBatch {
			select {
			case <-r.arrived:
				batch = r.take(batch)
			case <-timer.C:
				break window
			case <-r.quit:
				break window
			}
		}
		timer.Stop()
	}
	r.serve(batch)
	return true
}

// take moves queued requests onto batch, oldest first, up to the batch bound.
func (r *Router) take(batch []*routeRequest) []*routeRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(len(r.pending), r.maxBatch-len(batch))
	batch = append(batch, r.pending[:n]...)
	rest := copy(r.pending, r.pending[n:])
	clear(r.pending[rest:])
	r.pending = r.pending[:rest]
	return batch
}

// batchStages is the batch-shared stage record: what the batch's one
// observation, inference and strategy build cost, and which fast-path caches
// answered instead. serve fills one on its stack for every batch; under
// WithTracing each response's RouteTrace copies it field for field.
type batchStages struct {
	observeNS        int64
	forwardNS        int64
	strategyNS       int64
	policyCacheHit   bool
	strategyCacheHit bool
}

// serve answers one batch in the explicit stage sequence window →
// policy-cache lookup → observe → decode → strategy-cache lookup → build →
// per-request evaluate. It is the only function that counts or reads the
// clock: the stage functions it calls take no metrics or trace argument, so
// every serving counter has exactly one increment site, here.
func (r *Router) serve(batch []*routeRequest) {
	// Drop requests whose caller already gave up, compacting the survivors
	// into the front of the batch slice in place.
	nLive := 0
	for _, req := range batch {
		if err := req.ctx.Err(); err != nil {
			req.resp <- routeResponse{err: err}
			continue
		}
		batch[nLive] = req
		nLive++
	}
	live := batch[:nLive]
	if len(live) == 0 {
		return
	}
	defer r.contain(live)
	r.met.batches.Inc()
	r.met.requests.Add(int64(len(live)))
	var picked int64
	if !r.noMetrics || r.tracing {
		picked = monoNow()
	}
	if !r.noMetrics {
		r.met.batchSize.Observe(float64(len(live)))
		for _, req := range live {
			r.met.queueWait.Observe(float64(picked-req.enqueued) / 1e9)
		}
	}

	// Window. All requests of the batch observe the pre-batch history
	// (matching the training-time contract that a decision for time t sees
	// demands up to t-1), then join it for subsequent batches. A cold-start
	// history is padded with zero matrices — the "no traffic observed yet"
	// statement — never with a batch member's own demand, which would let the
	// first decisions observe the very demand they are routing.
	cached := r.cache.Load()
	hist := r.hist.observeAndPush(r.zero, live, cached)

	// Policy-cache lookup, else observe → decode. The three stages below run
	// only on a miss (≥100µs of forward pass), so their clock reads are
	// unconditional. The observation lives in a pooled Observer's buffers:
	// decoding copies what it keeps, so the buffers are free again after it.
	// An unchanged window is also a strategy hit: entries are published only
	// with a built strategy.
	var st batchStages
	var strat *routing.Strategy
	if cached != nil && windowsEqual(cached.window, hist) {
		strat = cached.strategy
		st.policyCacheHit, st.strategyCacheHit = true, true
		r.met.policyCacheHits.Inc()
	} else {
		ob := r.observers.Get().(*env.Observer)
		start := time.Now()
		obs, err := ob.Observe(r.g, hist)
		observed := time.Now()
		passes := 0
		var weights []float64
		var gamma float64
		if err == nil {
			weights, gamma, passes, err = env.Decode(obs, r.base, r.ecfg, r.act)
		}
		st.observeNS = observed.Sub(start).Nanoseconds()
		st.forwardNS = time.Since(observed).Nanoseconds()
		r.observers.Put(ob)
		r.met.forwardPasses.Add(int64(passes))
		if err != nil {
			fail(live, err)
			return
		}

		// Strategy-cache lookup, else build. The splitting ratios depend only
		// on (weights, gamma, sink), so they are shared across the batch — and,
		// via the cache, across every batch for which the policy keeps
		// emitting these weights. With caching off each batch builds its own
		// strategy, which still shares ratios within the batch.
		if cached != nil && cached.strategy.Matches(weights, gamma) {
			strat = cached.strategy
			st.strategyCacheHit = true
		} else {
			start := time.Now()
			strat, err = routing.NewStrategy(r.g, weights, gamma)
			st.strategyNS = time.Since(start).Nanoseconds()
			if err != nil {
				fail(live, err)
				return
			}
		}
		if !r.noCache {
			r.cache.Store(&servingCache{window: hist, strategy: strat})
		}
	}
	if st.strategyCacheHit {
		r.met.strategyHits.Inc()
	} else {
		r.met.strategyMisses.Inc()
	}

	// Evaluate: each request pays only for propagating its own demand
	// through the shared strategy.
	for _, req := range live {
		var evalStart time.Time
		if r.tracing {
			evalStart = time.Now()
		}
		d, err := r.evaluate(req.dm, strat)
		if d != nil && r.tracing {
			*d.Trace = RouteTrace{
				BatchSize:        len(live),
				QueueWaitNS:      picked - req.enqueued,
				ObserveNS:        st.observeNS,
				ForwardNS:        st.forwardNS,
				StrategyNS:       st.strategyNS,
				EvaluateNS:       time.Since(evalStart).Nanoseconds(),
				PolicyCacheHit:   st.policyCacheHit,
				StrategyCacheHit: st.strategyCacheHit,
			}
		}
		if !r.noMetrics {
			r.met.routeLatency.Observe(float64(monoNow()-req.enqueued) / 1e9)
		}
		req.resp <- routeResponse{d: d, err: err}
	}
}

// fail answers every request of a batch with err.
func fail(batch []*routeRequest, err error) {
	for _, req := range batch {
		req.resp <- routeResponse{err: err}
	}
}

// contain is serve's deferred panic barrier, the router's share of the
// tenant isolation contract: a panic while serving one batch fails that
// batch's unanswered requests with an error wrapping ErrInternal and returns
// the combiner to its own wait, instead of killing every tenant in the
// process.
// Each response channel buffers one reply, so the non-blocking send always
// reaches a request not answered yet, and on an answered one it is either
// skipped (reply still buffered) or dropped with the channel (reply taken).
func (r *Router) contain(live []*routeRequest) {
	p := recover()
	if p == nil {
		return
	}
	r.met.panics.Inc()
	err := fmt.Errorf("%w: panic serving a batch of %d: %v", ErrInternal, len(live), p)
	for _, req := range live {
		select {
		case req.resp <- routeResponse{err: err}:
		default:
		}
	}
}

// windowsEqual reports whether two history windows hold the same demand:
// trivially when they are one slice (observeAndPush reused the cached
// window), else with a pointer fast path per slot before falling back to
// entry comparison.
func windowsEqual(a, b []*DemandMatrix) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// act is the policy the decoder runs: the deterministic mean action.
// MeanAction copies what it keeps, so obs may live in reusable buffers.
func (r *Router) act(obs *env.Observation) ([]float64, error) {
	return rl.MeanAction(r.agent.policy, obs)
}

// evaluate derives the full Decision for dm under the batch's routing
// strategy: Strategy.Evaluate propagates the demand through pooled scratch,
// and the Decision views the strategy's weights and the ratio rows of the
// sinks that carried load. Only the caller-owned fields are allocated: the
// Decision, its loads and utilisation, and its RouteTrace when tracing,
// which serve fills in.
func (r *Router) evaluate(dm *DemandMatrix, strat *routing.Strategy) (*Decision, error) {
	ne := r.g.NumEdges()
	sc := r.scratch.Get().(*routing.Scratch)
	defer r.scratch.Put(sc)
	// One backing array for the two per-edge result slices.
	buf := make([]float64, 2*ne)
	loads, util := buf[:ne:ne], buf[ne:]
	maxU, err := strat.Evaluate(dm, sc, loads, util)
	if err != nil {
		return nil, fmt.Errorf("gddr: route: %w", err)
	}
	var d *Decision
	if r.tracing { // one allocation for the Decision and its trace
		dt := new(struct {
			Decision
			RouteTrace
		})
		d, dt.Trace = &dt.Decision, &dt.RouteTrace
	} else {
		d = new(Decision)
	}
	d.Weights, d.Gamma, d.Splits = strat.Weights(), strat.Gamma(), strat.Splits(sc.InSums)
	d.Loads, d.Utilization, d.MaxUtilization = loads, util, maxU
	return d, nil
}
