package gddr

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gddr/internal/ad"
	"gddr/internal/env"
	"gddr/internal/metrics"
	"gddr/internal/policy"
)

// hookPolicy is a fault-injection policy: it runs the installed hook at the
// top of every forward pass, then delegates to the real policy. A hook that
// panics injects a serving fault; a hook that blocks holds a batch in
// flight.
type hookPolicy struct {
	policy.Policy
	hook atomic.Pointer[func()]
}

func (p *hookPolicy) Forward(t *ad.Tape, obs *env.Observation) (*ad.Node, *ad.Node, error) {
	if hook := p.hook.Load(); hook != nil {
		(*hook)()
	}
	return p.Policy.Forward(t, obs)
}

// hookedAgent returns testRouterAgent with its policy wrapped in a
// hookPolicy.
func hookedAgent(t *testing.T) (*Agent, *hookPolicy) {
	t.Helper()
	agent := testRouterAgent(t)
	stub := &hookPolicy{Policy: agent.policy}
	agent.policy = stub
	return agent, stub
}

// TestEngineStatsAreRegistryView: Engine.Stats is a view over the registry
// counters — exact, equal to the instruments after every lifecycle step
// (Close included), and readable while Apply holds the engine's write lock.
func TestEngineStatsAreRegistryView(t *testing.T) {
	g := Abilene()
	agent, stub := hookedAgent(t)
	engine, err := NewEngine(agent, g, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	reg := engine.Metrics()
	ctx := context.Background()

	// Every request carries a fresh matrix from a single caller: one batch,
	// one forward pass and one strategy build per request, no cache hit.
	var routed, events, swaps int64
	route := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			routed++
			if _, err := engine.Route(ctx, testDemand(g, 900+routed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(step string) {
		t.Helper()
		got := engine.Stats()
		want := RouterStats{Requests: routed, Batches: routed, ForwardPasses: routed, StrategyMisses: routed}
		if got.RouterStats != want {
			t.Errorf("%s: serving stats = %+v, want %+v", step, got.RouterStats, want)
		}
		if got.EventsApplied != events || got.AgentSwaps != swaps {
			t.Errorf("%s: events/swaps = %d/%d, want %d/%d", step, got.EventsApplied, got.AgentSwaps, events, swaps)
		}
		for name, v := range map[string]int64{
			"gddr_router_requests_total":              got.Requests,
			"gddr_router_batches_total":               got.Batches,
			"gddr_router_forward_passes_total":        got.ForwardPasses,
			"gddr_router_policy_cache_hits_total":     got.PolicyCacheHits,
			"gddr_router_strategy_cache_hits_total":   got.StrategyHits,
			"gddr_router_strategy_cache_misses_total": got.StrategyMisses,
			"gddr_engine_events_applied_total":        got.EventsApplied,
			"gddr_engine_agent_swaps_total":           got.AgentSwaps,
		} {
			if c := reg.Counter(name, "").Value(); c != v {
				t.Errorf("%s: %s = %d, Stats() says %d", step, name, c, v)
			}
		}
	}

	route(3)
	check("route")
	if got := engine.Stats(); got.TopologyVersion != 1 || got.Replicas != 2 {
		t.Errorf("version/replicas = %d/%d, want 1/2", got.TopologyVersion, got.Replicas)
	}

	// Hold one request inside its forward pass, start an Apply, and wait for
	// the rebuild observation: from then on Apply holds e.mu and is draining
	// the old snapshot, which cannot finish before the held request does.
	entered, release := make(chan struct{}), make(chan struct{})
	hold := func() {
		close(entered)
		<-release
	}
	stub.hook.Store(&hold)
	var wg sync.WaitGroup
	wg.Add(2)
	routed++
	go func() {
		defer wg.Done()
		if _, err := engine.Route(ctx, testDemand(g, 900+routed)); err != nil {
			t.Error(err)
		}
	}()
	<-entered
	stub.hook.Store(nil)
	go func() {
		defer wg.Done()
		if err := engine.Apply(ctx, CapacityChange{From: 0, To: 1, Capacity: 5000}); err != nil {
			t.Error(err)
		}
	}()
	rebuild := reg.Histogram("gddr_engine_snapshot_rebuild_seconds", "", metrics.LatencyBuckets())
	for deadline := time.Now().Add(10 * time.Second); rebuild.Count() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Apply never reached the drain")
		}
	}
	during := make(chan EngineStats, 1)
	go func() { during <- engine.Stats() }()
	select {
	case got := <-during:
		// The held request is already counted; its event is not applied yet.
		if got.Requests != routed || got.EventsApplied != 0 || got.TopologyVersion != 1 {
			t.Errorf("stats during Apply = %+v", got)
		}
	case <-time.After(10 * time.Second):
		t.Error("Stats() blocked behind an Apply that is draining")
	}
	close(release)
	wg.Wait()
	events++
	check("apply")

	route(2)
	check("route after apply")

	var ckpt bytes.Buffer
	if err := testRouterAgent(t).Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := engine.SwapCheckpoint(ctx, &ckpt); err != nil {
		t.Fatal(err)
	}
	swaps++
	check("swap")

	route(2)
	check("route after swap")
	if got := engine.Stats(); got.TopologyVersion != 3 || got.Replicas != 2 {
		t.Errorf("version/replicas = %d/%d, want 3/2", got.TopologyVersion, got.Replicas)
	}

	engine.Close()
	check("close")
	if got := engine.Stats(); got.TopologyVersion != 0 || got.Replicas != 0 {
		t.Errorf("closed engine reports version/replicas %d/%d, want 0/0", got.TopologyVersion, got.Replicas)
	}
}

// TestFleetContainsBatchPanic: a panic inside one tenant's forward pass
// fails that batch with ErrInternal and nothing else — the same router
// serves the next request, and a sibling tenant routing throughout never
// sees an error (tenant isolation contract; run under -race in CI).
func TestFleetContainsBatchPanic(t *testing.T) {
	g := Abilene()
	fleet := NewFleet()
	defer fleet.Close()
	faultyAgent, stub := hookedAgent(t)
	faulty, err := fleet.CreateWithAgent("faulty", TenantConfig{MaxBatch: 4}, faultyAgent, g)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := fleet.CreateWithAgent("healthy", TenantConfig{MaxBatch: 4}, testRouterAgent(t), g)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 40; i++ {
			if _, err := healthy.Route(ctx, testDemand(g, i)); err != nil {
				t.Errorf("healthy sibling request %d: %v", i, err)
				return
			}
		}
	}()

	boom := func() { panic("injected forward-pass fault") }
	stub.hook.Store(&boom)
	const callers = 4
	errs := make(chan error, callers)
	for i := int64(0); i < callers; i++ {
		go func() {
			_, err := faulty.Route(ctx, testDemand(g, 100+i))
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, ErrInternal) {
			t.Errorf("request on the panicking batch returned %v, want ErrInternal", err)
		}
	}
	panics := faulty.Engine().Metrics().Counter("gddr_router_panics_total", "").Value()
	if panics < 1 || panics > callers {
		t.Errorf("gddr_router_panics_total = %d, want one per panicked batch (1..%d)", panics, callers)
	}

	stub.hook.Store(nil)
	if _, err := faulty.Route(ctx, testDemand(g, 200)); err != nil {
		t.Errorf("router did not survive the panic: %v", err)
	}
	wg.Wait()
	if got := healthy.Engine().Metrics().Counter("gddr_router_panics_total", "").Value(); got != 0 {
		t.Errorf("healthy tenant counted %d panics", got)
	}
}
