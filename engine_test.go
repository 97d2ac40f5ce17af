package gddr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"gddr/internal/routing"
	"gddr/internal/traffic"
)

func testEngine(t *testing.T, opts ...RouterOption) *Engine {
	t.Helper()
	engine, err := NewEngine(testRouterAgent(t), Abilene(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engine.Close)
	return engine
}

// removableLink finds a link pair of g whose removal keeps the graph
// strongly connected.
func removableLink(t *testing.T, g *Graph) (int, int, float64) {
	t.Helper()
	for _, e := range g.Edges() {
		if e.From > e.To {
			continue
		}
		c := g.Clone()
		for _, pair := range [][2]int{{e.From, e.To}, {e.To, e.From}} {
			if ei, err := c.EdgeBetween(pair[0], pair[1]); err == nil {
				if err := c.RemoveEdge(ei); err != nil {
					t.Fatal(err)
				}
			}
		}
		if c.StronglyConnected() {
			return e.From, e.To, e.Capacity
		}
	}
	t.Fatal("no removable link")
	return 0, 0, 0
}

// TestEngineApplyLinkDownReroutes is the end-to-end acceptance test:
// Apply(LinkDown) followed by Route must return a valid decision on the
// mutated graph — no weight for the dead edge, MLU computed on the
// remaining capacity.
func TestEngineApplyLinkDownReroutes(t *testing.T) {
	engine := testEngine(t)
	ctx := context.Background()
	g := engine.Graph()
	dm := testDemand(g, 1)

	before, err := engine.Route(ctx, dm)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Weights) != g.NumEdges() {
		t.Fatalf("pre-event decision sized %d for %d edges", len(before.Weights), g.NumEdges())
	}

	u, v, _ := removableLink(t, g)
	if err := engine.Apply(ctx, LinkDown{From: u, To: v}); err != nil {
		t.Fatal(err)
	}
	mutated := engine.Graph()
	if mutated.NumEdges() != g.NumEdges()-2 {
		t.Fatalf("mutated graph has %d edges, want %d", mutated.NumEdges(), g.NumEdges()-2)
	}
	if _, err := mutated.EdgeBetween(u, v); err == nil {
		t.Fatal("dead edge survived the event")
	}

	after, err := engine.Route(ctx, dm)
	if err != nil {
		t.Fatal(err)
	}
	// The decision is sized for the mutated graph: the dead edge has no
	// weight, no split ratio, no load slot.
	if len(after.Weights) != mutated.NumEdges() {
		t.Fatalf("post-event decision sized %d for %d edges", len(after.Weights), mutated.NumEdges())
	}
	for sink, ratio := range after.Splits {
		if len(ratio) != mutated.NumEdges() {
			t.Fatalf("sink %d ratios sized %d for %d edges", sink, len(ratio), mutated.NumEdges())
		}
	}
	// MLU is computed on the remaining capacity: re-evaluating the same
	// weights on the mutated graph must agree exactly.
	res, err := routing.EvaluateWeights(mutated, dm, after.Weights, after.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxUtilization != after.MaxUtilization {
		t.Fatalf("decision MLU %g != substrate MLU %g on mutated graph", after.MaxUtilization, res.MaxUtilization)
	}
	if after.MaxUtilization <= 0 {
		t.Fatal("degenerate post-event decision")
	}
	if got := engine.Version(); got != 2 {
		t.Fatalf("topology version %d want 2", got)
	}
}

// TestEngineApplyConcurrentRoute hammers Route from many goroutines while
// link-down/link-up events churn the topology. Under -race this is the
// satellite guarantee: an event during in-flight batches never serves
// ratios for a deleted edge — every decision is internally consistent with
// one topology version, and after the final Apply returns, new decisions
// are sized for the final graph.
func TestEngineApplyConcurrentRoute(t *testing.T) {
	engine := testEngine(t, WithRouterWorkers(2), WithMaxBatch(4))
	ctx := context.Background()
	base := engine.Graph()
	u, v, capacity := removableLink(t, base)

	// Every decision must be sized for one of the two graphs that ever
	// exist (link up / link down), and its splits must agree with that
	// size — a mixed decision would mean ratios for a deleted edge.
	validSizes := map[int]bool{base.NumEdges(): true, base.NumEdges() - 2: true}

	dm := testDemand(base, 3)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	stop := make(chan struct{})
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d, err := engine.Route(ctx, dm)
				if err != nil {
					errCh <- err
					return
				}
				if !validSizes[len(d.Weights)] {
					errCh <- fmt.Errorf("decision sized %d matches no topology version", len(d.Weights))
					return
				}
				for _, ratio := range d.Splits {
					if len(ratio) != len(d.Weights) {
						errCh <- fmt.Errorf("splits sized %d vs weights %d: mixed topology", len(ratio), len(d.Weights))
						return
					}
				}
				if d.MaxUtilization <= 0 {
					errCh <- errors.New("degenerate decision during churn")
					return
				}
			}
		}(c)
	}

	const flaps = 6
	for i := 0; i < flaps; i++ {
		if err := engine.Apply(ctx, LinkDown{From: u, To: v}); err != nil {
			t.Fatal(err)
		}
		if err := engine.Apply(ctx, LinkUp{From: u, To: v, Capacity: capacity}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// After the last Apply returned, fresh decisions are on the final graph.
	d, err := engine.Route(ctx, dm)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Weights) != base.NumEdges() {
		t.Fatalf("final decision sized %d want %d", len(d.Weights), base.NumEdges())
	}
	stats := engine.Stats()
	if stats.EventsApplied != 2*flaps {
		t.Fatalf("events applied %d want %d", stats.EventsApplied, 2*flaps)
	}
	if stats.TopologyVersion != 2*flaps+1 {
		t.Fatalf("topology version %d want %d", stats.TopologyVersion, 2*flaps+1)
	}
	if stats.Requests == 0 || stats.ForwardPasses == 0 {
		t.Fatal("stats lost across snapshot retirements")
	}
}

func TestEngineRejectsInvalidEvents(t *testing.T) {
	engine := testEngine(t)
	ctx := context.Background()
	g := engine.Graph()

	cases := []Event{
		LinkDown{From: 0, To: 0},                     // self link
		LinkDown{From: 0, To: g.NumNodes() + 5},      // out of range
		LinkUp{From: 0, To: 1, Capacity: -1},         // existing link, bad capacity
		CapacityChange{From: 0, To: 0, Capacity: 10}, // self link
		NodeAdd{AttachTo: nil, Capacity: 10},         // no peers
		NodeRemove{Node: g.NumNodes() + 1},           // out of range
	}
	// A NaN or infinite capacity would otherwise be accepted and fail (or
	// silently zero) every later Route on the engine.
	if _, err := g.EdgeBetween(0, 4); err == nil {
		t.Fatal("fixture: 0-4 must be unlinked for the LinkUp cases")
	}
	for _, c := range []float64{math.NaN(), math.Inf(1)} {
		cases = append(cases,
			CapacityChange{From: 0, To: 1, Capacity: c},
			LinkUp{From: 0, To: 4, Capacity: c},
			NodeAdd{AttachTo: []int{0}, Capacity: c})
	}
	for _, ev := range cases {
		if err := engine.Apply(ctx, ev); err == nil {
			t.Fatalf("event %s %+v accepted", ev.Kind(), ev)
		}
	}
	if err := engine.Apply(ctx); err == nil {
		t.Fatal("empty event list accepted")
	}
	// Rejections leave the engine serving the original topology.
	if engine.Version() != 1 {
		t.Fatalf("version %d after rejected events, want 1", engine.Version())
	}
	if _, err := engine.Route(ctx, testDemand(g, 4)); err != nil {
		t.Fatal(err)
	}
	if engine.Stats().EventsApplied != 0 {
		t.Fatal("rejected events counted as applied")
	}
}

// TestEngineMLPRejectsTopologyEvents: a shape-bound MLP policy cannot
// absorb a changed edge set; the re-probe must reject the event and keep
// the old topology serving.
func TestEngineMLPRejectsTopologyEvents(t *testing.T) {
	g := Abilene()
	rng := rand.New(rand.NewSource(60))
	seqs, err := traffic.Sequences(1, g.NumNodes(), 6, 2, traffic.DefaultBimodal(), rng)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(MLPPolicy, NewScenario(g, seqs), WithMemory(2), WithMLPHidden(8))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(agent, g)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ctx := context.Background()
	u, v, _ := removableLink(t, g)
	if err := engine.Apply(ctx, LinkDown{From: u, To: v}); err == nil {
		t.Fatal("MLP absorbed a topology event its shape cannot fit")
	}
	if engine.Version() != 1 {
		t.Fatalf("version %d after rejected event, want 1", engine.Version())
	}
	if _, err := engine.Route(ctx, testDemand(g, 61)); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNodeEventsRenumberHistory(t *testing.T) {
	engine := testEngine(t)
	ctx := context.Background()
	g := engine.Graph()
	n := g.NumNodes()

	// Build up real history on the original topology.
	for i := 0; i < 3; i++ {
		if _, err := engine.Route(ctx, testDemand(g, int64(10+i))); err != nil {
			t.Fatal(err)
		}
	}

	// Add a node: the engine now only accepts (n+1)-sized demands.
	if err := engine.Apply(ctx, NodeAdd{Name: "pop", AttachTo: []int{0, 1}, Capacity: 9920}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Route(ctx, testDemand(g, 20)); err == nil {
		t.Fatal("stale-sized demand accepted after node add")
	}
	grown := engine.Graph()
	if grown.NumNodes() != n+1 {
		t.Fatalf("nodes %d want %d", grown.NumNodes(), n+1)
	}
	d, err := engine.Route(ctx, testDemand(grown, 21))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Weights) != grown.NumEdges() {
		t.Fatalf("decision sized %d want %d", len(d.Weights), grown.NumEdges())
	}

	// Remove the node again: history shrinks back, old-size demands work.
	if err := engine.Apply(ctx, NodeRemove{Node: n}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Route(ctx, testDemand(g, 22)); err != nil {
		t.Fatal(err)
	}
}

func TestEngineSwapAgentZeroDowntime(t *testing.T) {
	engine := testEngine(t, WithRouterWorkers(2))
	ctx := context.Background()
	g := engine.Graph()

	// Route continuously while swapping agents: no call may fail.
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := engine.Route(ctx, testDemand(g, int64(c*100+i))); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	for i := 0; i < 3; i++ {
		replacement, err := NewAgent(GNNPolicy, nil, WithMemory(2), WithGNNSize(8, 1), WithSeed(int64(50+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.SwapAgent(ctx, replacement); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := engine.Stats().AgentSwaps; got != 3 {
		t.Fatalf("agent swaps %d want 3", got)
	}
}

func TestEngineSwapCheckpoint(t *testing.T) {
	engine := testEngine(t)
	ctx := context.Background()
	g := engine.Graph()
	dm := testDemand(g, 30)

	// Checkpoint a differently-seeded agent of the same architecture; after
	// the swap the engine must route exactly like that agent.
	donor, err := NewAgent(GNNPolicy, nil, WithMemory(2), WithGNNSize(8, 1), WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := donor.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	donorRouter, err := NewRouter(donor, Abilene())
	if err != nil {
		t.Fatal(err)
	}
	want, err := donorRouter.Route(ctx, dm)
	donorRouter.Close()
	if err != nil {
		t.Fatal(err)
	}

	if err := engine.SwapCheckpoint(ctx, &ckpt); err != nil {
		t.Fatal(err)
	}
	got, err := engine.Route(ctx, dm)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxUtilization != want.MaxUtilization {
		t.Fatalf("post-swap MLU %g != donor MLU %g", got.MaxUtilization, want.MaxUtilization)
	}

	// Garbage checkpoints are rejected with the old model still serving.
	if err := engine.SwapCheckpoint(ctx, bytes.NewBufferString("not a checkpoint")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	if _, err := engine.Route(ctx, dm); err != nil {
		t.Fatal(err)
	}
}

func TestEngineClose(t *testing.T) {
	engine, err := NewEngine(testRouterAgent(t), Abilene())
	if err != nil {
		t.Fatal(err)
	}
	g := Abilene()
	if _, err := engine.Route(context.Background(), testDemand(g, 40)); err != nil {
		t.Fatal(err)
	}
	engine.Close()
	engine.Close() // idempotent
	if _, err := engine.Route(context.Background(), testDemand(g, 41)); !errors.Is(err, ErrClosed) {
		t.Fatalf("route after close: got %v, want ErrClosed", err)
	}
	if err := engine.Apply(context.Background(), LinkDown{From: 0, To: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: got %v, want ErrClosed", err)
	}
	if err := engine.SwapAgent(context.Background(), testRouterAgent(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("swap after close: got %v, want ErrClosed", err)
	}
	if engine.Graph() != nil || engine.Version() != 0 {
		t.Fatal("closed engine still reports a topology")
	}
}

func TestEngineWarmHistoryAppliesToFirstSnapshotOnly(t *testing.T) {
	g := Abilene()
	agent := testRouterAgent(t)
	warm := []*DemandMatrix{testDemand(g, 50), testDemand(g, 51)}
	engine, err := NewEngine(agent, g, WithWarmHistory(warm...))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if _, err := engine.Route(context.Background(), testDemand(g, 52)); err != nil {
		t.Fatal(err)
	}
	// A mis-sized warm history is rejected up front, like NewRouter.
	if _, err := NewEngine(agent, g, WithWarmHistory(traffic.NewDemandMatrix(3))); err == nil {
		t.Fatal("mismatched warm history accepted")
	}
}

// TestEngineApplyInvalidatesServingCaches: after a topology event, a cached
// routing strategy must never serve the old graph. The engine is driven to
// a cache-hot steady state, a capacity change is applied, and the next
// decision must be computed entirely on the mutated graph — its utilisation
// must re-derive exactly from its own weights on the new capacities.
func TestEngineApplyInvalidatesServingCaches(t *testing.T) {
	engine := testEngine(t, WithRouterWorkers(1))
	ctx := context.Background()
	g := engine.Graph()
	dm := testDemand(g, 70)

	var before *Decision
	for i := 0; i < 4; i++ {
		d, err := engine.Route(ctx, dm)
		if err != nil {
			t.Fatal(err)
		}
		before = d
	}
	if hits := engine.Stats().StrategyHits; hits == 0 {
		t.Fatal("steady demand never hit the strategy cache; the invalidation test is vacuous")
	}

	// Halve the capacity of the most loaded link.
	maxEdge := 0
	for ei := range before.Utilization {
		if before.Utilization[ei] > before.Utilization[maxEdge] {
			maxEdge = ei
		}
	}
	edge := g.Edge(maxEdge)
	if err := engine.Apply(ctx, CapacityChange{From: edge.From, To: edge.To, Capacity: edge.Capacity / 2}); err != nil {
		t.Fatal(err)
	}

	mutated := engine.Graph()
	after, err := engine.Route(ctx, dm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := routing.EvaluateWeights(mutated, dm, after.Weights, after.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxUtilization != after.MaxUtilization {
		t.Fatalf("post-event MLU %g != substrate MLU %g on mutated graph: stale cached strategy served", after.MaxUtilization, res.MaxUtilization)
	}
	for ei := range res.Utilization {
		if res.Utilization[ei] != after.Utilization[ei] {
			t.Fatalf("post-event utilisation[%d] %g != substrate %g", ei, after.Utilization[ei], res.Utilization[ei])
		}
	}
	// The halved link must actually be priced at its new capacity.
	ei, err := mutated.EdgeBetween(edge.From, edge.To)
	if err != nil {
		t.Fatal(err)
	}
	if want := after.Loads[ei] / (edge.Capacity / 2); after.Utilization[ei] != want {
		t.Fatalf("halved link utilisation %g, want %g: old capacity still cached", after.Utilization[ei], want)
	}
}

// TestEngineApplyConcurrentRouteConsistent interleaves Route with capacity
// flaps under -race: every decision must be internally consistent with one
// of the two graphs that ever served (a decision mixing cached ratios from
// one topology with capacities of the other matches neither), and after the
// final Apply returns, decisions must re-derive exactly on the final graph.
func TestEngineApplyConcurrentRouteConsistent(t *testing.T) {
	engine := testEngine(t, WithRouterWorkers(2), WithMaxBatch(4))
	ctx := context.Background()
	gOld := engine.Graph()
	dm := testDemand(gOld, 71)
	edge := gOld.Edge(0)
	halved := CapacityChange{From: edge.From, To: edge.To, Capacity: edge.Capacity / 2}
	restored := CapacityChange{From: edge.From, To: edge.To, Capacity: edge.Capacity}
	gNew, _, err := halved.apply(gOld.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}

	consistent := func(g *Graph, d *Decision) bool {
		res, err := routing.EvaluateWeights(g, dm, d.Weights, d.Gamma)
		if err != nil {
			return false
		}
		for ei := range res.Utilization {
			if res.Utilization[ei] != d.Utilization[ei] {
				return false
			}
		}
		return res.MaxUtilization == d.MaxUtilization
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d, err := engine.Route(ctx, dm)
				if err != nil {
					errCh <- err
					return
				}
				if !consistent(gOld, d) && !consistent(gNew, d) {
					errCh <- errors.New("decision consistent with neither topology version: mixed cache state")
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		if err := engine.Apply(ctx, halved); err != nil {
			t.Fatal(err)
		}
		if err := engine.Apply(ctx, restored); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	final, err := engine.Route(ctx, dm)
	if err != nil {
		t.Fatal(err)
	}
	if !consistent(engine.Graph(), final) {
		t.Fatal("post-churn decision does not re-derive on the final graph")
	}
}

// TestEngineSwapInvalidatesServingCaches: a hot checkpoint swap must drop
// the cached policy output and strategy — under steady demand, the first
// decision after SwapCheckpoint must carry the donor model's weights, not
// the cached predecessor's. Concurrent routing runs throughout (-race).
func TestEngineSwapInvalidatesServingCaches(t *testing.T) {
	engine := testEngine(t, WithRouterWorkers(2))
	ctx := context.Background()
	g := engine.Graph()
	dm := testDemand(g, 72)

	// Reach the cache-hot steady state: window = [dm, dm] (memory 2).
	for i := 0; i < 4; i++ {
		if _, err := engine.Route(ctx, dm); err != nil {
			t.Fatal(err)
		}
	}
	if engine.Stats().PolicyCacheHits == 0 {
		t.Fatal("steady demand never hit the policy cache; the swap test is vacuous")
	}

	// The donor's expected steady-state weights, from a fresh router warmed
	// to the same [dm, dm] window.
	donor, err := NewAgent(GNNPolicy, nil, WithMemory(2), WithGNNSize(8, 1), WithSeed(88))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := donor.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	donorRouter, err := NewRouter(donor, Abilene(), WithWarmHistory(dm, dm))
	if err != nil {
		t.Fatal(err)
	}
	want, err := donorRouter.Route(ctx, dm)
	donorRouter.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Route concurrently while the swap happens; no call may fail.
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := engine.Route(ctx, dm); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	if err := engine.SwapCheckpoint(ctx, &ckpt); err != nil {
		t.Fatal(err)
	}
	got, err := engine.Route(ctx, dm)
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for ei := range want.Weights {
		if got.Weights[ei] != want.Weights[ei] {
			t.Fatalf("edge %d weight %g != donor %g: pre-swap policy output served from cache", ei, got.Weights[ei], want.Weights[ei])
		}
	}
	if got.MaxUtilization != want.MaxUtilization {
		t.Fatalf("post-swap MLU %g != donor %g", got.MaxUtilization, want.MaxUtilization)
	}
}

// TestEngineReplicasShareServingCache pins that replicas scale serve slots,
// not caches: after a window change, a 4-replica engine pays the same
// forward passes as a single Router — one per distinct observed window.
func TestEngineReplicasShareServingCache(t *testing.T) {
	g := Abilene()
	engine := testEngine(t, WithReplicas(4))
	ctx := context.Background()
	for i := int64(0); i < 8; i++ {
		if _, err := engine.Route(ctx, testDemand(g, i)); err != nil {
			t.Fatal(err)
		}
	}
	before := engine.Stats().ForwardPasses
	dm := testDemand(g, 100)
	for i := 0; i < 8; i++ {
		if _, err := engine.Route(ctx, dm); err != nil {
			t.Fatal(err)
		}
	}
	// Memory 2: the windows {d6,d7}→{d7,X}→{X,X} miss once each, then hit.
	if got := engine.Stats().ForwardPasses - before; got != 3 {
		t.Fatalf("steady phase ran %d forward passes, want 3", got)
	}
}

// TestServingStartsNoGoroutines pins that serving runs on the callers'
// goroutines: building, using, republishing and closing a replicated engine
// leaves the goroutine count where it started.
func TestServingStartsNoGoroutines(t *testing.T) {
	g := Abilene()
	u, v, capacity := removableLink(t, g)
	agent := testRouterAgent(t)
	base := runtime.NumGoroutine()
	engine, err := NewEngine(agent, g, WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("NewEngine started %d goroutines", n-base)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := engine.Apply(ctx, CapacityChange{From: u, To: v, Capacity: capacity * float64(2+i%2)}); err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Route(ctx, testDemand(g, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	engine.Close()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines outlived Close", n-base)
	}
}

// TestEngineRouteAllocsMatchRouter pins that a cached replicated
// Engine.Route allocates exactly what a cached bare Router.Route does: 6
// on any topology. A cached route is the envelope (request, response
// channel and its buffer), the batch, the decision and the load set; the
// weights and split rows are views of the strategy, so nothing grows with
// the node count.
func TestEngineRouteAllocsMatchRouter(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	agent := testRouterAgent(t)
	ctx := context.Background()
	for _, g := range []*Graph{Abilene(), Geant()} {
		router, err := NewRouter(agent, g)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := NewEngine(agent, g, WithReplicas(4))
		if err != nil {
			t.Fatal(err)
		}
		dm := testDemand(g, 1)
		for _, route := range []struct {
			name string
			fn   func(context.Context, *DemandMatrix) (*Decision, error)
		}{{"Router", router.Route}, {"Engine", engine.Route}} {
			for i := 0; i < 4; i++ { // fill the history so the window is cached
				if _, err := route.fn(ctx, dm); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := route.fn(ctx, dm); err != nil {
					t.Fatal(err)
				}
			})
			if want := 6.0; allocs != want {
				t.Errorf("%d-node %s.Route: %v allocs, want %v", g.NumNodes(), route.name, allocs, want)
			}
		}
		router.Close()
		engine.Close()
	}
}
