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

// testRouterAgent returns a small untrained GNN agent (untrained agents
// route meaningfully thanks to the capacity-aware warm start).
func testRouterAgent(t *testing.T) *Agent {
	t.Helper()
	agent, err := NewAgent(GNNPolicy, nil, WithMemory(2), WithGNNSize(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	return agent
}

func testDemand(g *Graph, seed int64) *DemandMatrix {
	rng := rand.New(rand.NewSource(seed))
	return traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
}

func TestRouterRouteDecision(t *testing.T) {
	g := Abilene()
	router, err := NewRouter(testRouterAgent(t), g)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	dm := testDemand(g, 1)
	d, err := router.Route(context.Background(), dm)
	if err != nil {
		t.Fatal(err)
	}
	ne := g.NumEdges()
	if len(d.Weights) != ne || len(d.Loads) != ne || len(d.Utilization) != ne {
		t.Fatalf("decision sized %d/%d/%d for %d edges", len(d.Weights), len(d.Loads), len(d.Utilization), ne)
	}
	for ei, w := range d.Weights {
		if w <= 0 {
			t.Fatalf("edge %d has non-positive weight %g", ei, w)
		}
	}
	if d.Gamma <= 0 {
		t.Fatalf("non-positive gamma %g", d.Gamma)
	}
	if d.MaxUtilization <= 0 {
		t.Fatalf("max utilisation %g for non-empty demand", d.MaxUtilization)
	}
	// The decision must agree with the routing substrate evaluated on the
	// same weights.
	res, err := routing.EvaluateWeights(g, dm, d.Weights, d.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxUtilization-d.MaxUtilization) > 1e-9 {
		t.Fatalf("decision MLU %g != substrate MLU %g", d.MaxUtilization, res.MaxUtilization)
	}
	// Splitting ratios: per destination, the kept out-edges of every
	// non-sink vertex sum to 1 (or 0 when the vertex is dropped).
	for sink, ratio := range d.Splits {
		for v := 0; v < g.NumNodes(); v++ {
			if v == sink {
				continue
			}
			sum := 0.0
			for _, ei := range g.OutEdges(v) {
				if ratio[ei] < 0 || ratio[ei] > 1+1e-9 {
					t.Fatalf("sink %d edge %d ratio %g outside [0,1]", sink, ei, ratio[ei])
				}
				sum += ratio[ei]
			}
			if math.Abs(sum-1) > 1e-9 && sum > 1e-12 {
				t.Fatalf("sink %d vertex %d ratios sum to %g", sink, v, sum)
			}
		}
	}
}

// TestRouterSparseDemand: a decision carries the splitting ratios of exactly
// the sinks that have demand — one for a single-pair matrix, whose load is
// conserved from source to sink, and none for an all-zero matrix.
func TestRouterSparseDemand(t *testing.T) {
	g := Abilene()
	router, err := NewRouter(testRouterAgent(t), g)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const src, sink, demand = 2, 7, 9.0
	dm := traffic.NewDemandMatrix(g.NumNodes())
	dm.Set(src, sink, demand)
	d, err := router.Route(context.Background(), dm)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Splits) != 1 || len(d.Splits[sink]) != g.NumEdges() {
		t.Fatalf("splits %v, want exactly sink %d", d.Splits, sink)
	}
	var left, arrived float64
	for _, ei := range g.OutEdges(src) {
		left += d.Loads[ei]
	}
	for _, ei := range g.InEdges(src) {
		left -= d.Loads[ei]
	}
	for _, ei := range g.InEdges(sink) {
		arrived += d.Loads[ei]
	}
	if math.Abs(left-demand) > 1e-9 || math.Abs(arrived-demand) > 1e-9 {
		t.Fatalf("demand %g: %g left the source, %g reached the sink", demand, left, arrived)
	}

	d, err = router.Route(context.Background(), traffic.NewDemandMatrix(g.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxUtilization != 0 || len(d.Splits) != 0 {
		t.Fatalf("all-zero demand: MLU %g, splits %v", d.MaxUtilization, d.Splits)
	}
}

func TestRouterConcurrentRoute(t *testing.T) {
	g := Abilene()
	router, err := NewRouter(testRouterAgent(t), g, WithRouterWorkers(4), WithMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const callers = 16
	const perCaller = 5
	var wg sync.WaitGroup
	errCh := make(chan error, callers*perCaller)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				dm := testDemand(g, int64(c*100+i))
				d, err := router.Route(context.Background(), dm)
				if err != nil {
					errCh <- err
					return
				}
				if d.MaxUtilization <= 0 {
					errCh <- errors.New("zero max utilisation")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	stats := router.Stats()
	if stats.Requests != callers*perCaller {
		t.Fatalf("served %d requests, want %d", stats.Requests, callers*perCaller)
	}
	if stats.Batches > stats.Requests {
		t.Fatalf("more batches (%d) than requests (%d)", stats.Batches, stats.Requests)
	}
	// Full-action policies run exactly one forward pass per batch, so
	// batched concurrent callers share passes.
	if stats.ForwardPasses != stats.Batches {
		t.Fatalf("%d forward passes for %d batches", stats.ForwardPasses, stats.Batches)
	}
}

func TestRouterIterativeAgent(t *testing.T) {
	g := NSFNet()
	agent, err := NewAgent(GNNIterativePolicy, nil, WithMemory(2), WithGNNSize(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(agent, g)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	d, err := router.Route(context.Background(), testDemand(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	if d.Gamma <= 0 || d.MaxUtilization <= 0 {
		t.Fatalf("degenerate iterative decision: gamma %g, MLU %g", d.Gamma, d.MaxUtilization)
	}
}

func TestRouterRejectsMismatchedAgent(t *testing.T) {
	// An MLP agent is shape-bound to its training topology; the router
	// probe must reject it on a different graph at construction.
	abilene := Abilene()
	rng := rand.New(rand.NewSource(4))
	seqs, err := traffic.Sequences(1, abilene.NumNodes(), 6, 2, traffic.DefaultBimodal(), rng)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(MLPPolicy, NewScenario(abilene, seqs), WithMemory(2), WithMLPHidden(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter(agent, NSFNet()); err == nil {
		t.Fatal("router accepted an MLP agent bound to a different topology")
	}
	router, err := NewRouter(agent, abilene)
	if err != nil {
		t.Fatalf("router rejected the MLP agent on its own topology: %v", err)
	}
	router.Close()
}

func TestRouterRejectsWrongDemandSize(t *testing.T) {
	g := Abilene()
	router, err := NewRouter(testRouterAgent(t), g)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if _, err := router.Route(context.Background(), traffic.NewDemandMatrix(3)); err == nil {
		t.Fatal("mismatched demand matrix accepted")
	}
	if _, err := router.Route(context.Background(), nil); err == nil {
		t.Fatal("nil demand matrix accepted")
	}
}

func TestRouterCancelledContext(t *testing.T) {
	g := Abilene()
	router, err := NewRouter(testRouterAgent(t), g)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := router.Route(ctx, testDemand(g, 5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRouterClose(t *testing.T) {
	g := Abilene()
	router, err := NewRouter(testRouterAgent(t), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Route(context.Background(), testDemand(g, 6)); err != nil {
		t.Fatal(err)
	}
	router.Close()
	router.Close() // idempotent
	if _, err := router.Route(context.Background(), testDemand(g, 7)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	// The former sentinel name must keep matching.
	if _, err := router.Route(context.Background(), testDemand(g, 7)); !errors.Is(err, ErrRouterClosed) {
		t.Fatalf("got %v, want ErrRouterClosed alias to match", err)
	}
}

// TestRouterCloseUnderLoad closes the router while concurrent callers are
// mid-flight and while other goroutines call Close concurrently: every
// Route call must return either a valid decision or ErrClosed — never hang
// or panic — and every Close must return. Run under -race.
func TestRouterCloseUnderLoad(t *testing.T) {
	g := Abilene()
	router, err := NewRouter(testRouterAgent(t), g, WithRouterWorkers(2), WithMaxBatch(4))
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, callers*16)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				d, err := router.Route(context.Background(), testDemand(g, int64(c*1000+i)))
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errCh <- err
					}
					return
				}
				if d.MaxUtilization <= 0 {
					errCh <- errors.New("degenerate decision under load")
					return
				}
			}
		}(c)
	}
	// Let some traffic through, then close from several goroutines at once.
	if _, err := router.Route(context.Background(), testDemand(g, 1)); err != nil {
		t.Fatal(err)
	}
	var closers sync.WaitGroup
	for i := 0; i < 3; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			router.Close()
		}()
	}
	closers.Wait()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if _, err := router.Route(context.Background(), testDemand(g, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("route after close: got %v, want ErrClosed", err)
	}
}

func TestRouterSaveLoadRoundTrip(t *testing.T) {
	g := Abilene()
	trained := testRouterAgent(t)
	var model bytes.Buffer
	if err := trained.Save(&model); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewAgent(GNNPolicy, nil, WithMemory(2), WithGNNSize(8, 1), WithSeed(999))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Load(&model); err != nil {
		t.Fatal(err)
	}

	dm := testDemand(g, 8)
	decide := func(a *Agent) *Decision {
		t.Helper()
		router, err := NewRouter(a, g)
		if err != nil {
			t.Fatal(err)
		}
		defer router.Close()
		d, err := router.Route(context.Background(), dm)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1 := decide(trained)
	d2 := decide(loaded)
	if d1.MaxUtilization != d2.MaxUtilization {
		t.Fatalf("loaded agent routes differently: MLU %g vs %g", d1.MaxUtilization, d2.MaxUtilization)
	}
	for ei := range d1.Weights {
		if d1.Weights[ei] != d2.Weights[ei] {
			t.Fatalf("edge %d weight differs after load: %g vs %g", ei, d1.Weights[ei], d2.Weights[ei])
		}
	}
}

func TestRouterWarmHistory(t *testing.T) {
	g := Abilene()
	agent := testRouterAgent(t)
	hist := []*DemandMatrix{testDemand(g, 9), testDemand(g, 10)}
	router, err := NewRouter(agent, g, WithWarmHistory(hist...))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if _, err := router.Route(context.Background(), testDemand(g, 11)); err != nil {
		t.Fatal(err)
	}
	// A mis-sized warm history is rejected up front.
	if _, err := NewRouter(agent, g, WithWarmHistory(traffic.NewDemandMatrix(3))); err == nil {
		t.Fatal("mismatched warm history accepted")
	}
}

// sameDecision asserts two decisions are bit-identical in every field.
func sameDecision(t *testing.T, label string, a, b *Decision) {
	t.Helper()
	if a.Gamma != b.Gamma {
		t.Fatalf("%s: gamma %g != %g", label, a.Gamma, b.Gamma)
	}
	if a.MaxUtilization != b.MaxUtilization {
		t.Fatalf("%s: MLU %g != %g", label, a.MaxUtilization, b.MaxUtilization)
	}
	exact := func(name string, x, y []float64) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s: %s sized %d vs %d", label, name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: %s[%d] %g != %g", label, name, i, x[i], y[i])
			}
		}
	}
	exact("weights", a.Weights, b.Weights)
	exact("loads", a.Loads, b.Loads)
	exact("utilization", a.Utilization, b.Utilization)
	if len(a.Splits) != len(b.Splits) {
		t.Fatalf("%s: splits for %d vs %d sinks", label, len(a.Splits), len(b.Splits))
	}
	for sink, ra := range a.Splits {
		rb, ok := b.Splits[sink]
		if !ok {
			t.Fatalf("%s: sink %d missing from second decision", label, sink)
		}
		exact(fmt.Sprintf("splits[%d]", sink), ra, rb)
	}
}

// TestRouterColdStartObservesZeroHistory is the regression test for the
// cold-start observation leak: the first batch's history pad must be a zero
// matrix, not the batch's own demand, so a decision for time t never
// observes the demand it is routing. Two fresh routers fed different first
// demands must therefore emit identical weights (both observed an all-zero
// history); under the leak each would have observed its own demand.
func TestRouterColdStartObservesZeroHistory(t *testing.T) {
	g := Abilene()
	agent := testRouterAgent(t)
	route := func(dm *DemandMatrix) *Decision {
		t.Helper()
		router, err := NewRouter(agent, g, WithRouterWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		defer router.Close()
		d, err := router.Route(context.Background(), dm)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	dA, dB := route(testDemand(g, 101)), route(testDemand(g, 202))
	if len(dA.Weights) != len(dB.Weights) {
		t.Fatalf("weights sized %d vs %d", len(dA.Weights), len(dB.Weights))
	}
	for ei := range dA.Weights {
		if dA.Weights[ei] != dB.Weights[ei] {
			t.Fatalf("edge %d: cold-start weights differ (%g vs %g): first decision observed its own demand", ei, dA.Weights[ei], dB.Weights[ei])
		}
	}
	if dA.Gamma != dB.Gamma {
		t.Fatalf("cold-start gammas differ: %g vs %g", dA.Gamma, dB.Gamma)
	}
}

// newUncachedRouter builds a router with the serving fast-path caches
// disabled: the baseline of the golden test and the speedup gate.
func newUncachedRouter(t *testing.T, agent *Agent, g *Graph, opts ...RouterOption) *Router {
	t.Helper()
	cfg := resolveRouterConfig(opts)
	cfg.noCache = true
	router, err := newRouter(agent, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return router
}

// TestRouterCacheGoldenDecisions: for the same request sequence — steady
// stretches that hit both caches, demand changes that miss — every Decision
// must be bit-identical with caching on and off.
func TestRouterCacheGoldenDecisions(t *testing.T) {
	g := Abilene()
	agent := testRouterAgent(t)
	a, b := testDemand(g, 301), testDemand(g, 302)
	seq := []*DemandMatrix{a, a, a, b, a, b.Clone(), b, b}

	cached, err := NewRouter(agent, g, WithRouterWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	uncached := newUncachedRouter(t, agent, g, WithRouterWorkers(1))
	defer uncached.Close()

	for i, dm := range seq {
		dc, err := cached.Route(context.Background(), dm)
		if err != nil {
			t.Fatal(err)
		}
		du, err := uncached.Route(context.Background(), dm)
		if err != nil {
			t.Fatal(err)
		}
		sameDecision(t, fmt.Sprintf("request %d", i), dc, du)
	}
	if hits := cached.Stats().PolicyCacheHits + cached.Stats().StrategyHits; hits == 0 {
		t.Fatal("golden sequence never hit a cache; the test is not exercising the fast path")
	}
	if s := uncached.Stats(); s.PolicyCacheHits != 0 || s.StrategyHits != 0 {
		t.Fatalf("uncached router reported cache hits: %+v", s)
	}
}

// TestRouterSteadyDemandCacheHits pins the cache counters under steady
// demand: once the history window stabilises, batches are answered without
// forward passes (policy-output cache) and without rebuilding splitting
// ratios (strategy cache) — including for value-equal demand decoded into
// fresh allocations, the serving-gateway case.
func TestRouterSteadyDemandCacheHits(t *testing.T) {
	g := Abilene()
	router, err := NewRouter(testRouterAgent(t), g, WithRouterWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()
	dm := testDemand(g, 400)

	var last *Decision
	var steady *Decision
	for i := 0; i < 5; i++ {
		d, err := router.Route(ctx, dm)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			steady = d // memory=2: window is [dm,dm] from here on
		}
		last = d
	}
	sameDecision(t, "steady state", steady, last)

	stats := router.Stats()
	// Batches 4 and 5 see the same [dm,dm] window as batch 3.
	if stats.PolicyCacheHits != 2 {
		t.Fatalf("policy cache hits %d, want 2 (stats %+v)", stats.PolicyCacheHits, stats)
	}
	if stats.ForwardPasses != stats.Batches-stats.PolicyCacheHits {
		t.Fatalf("forward passes %d for %d batches with %d cache hits", stats.ForwardPasses, stats.Batches, stats.PolicyCacheHits)
	}
	if stats.StrategyHits < 2 {
		t.Fatalf("strategy hits %d, want >= 2", stats.StrategyHits)
	}
	if stats.StrategyHits+stats.StrategyMisses != stats.Batches {
		t.Fatalf("strategy hits %d + misses %d != batches %d", stats.StrategyHits, stats.StrategyMisses, stats.Batches)
	}

	// A value-equal clone must hit too: same demand decoded afresh.
	d, err := router.Route(ctx, dm.Clone())
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, "cloned steady demand", steady, d)
	if got := router.Stats().PolicyCacheHits; got != 3 {
		t.Fatalf("policy cache hits after clone %d, want 3", got)
	}
}

// TestRouterBatchWindow: a serving worker with a batch window keeps
// gathering concurrent requests instead of serving singletons, and Close
// does not wait out the window.
func TestRouterBatchWindow(t *testing.T) {
	g := Abilene()
	router, err := NewRouter(testRouterAgent(t), g, WithRouterWorkers(1), WithMaxBatch(8), WithBatchWindow(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	const perCaller = 4
	var wg sync.WaitGroup
	errCh := make(chan error, callers*perCaller)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if _, err := router.Route(context.Background(), testDemand(g, int64(c*10+i))); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	stats := router.Stats()
	if stats.Requests != callers*perCaller {
		t.Fatalf("served %d requests, want %d", stats.Requests, callers*perCaller)
	}
	if stats.Batches >= stats.Requests {
		t.Fatalf("batch window never batched: %d batches for %d requests", stats.Batches, stats.Requests)
	}
	start := time.Now()
	router.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("close took %v with a 2ms batch window", elapsed)
	}
	if _, err := router.Route(context.Background(), testDemand(g, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestRouterBatchesWithoutWindow pins flat combining's batching with no
// batch window: with one serve slot, callers that queue while the slot
// holder yields share its batch. One P is the case the combiner's yield
// exists for — without it every batch is a singleton there.
func TestRouterBatchesWithoutWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := Abilene()
	router, err := NewRouter(testRouterAgent(t), g, WithRouterWorkers(1), WithMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const callers = 8
	const perCaller = 8
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if _, err := router.Route(context.Background(), testDemand(g, int64(c*10+i))); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	stats := router.Stats()
	if stats.Requests != callers*perCaller {
		t.Fatalf("served %d requests, want %d", stats.Requests, callers*perCaller)
	}
	if mean := float64(stats.Requests) / float64(stats.Batches); mean < 2 {
		t.Fatalf("mean batch %.2f < 2: %d batches for %d requests", mean, stats.Batches, stats.Requests)
	}
}
