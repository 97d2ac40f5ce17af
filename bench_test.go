// Benchmark harness regenerating every figure of the paper's evaluation
// (§VIII) plus the ablations called out in DESIGN.md and micro-benchmarks
// of each substrate. Figure benches print the same series the paper plots;
// scale them with GDDR_BENCH_STEPS (PPO steps per policy, default small so
// `go test -bench .` completes in minutes — see DESIGN.md substitution #5).
package gddr

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"gddr/internal/ad"
	"gddr/internal/env"
	"gddr/internal/gnn"
	"gddr/internal/graph"
	"gddr/internal/lp"
	"gddr/internal/mat"
	"gddr/internal/policy"
	"gddr/internal/routing"
	"gddr/internal/topo"
	"gddr/internal/traffic"
)

// benchSteps returns the training budget for figure benches.
func benchSteps() int {
	if s := os.Getenv("GDDR_BENCH_STEPS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 2000
}

func benchOptions() ExperimentOptions {
	opts := DefaultExperimentOptions()
	opts.TrainSteps = benchSteps()
	opts.TrainSeqs = 2
	opts.TestSeqs = 1
	opts.SeqLen = 20
	opts.Cycle = 5
	opts.Memory = 3
	opts.GNNHidden = 16
	opts.GNNSteps = 2
	return opts
}

// benchExperiment regenerates one registered experiment per iteration and
// reports every scalar metric of its report.
func benchExperiment(b *testing.B, name string) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		report, err := RunExperiment(context.Background(), name, WithExperimentOptions(opts))
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n%s (steps=%d):\n%s", name, opts.TrainSteps, report.String())
		for _, metric := range report.MetricNames() {
			b.ReportMetric(report.Metrics[metric], metric)
		}
	}
}

// BenchmarkFigure6 regenerates the paper's Figure 6: mean max-utilisation
// ratio on held-out Abilene sequences for the MLP, GNN, and iterative GNN
// policies against the shortest-path dotted line.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "figure6") }

// BenchmarkFigure7 regenerates the paper's Figure 7 learning curves:
// total reward per episode against cumulative timesteps for MLP and GNN.
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "figure7") }

// BenchmarkFigure8 regenerates the paper's Figure 8: generalisation of the
// GNN policies to modified and entirely different topologies.
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "figure8") }

// newBenchRouter builds a Router over an untrained GNN agent on Abilene
// plus a pool of demand matrices to route.
func newBenchRouter(b *testing.B, workers int) (*Router, []*DemandMatrix) {
	b.Helper()
	agent, err := NewAgent(GNNPolicy, nil, WithMemory(3), WithGNNSize(16, 2))
	if err != nil {
		b.Fatal(err)
	}
	g := topo.Abilene()
	router, err := NewRouter(agent, g, WithRouterWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	dms := make([]*DemandMatrix, 16)
	for i := range dms {
		dms[i] = traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
	}
	return router, dms
}

// BenchmarkRouterRoute measures single-caller serving latency: one Route
// call per iteration, policy forward plus routing translation.
func BenchmarkRouterRoute(b *testing.B) {
	router, dms := newBenchRouter(b, 1)
	defer router.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := router.Route(ctx, dms[i%len(dms)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterRouteSteady is the serving fast-path gate: single-caller
// throughput under steady demand (the same matrix batch after batch, the
// regime the paper's cyclical workloads settle into), with the fast-path
// caches on versus off. Once the history window stabilises, the cached
// path answers without an observation build, forward pass, or softmin
// routing translation; CI requires it to be at least 2x faster than the
// uncached baseline at Abilene scale, while TestRouterCacheGoldenDecisions
// proves the decisions are bit-identical.
func BenchmarkRouterRouteSteady(b *testing.B) {
	// cache=on is the instrumented fast path (metrics are on by default);
	// metrics=off is the same path without the per-request clock reads and
	// histogram observations (the counters always count), the baseline for
	// CI's 1.1x instrumentation-overhead gate.
	for _, variant := range []struct {
		name               string
		noCache, noMetrics bool
	}{
		{name: "cache=on"},
		{name: "cache=off", noCache: true},
		{name: "metrics=off", noMetrics: true},
	} {
		cached := !variant.noCache
		b.Run(variant.name, func(b *testing.B) {
			agent, err := NewAgent(GNNPolicy, nil, WithMemory(3), WithGNNSize(16, 2))
			if err != nil {
				b.Fatal(err)
			}
			g := topo.Abilene()
			cfg := resolveRouterConfig([]RouterOption{WithRouterWorkers(1)})
			cfg.noCache = variant.noCache
			cfg.noMetrics = variant.noMetrics
			router, err := newRouter(agent, g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer router.Close()
			rng := rand.New(rand.NewSource(22))
			dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
			ctx := context.Background()
			// Fill the history window so the steady state is reached before
			// timing starts.
			for i := 0; i < 4; i++ {
				if _, err := router.Route(ctx, dm); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := router.Route(ctx, dm); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if cached {
				stats := router.Stats()
				if stats.PolicyCacheHits == 0 || stats.StrategyHits == 0 {
					b.Fatalf("steady benchmark never hit the caches: %+v", stats)
				}
			}
		})
	}
}

// BenchmarkRouterRouteIterative measures serving the paper's iterative
// policy (§VII-B), which runs one forward pass per directed edge for every
// decision it makes. Under steady demand, cache=off times a whole decision
// and cache=on must answer every request after warm-up without a single
// forward pass; passes/op reports which.
func BenchmarkRouterRouteIterative(b *testing.B) {
	for _, topology := range []string{"abilene", "geant"} {
		b.Run("topo="+topology, func(b *testing.B) {
			for _, cached := range []bool{true, false} {
				name := "cache=off"
				if cached {
					name = "cache=on"
				}
				b.Run(name, func(b *testing.B) {
					agent, err := NewAgent(GNNIterativePolicy, nil, WithMemory(3), WithGNNSize(16, 2))
					if err != nil {
						b.Fatal(err)
					}
					g, err := topo.Named(topology)
					if err != nil {
						b.Fatal(err)
					}
					cfg := resolveRouterConfig([]RouterOption{WithRouterWorkers(1)})
					cfg.noCache = !cached
					router, err := newRouter(agent, g, cfg)
					if err != nil {
						b.Fatal(err)
					}
					defer router.Close()
					dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rand.New(rand.NewSource(24)))
					ctx := context.Background()
					// Fill the history window so the steady state is reached
					// before timing starts.
					for i := 0; i < 4; i++ {
						if _, err := router.Route(ctx, dm); err != nil {
							b.Fatal(err)
						}
					}
					warm := router.Stats().ForwardPasses
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := router.Route(ctx, dm); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					passes := router.Stats().ForwardPasses - warm
					b.ReportMetric(float64(passes)/float64(b.N), "passes/op")
					if cached && passes != 0 {
						b.Fatalf("cached iterative serving ran %d forward passes after warm-up", passes)
					}
				})
			}
		})
	}
}

// BenchmarkRouterRouteConcurrent measures 8-way concurrent serving
// throughput with a deliberately small worker pool, so simultaneous
// requests queue up and get batched onto shared forward passes.
func BenchmarkRouterRouteConcurrent(b *testing.B) {
	router, dms := newBenchRouter(b, 2)
	defer router.Close()
	ctx := context.Background()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := router.Route(ctx, dms[i%len(dms)]); err != nil {
				b.Error(err) // Fatal must not be called off the benchmark goroutine
				return
			}
			i++
		}
	})
	b.StopTimer()
	stats := router.Stats()
	if stats.Batches > 0 {
		b.ReportMetric(float64(stats.Requests)/float64(stats.Batches), "reqs/batch")
	}
}

// BenchmarkEngineApplyRoute is the serving-while-mutating gate: 8-way
// concurrent Route throughput with topology events flapping a link every
// few milliseconds (hundreds of events per second — far beyond any real
// operational rate), against the event-free baseline. Each event rebuilds,
// probe-validates, and drains a serving snapshot, so the route-and-events
// ns/op must stay within ~2x of the route-only ns/op.
func BenchmarkEngineApplyRoute(b *testing.B) {
	for _, churn := range []bool{false, true} {
		name := "route-only"
		if churn {
			name = "route-and-events"
		}
		b.Run(name, func(b *testing.B) {
			agent, err := NewAgent(GNNPolicy, nil, WithMemory(3), WithGNNSize(16, 2))
			if err != nil {
				b.Fatal(err)
			}
			g := topo.Abilene()
			engine, err := NewEngine(agent, g, WithRouterWorkers(2))
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			rng := rand.New(rand.NewSource(21))
			dms := make([]*DemandMatrix, 16)
			for i := range dms {
				dms[i] = traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
			}
			ctx := context.Background()

			stop := make(chan struct{})
			flapped := make(chan int64, 1)
			if churn {
				// Flap one removable link for the whole benchmark.
				u, v, capacity := -1, -1, 0.0
				for _, e := range g.Edges() {
					if e.From > e.To {
						continue
					}
					if c, err := graph.RemoveLink(g, e.From, e.To); err == nil && c != nil {
						u, v, capacity = e.From, e.To, e.Capacity
						break
					}
				}
				if u < 0 {
					b.Fatal("no removable link on the benchmark topology")
				}
				go func() {
					var events int64
					defer func() { flapped <- events }()
					ticker := time.NewTicker(2 * time.Millisecond)
					defer ticker.Stop()
					for {
						select {
						case <-stop:
							return
						case <-ticker.C:
						}
						if err := engine.Apply(ctx, LinkDown{From: u, To: v}); err != nil {
							b.Error(err)
							return
						}
						if err := engine.Apply(ctx, LinkUp{From: u, To: v, Capacity: capacity}); err != nil {
							b.Error(err)
							return
						}
						events += 2
					}
				}()
			}
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := engine.Route(ctx, dms[i%len(dms)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			close(stop)
			if churn {
				b.ReportMetric(float64(<-flapped), "events")
			}
			stats := engine.Stats()
			if stats.Batches > 0 {
				b.ReportMetric(float64(stats.Requests)/float64(stats.Batches), "reqs/batch")
			}
		})
	}
}

// newBenchTenant boots one fleet tenant for the gateway benchmarks: a
// fresh untrained GNN agent on the named topology, one serving goroutine
// per replica and per-request forward passes (MaxBatch 1), so throughput
// differences between variants measure the replica axis alone rather than
// cross-request batching amortisation.
func newBenchTenant(b *testing.B, fleet *Fleet, id, topology string, replicas int) (*Tenant, []*DemandMatrix) {
	b.Helper()
	agent, err := NewAgent(GNNPolicy, nil, WithMemory(3), WithGNNSize(16, 2))
	if err != nil {
		b.Fatal(err)
	}
	g, err := topo.Named(topology)
	if err != nil {
		b.Fatal(err)
	}
	cfg := TenantConfig{
		Topology: topology,
		Replicas: replicas,
		Workers:  1,
		MaxBatch: 1,
		// Deep enough that the benchmark's own concurrency never sheds;
		// the overload variant overrides this.
		QueueDepth: 1024,
	}
	tenant, err := fleet.CreateWithAgent(id, cfg, agent, g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	dms := make([]*DemandMatrix, 16)
	for i := range dms {
		dms[i] = traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
	}
	return tenant, dms
}

// BenchmarkFleetRouteConcurrent is the read-path scale-out gate: 8-way
// concurrent serving throughput through the fleet's admission gate at 1
// versus 4 read replicas of one tenant. Each replica is a single serving
// lane (one worker, per-request forwards), so the 4-replica variant has 4x
// the parallel compute; CI requires it to clear 2x the single-replica
// throughput on the 4-vCPU runners. The tenants=3 variant spreads the same
// concurrency across three tenants on distinct topologies, and the
// overloaded-sibling variant measures a quiet tenant's latency while a
// rate-limited sibling is saturated with traffic that sheds as
// ErrOverloaded — tenant isolation means the quiet ns/op stays in the same
// regime as the replicas=1 baseline.
func BenchmarkFleetRouteConcurrent(b *testing.B) {
	ctx := context.Background()
	for _, replicas := range []int{1, 4} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			fleet := NewFleet()
			defer fleet.Close()
			tenant, dms := newBenchTenant(b, fleet, "bench", "abilene", replicas)
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := tenant.Route(ctx, dms[i%len(dms)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			if shed := tenant.shed.Value(); shed > 0 {
				b.Fatalf("benchmark traffic shed %d requests; the gate would be measuring admission, not replication", shed)
			}
		})
	}
	b.Run("tenants=3", func(b *testing.B) {
		fleet := NewFleet()
		defer fleet.Close()
		tenants := make([]*Tenant, 3)
		pools := make([][]*DemandMatrix, 3)
		for i, topology := range []string{"abilene", "nsfnet", "b4"} {
			tenants[i], pools[i] = newBenchTenant(b, fleet, topology, topology, 2)
		}
		var next int64
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := int(atomic.AddInt64(&next, 1)) % len(tenants)
			tenant, dms := tenants[w], pools[w]
			i := 0
			for pb.Next() {
				if _, err := tenant.Route(ctx, dms[i%len(dms)]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
	b.Run("overloaded-sibling", func(b *testing.B) {
		fleet := NewFleet()
		defer fleet.Close()
		quiet, dms := newBenchTenant(b, fleet, "quiet", "abilene", 1)
		noisyAgent, err := NewAgent(GNNPolicy, nil, WithMemory(3), WithGNNSize(16, 2))
		if err != nil {
			b.Fatal(err)
		}
		noisy, err := fleet.CreateWithAgent("noisy", TenantConfig{
			Topology:   "abilene",
			Workers:    1,
			MaxBatch:   1,
			QueueDepth: 4,
			RateLimit:  1,
			Burst:      1,
		}, noisyAgent, topo.Abilene())
		if err != nil {
			b.Fatal(err)
		}
		// Saturate the noisy tenant for the whole measurement: far more
		// attempts per second than its rate limit admits, so nearly all of
		// them shed at the gate. The short pause keeps the hammer from
		// turning the benchmark into a raw CPU-contention test — real shed
		// traffic is bounded by client retry behaviour, not a spin loop.
		stop := make(chan struct{})
		done := make(chan struct{})
		for h := 0; h < 2; h++ {
			go func(seed int64) {
				dm := traffic.Bimodal(11, traffic.DefaultBimodal(), rand.New(rand.NewSource(seed)))
				for {
					select {
					case <-stop:
						done <- struct{}{}
						return
					default:
					}
					_, _ = noisy.Route(ctx, dm)
					time.Sleep(50 * time.Microsecond)
				}
			}(int64(h))
		}
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := quiet.Route(ctx, dms[i%len(dms)]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
		b.StopTimer()
		close(stop)
		<-done
		<-done
		sheds := float64(noisy.shed.Value())
		if sheds == 0 {
			b.Fatal("the noisy tenant never shed; the isolation variant measured nothing")
		}
		b.ReportMetric(sheds, "sheds")
		if quietSheds := quiet.shed.Value(); quietSheds > 0 {
			b.Fatalf("quiet tenant shed %d requests; admission bled across tenants", quietSheds)
		}
	})
}

// BenchmarkAblationGamma sweeps the softmin spread γ with fixed inverse-
// capacity weights on Abilene (ablation A1): how much the translation's
// sharpness matters independent of learning.
func BenchmarkAblationGamma(b *testing.B) {
	g := topo.Abilene()
	rng := rand.New(rand.NewSource(1))
	dms := make([]*traffic.DemandMatrix, 5)
	opts := make([]float64, len(dms))
	for i := range dms {
		dms[i] = traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
		opt, _, err := lp.OptimalMaxUtilization(g, dms[i])
		if err != nil {
			b.Fatal(err)
		}
		opts[i] = opt
	}
	w := g.InverseCapacityWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fmt.Printf("\nAblation A1: softmin gamma sweep on Abilene (inverse-capacity weights)\n")
		for _, gamma := range []float64{0.25, 0.5, 1, 2, 4, 8, 16} {
			var sum float64
			for j, dm := range dms {
				res, err := routing.EvaluateWeights(g, dm, w, gamma)
				if err != nil {
					b.Fatal(err)
				}
				sum += res.MaxUtilization / opts[j]
			}
			fmt.Printf("  gamma=%6.2f ratio=%.4f\n", gamma, sum/float64(len(dms)))
		}
	}
}

// BenchmarkAblationMessagePassing varies the GNN core's message-passing
// steps (ablation A2), reporting forward cost; reach is covered by tests.
func BenchmarkAblationMessagePassing(b *testing.B) {
	for _, steps := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			pol, err := policy.NewGNN(policy.GNNConfig{Memory: 3, Hidden: 16, Steps: steps}, rng)
			if err != nil {
				b.Fatal(err)
			}
			obs := benchObservation(b, env.FullAction, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := ad.NewTape()
				if _, _, err := pol.Forward(t, obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMemory varies the demand-history length (ablation A3),
// reporting the environment observation + policy forward cost per step.
func BenchmarkAblationMemory(b *testing.B) {
	for _, memory := range []int{1, 3, 5, 10} {
		b.Run(fmt.Sprintf("memory=%d", memory), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			pol, err := policy.NewGNN(policy.GNNConfig{Memory: memory, Hidden: 16, Steps: 2}, rng)
			if err != nil {
				b.Fatal(err)
			}
			obs := benchObservation(b, env.FullAction, memory)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := ad.NewTape()
				if _, _, err := pol.Forward(t, obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchObservation builds one Abilene observation for policy benches.
func benchObservation(b *testing.B, mode env.Mode, memory int) *env.Observation {
	b.Helper()
	g := topo.Abilene()
	rng := rand.New(rand.NewSource(4))
	seq, err := traffic.BimodalCyclical(g.NumNodes(), memory+3, 2, traffic.DefaultBimodal(), rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := env.DefaultConfig()
	cfg.Memory = memory
	cfg.Mode = mode
	e, err := env.New(g, seq, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	obs, err := e.Reset()
	if err != nil {
		b.Fatal(err)
	}
	return obs
}

// --- Substrate micro-benchmarks (S1-S4) ---

func BenchmarkLPSolveAbilene(b *testing.B) {
	g := topo.Abilene()
	rng := rand.New(rand.NewSource(5))
	dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lp.OptimalMaxUtilization(g, dm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPSolveNSFNet(b *testing.B) {
	g := topo.NSFNet()
	rng := rand.New(rand.NewSource(6))
	dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lp.OptimalMaxUtilization(g, dm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoftminRoutingAbilene(b *testing.B) {
	g := topo.Abilene()
	rng := rand.New(rand.NewSource(7))
	dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
	w := make([]float64, g.NumEdges())
	for i := range w {
		w[i] = 0.5 + rng.Float64()*2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.EvaluateWeights(g, dm, w, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShortestPathAbilene(b *testing.B) {
	g := topo.Abilene()
	rng := rand.New(rand.NewSource(8))
	dm := traffic.Bimodal(g.NumNodes(), traffic.DefaultBimodal(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.ShortestPath(g, dm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGNNForward(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pol, err := policy.NewGNN(policy.GNNConfig{Memory: 5, Hidden: 24, Steps: 3}, rng)
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservation(b, env.FullAction, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ad.NewTape()
		if _, _, err := pol.Forward(t, obs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGNNForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	pol, err := policy.NewGNN(policy.GNNConfig{Memory: 5, Hidden: 24, Steps: 3}, rng)
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservation(b, env.FullAction, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ad.NewTape()
		mean, value, err := pol.Forward(t, obs)
		if err != nil {
			b.Fatal(err)
		}
		loss := t.Add(t.SumAll(t.Square(mean)), t.SumAll(t.Square(value)))
		if err := t.Backward(loss); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvStepFull(b *testing.B) {
	g := topo.Abilene()
	rng := rand.New(rand.NewSource(11))
	seq, err := traffic.BimodalCyclical(g.NumNodes(), 200, 5, traffic.DefaultBimodal(), rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := env.DefaultConfig()
	cfg.Memory = 3
	e, err := env.New(g, seq, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Reset(); err != nil {
		b.Fatal(err)
	}
	action := make([]float64, e.ActionDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, done, err := e.Step(action)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			if _, err := e.Reset(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEnvStepIterative(b *testing.B) {
	g := topo.Abilene()
	rng := rand.New(rand.NewSource(12))
	seq, err := traffic.BimodalCyclical(g.NumNodes(), 50, 5, traffic.DefaultBimodal(), rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := env.DefaultConfig()
	cfg.Memory = 3
	cfg.Mode = env.IterativeAction
	e, err := env.New(g, seq, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Reset(); err != nil {
		b.Fatal(err)
	}
	action := []float64{0.1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, done, err := e.Step(action)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			if _, err := e.Reset(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGraphMutation(b *testing.B) {
	g := topo.Abilene()
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.RandomMutation(g, 2, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBimodalGeneration(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traffic.Bimodal(11, traffic.DefaultBimodal(), rng)
	}
}

func BenchmarkGNBlockApply(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	block, err := gnn.NewBlock("b",
		gnn.GraphSignature{NodeDim: 8, EdgeDim: 8, GlobalDim: 8},
		gnn.GraphSignature{NodeDim: 8, EdgeDim: 8, GlobalDim: 8}, 16, rng)
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservation(b, env.FullAction, 4)
	g := &gnn.Graphs{
		Nodes:     obs.NodeFeat,
		Edges:     randMatrix(obs.EdgeFeat.Rows, 8, rng),
		Globals:   randMatrix(1, 8, rng),
		Senders:   obs.Senders,
		Receivers: obs.Receivers,
	}
	g.Nodes = randMatrix(obs.NodeFeat.Rows, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ad.NewTape()
		block.Apply(t, gnn.Lift(t, g))
	}
}

func randMatrix(rows, cols int, rng *rand.Rand) *mat.Matrix {
	return mat.RandNormal(rows, cols, 1, rng)
}
