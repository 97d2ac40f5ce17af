package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gddr"
	"gddr/internal/ad"
	"gddr/internal/env"
	"gddr/internal/lp"
	"gddr/internal/mat"
	"gddr/internal/nn"
	"gddr/internal/policy"
	"gddr/internal/rl"
	"gddr/internal/routing"
)

// The serving agents are built by gddr.NewAgent with its defaults, which
// fix the action-to-weight mapping below (see Agent.envConfig). The replay
// asserts its MLU equals the served one, so a drift here is caught.
const (
	servingWeightScale = 2
	servingGamma       = routing.DefaultGamma
)

// loadPolicy rebuilds the serving GNN from a checkpoint written by
// Agent.Save: the policy's own parameters followed by PPO's log-std.
func loadPolicy(model []byte) (*policy.GNN, []*ad.Param, error) {
	pol, err := policy.NewGNN(policy.GNNConfig{Memory: modelMemory, Hidden: modelHidden, Steps: modelSteps},
		rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, nil, err
	}
	params := append(pol.Params(), ad.NewParam(rl.AlgoPPO+".log_std", mat.New(1, 1)))
	if err := nn.LoadParams(bytes.NewReader(model), params); err != nil {
		return nil, nil, err
	}
	return pol, params, nil
}

// timeLoop calls fn for about d, in five equal stretches, and returns the
// median stretch's time per call, the allocations per call over the whole
// loop, and the number of calls.
func timeLoop(d time.Duration, fn func()) (nsPerOp, allocsPerOp float64, n int) {
	fn() // fill pools and lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var perOp []float64
	for s := 0; s < 5; s++ {
		start := time.Now()
		calls := 0
		for time.Since(start) < d/5 || calls == 0 {
			fn()
			calls++
		}
		perOp = append(perOp, float64(time.Since(start).Nanoseconds())/float64(calls))
		n += calls
	}
	runtime.ReadMemStats(&after)
	return median(perOp), float64(after.Mallocs-before.Mallocs) / float64(n), n
}

// layerMetrics times the public functions of the numeric layers on the
// workload's own graph and matrices, one short loop each.
func layerMetrics(ctx context.Context, in *inputs, model []byte, d time.Duration, set func(string, float64)) error {
	g := in.graph
	n, ne := g.NumNodes(), g.NumEdges()
	window := make([]*gddr.DemandMatrix, modelMemory)
	for i := range window {
		window[i] = in.matrices[i%len(in.matrices)]
	}
	dm := in.matrices[0]
	fail := func(layer string, err error) error { return fmt.Errorf("layer %s: %w", layer, err) }

	// env: observation build, and one environment step with the LP cache warm.
	var ob env.Observer
	var obs *env.Observation
	var err error
	ns, allocs, _ := timeLoop(d, func() { obs, err = ob.Observe(g, window) })
	if err != nil {
		return fail("env", err)
	}
	set("env.observe_ns", ns)
	set("env.observe_allocs", allocs)

	item := in.train.Items[0]
	seq := item.Sequences[0]
	cache := env.NewOptimalCache()
	if err := cache.WarmSequence(ctx, item.Graph, seq, env.MaxUtilization, nil); err != nil {
		return fail("env", err)
	}
	e, err := env.New(item.Graph, seq, env.Config{Memory: modelMemory, Gamma: servingGamma, Mode: env.FullAction,
		WeightScale: servingWeightScale, CapacityAware: true}, cache)
	if err != nil {
		return fail("env", err)
	}
	action := make([]float64, item.Graph.NumEdges())
	done := true
	ns, _, _ = timeLoop(d, func() {
		if done {
			_, err = e.Reset()
			done = false
			return
		}
		if err == nil {
			_, _, done, err = e.Step(action)
		}
	})
	if err != nil {
		return fail("env", err)
	}
	set("env.step_ns", ns)

	// policy/gnn: the deterministic forward pass serving runs on a miss.
	pol, params, err := loadPolicy(model)
	if err != nil {
		return fail("policy", err)
	}
	ns, allocs, _ = timeLoop(d, func() { _, err = rl.MeanAction(pol, obs) })
	if err != nil {
		return fail("policy", err)
	}
	set("policy.forward_ns", ns)
	set("policy.forward_allocs", allocs)

	// ad: forward plus backward on one reused tape, as a PPO minibatch
	// element does.
	tape := ad.NewTape()
	ns, allocs, _ = timeLoop(d, func() {
		tape.Reset()
		for _, p := range params {
			p.ZeroGrad()
		}
		mean, value, ferr := pol.Forward(tape, obs)
		if ferr != nil {
			err = ferr
			return
		}
		if berr := tape.Backward(tape.Add(tape.SumAll(mean), tape.SumAll(value))); berr != nil {
			err = berr
		}
	})
	if err != nil {
		return fail("ad", err)
	}
	set("ad.forward_backward_ns", ns)
	set("ad.steady_allocs", allocs)

	// mat: the core block's edge update is an (edges x 8h)·(8h x h) product,
	// the largest of the forward pass; 256^3 is the kernel's blocked regime.
	h := modelHidden
	rng := rand.New(rand.NewSource(1))
	a, b, dst := mat.RandNormal(ne, 8*h, 1, rng), mat.RandNormal(8*h, h, 1, rng), mat.New(ne, h)
	ns, _, _ = timeLoop(d, func() { mat.MatMulInto(dst, a, b) })
	set("mat.matmul_gnn_ns", ns)
	set("mat.matmul_gnn_flops", float64(2*ne*8*h*h)) // computed from the shape, not measured
	a, b, dst = mat.RandNormal(256, 256, 1, rng), mat.RandNormal(256, 256, 1, rng), mat.New(256, 256)
	ns, _, _ = timeLoop(d, func() { mat.MatMulInto(dst, a, b) })
	set("mat.matmul_256_ns", ns)

	// routing: strategy build with every sink's ratios, then the cached
	// path's load propagation over all sinks.
	weights := g.InverseCapacityWeights()
	var strat *routing.Strategy
	build := func() {
		strat, err = routing.NewStrategy(g, weights, servingGamma)
		for sink := 0; sink < n && err == nil; sink++ {
			_, err = strat.Ratios(sink)
		}
	}
	ns, allocs, _ = timeLoop(d, build)
	if err != nil {
		return fail("routing", err)
	}
	set("routing.strategy_build_ns", ns)
	set("routing.strategy_allocs", allocs)
	loads, inflow := make([]float64, ne), make([]float64, n)
	ns, _, _ = timeLoop(d, func() {
		clear(loads)
		for sink := 0; sink < n && err == nil; sink++ {
			var rt *routing.Ratios
			if rt, err = strat.Ratios(sink); err == nil {
				err = rt.AccumulateLoads(g, dm, loads, inflow)
			}
		}
	})
	if err != nil {
		return fail("routing", err)
	}
	set("routing.accumulate_ns", ns)

	// lp: one cold solve, then the sequence's next matrix warm-started from
	// its basis, on the largest research topology. Pivot counts are exact;
	// times are the median of three.
	lpItem := in.train.Items[len(in.train.Items)-1]
	lpG, first, next := lpItem.Graph, lpItem.Sequences[0][0], lpItem.Sequences[0][1]
	var cold, warm []float64
	var coldStats, warmStats lp.MCFStats
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, _, coldStats, err = lp.OptimalMaxUtilizationCtx(ctx, lpG, first, nil); err != nil {
			return fail("lp", err)
		}
		cold = append(cold, float64(time.Since(start).Nanoseconds())/1e6)
		start = time.Now()
		if _, _, warmStats, err = lp.OptimalMaxUtilizationCtx(ctx, lpG, next, coldStats.Basis); err != nil {
			return fail("lp", err)
		}
		warm = append(warm, float64(time.Since(start).Nanoseconds())/1e6)
	}
	set("lp.cold_solve_ms", median(cold))
	set("lp.warm_solve_ms", median(warm))
	set("lp.cold_pivots", float64(coldStats.Pivots))
	set("lp.warm_pivots", float64(warmStats.Pivots))
	return nil
}
