package main

// The names in this file are the benchmark's contract: BENCHMARK.json lists
// exactly these workloads and metrics (a test compares the two), and later
// issues cite them.

// metricDef describes one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"steady", "Geant, the same demand matrix every request: both serving caches hit, so fixed per-request and gateway cost dominate and kernel work is bypassed"},
	{"shifting", "Geant, a fresh matrix every request: both caches miss, so observation, GNN forward pass and strategy build dominate"},
	{"liveops", "Abilene, demand changing every 8 requests with a topology event or model swap after every 25: writes beside reads on one engine, small graph"},
	{"train", "Abilene x3 + Geant x2 PPO training from a cold LP cache, then the trained agent deployed on Abilene: LP prewarm, rollouts and tape backward"},
}

// endToEndDefs are the metrics a user of the system sees. Every workload
// reports every one of them (see bench/README.md for which operation each
// comes from on each workload). The timing bounds are the contract's
// maximum because the shared 2-core box the benchmark was calibrated on
// drifts by more than a tighter bound would allow (bench/README.md,
// Calibration); mlu_ratio is exact for a seed and bounded by its spread
// across seeds.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"route_rps", "1/s", "higher", 0.25},
	{"route_p50_us", "us", "lower", 0.25},
	{"http_rps", "1/s", "higher", 0.25},
	{"http_p50_us", "us", "lower", 0.25},
	{"apply_p25_us", "us", "lower", 0.25},
	{"swap_p25_ms", "ms", "lower", 0.25},
	{"train_steps_per_s", "1/s", "higher", 0.25},
	{"mlu_ratio", "ratio", "lower", 0.15},
}

// perLayerDefs are the single-layer metrics of the traced run, grouped by
// the module they measure.
var perLayerDefs = []metricDef{
	// router.go
	{Name: "router.route_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.observe_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.forward_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.strategy_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.evaluate_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.unexplained_p50_us", Unit: "us", Better: "lower"},
	{Name: "router.policy_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "router.strategy_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "router.forward_passes_per_req", Unit: "ratio", Better: "lower"},
	{Name: "router.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "router.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "router.bytes_per_req", Unit: "bytes", Better: "lower"},
	// engine.go
	{Name: "engine.route_overhead_p50_us", Unit: "us", Better: "lower"},
	{Name: "engine.apply_rebuild_mean_us", Unit: "us", Better: "lower"},
	{Name: "engine.apply_drain_mean_us", Unit: "us", Better: "lower"},
	{Name: "engine.events_applied", Unit: "count", Better: "higher"},
	{Name: "engine.swaps", Unit: "count", Better: "higher"},
	// tenant.go, fleet.go
	{Name: "tenant.route_overhead_p50_us", Unit: "us", Better: "lower"},
	{Name: "tenant.route_p99_us", Unit: "us", Better: "lower"},
	{Name: "tenant.shed_ratio", Unit: "ratio", Better: "lower"},
	// cmd/gddr-serve
	{Name: "gateway.self_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.http_p99_us", Unit: "us", Better: "lower"},
	{Name: "gateway.req_bytes", Unit: "bytes", Better: "lower"},
	{Name: "gateway.resp_bytes", Unit: "bytes", Better: "lower"},
	{Name: "gateway.cpu_ms_per_kreq", Unit: "ms", Better: "lower"},
	{Name: "gateway.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "gateway.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.build_s", Unit: "s", Better: "lower"},
	{Name: "gateway.open_rate_rps", Unit: "1/s", Better: "higher"},
	{Name: "gateway.open_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.open_p99_us", Unit: "us", Better: "lower"},
	{Name: "gateway.open_late_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.open_fail_ratio", Unit: "ratio", Better: "lower"},
	// internal/env
	{Name: "env.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "env.observe_allocs", Unit: "count", Better: "lower"},
	{Name: "env.step_ns", Unit: "ns", Better: "lower"},
	// internal/policy, internal/gnn
	{Name: "policy.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.forward_allocs", Unit: "count", Better: "lower"},
	// internal/ad
	{Name: "ad.forward_backward_ns", Unit: "ns", Better: "lower"},
	{Name: "ad.steady_allocs", Unit: "count", Better: "lower"},
	// internal/mat
	{Name: "mat.matmul_gnn_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.matmul_256_ns", Unit: "ns", Better: "lower"},
	{Name: "mat.matmul_gnn_flops", Unit: "flops", Better: "lower"},
	// internal/routing
	{Name: "routing.strategy_build_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.strategy_allocs", Unit: "count", Better: "lower"},
	{Name: "routing.accumulate_ns", Unit: "ns", Better: "lower"},
	// internal/lp, env.OptimalCache
	{Name: "lp.prewarm_s", Unit: "s", Better: "lower"},
	{Name: "lp.cold_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.warm_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "lp.cold_pivots", Unit: "count", Better: "lower"},
	{Name: "lp.warm_pivots", Unit: "count", Better: "lower"},
	{Name: "lp.warm_start_ratio", Unit: "ratio", Better: "higher"},
	{Name: "lp.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	// internal/rl, train.go
	{Name: "rl.collect_s", Unit: "s", Better: "lower"},
	{Name: "rl.update_s", Unit: "s", Better: "lower"},
	{Name: "rl.collect_share", Unit: "ratio", Better: "lower"},
	{Name: "rl.updates", Unit: "count", Better: "higher"},
	{Name: "rl.episodes", Unit: "count", Better: "higher"},
	{Name: "train.eval_s", Unit: "s", Better: "lower"},
	{Name: "train.peak_rss_mb", Unit: "MB", Better: "lower"},
	// checkpoint.go, internal/nn
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower"},
	// the benchmark itself
	{Name: "bench.replay_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
