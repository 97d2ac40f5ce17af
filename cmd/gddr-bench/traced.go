package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gddr"
	"gddr/internal/metrics"
)

// newServingAgent builds an agent of the serving shape loaded with model,
// for the bare Router and Engine instances of the traced run.
func newServingAgent(model []byte) (*gddr.Agent, error) {
	agent, err := gddr.NewAgent(gddr.GNNPolicy, nil, gddr.WithMemory(modelMemory), gddr.WithGNNSize(modelHidden, modelSteps))
	if err != nil {
		return nil, err
	}
	return agent, agent.Load(bytes.NewReader(model))
}

// warmAndRun warms an entry point with the stream's first slots, then runs
// the traced run's fixed number of slots on it.
func warmAndRun(in *inputs, tg target, model []byte, sc scale, name string, routesOnly bool) *phaseResult {
	warm := runPhase(in, tg, model, phaseOpts{name: name + " warm-up", routesOnly: routesOnly}, sc.warmup)
	res := runPhase(in, tg, model, phaseOpts{name: name, start: sc.warmup, digest: sc.digest, routesOnly: routesOnly}, sc.tracedN)
	res.violations = append(res.violations, warm.violations...)
	return res
}

func p50us(p *phaseResult) float64 { return median(p.routeLatencies()) / 1e3 }

// runTraced is the traced run: fixed request counts so every count repeats
// exactly, the per-layer metrics, the spans and the reconciliation block.
// End-to-end metrics never come from here.
func (b *bench) runTraced(ctx context.Context, rec *runRecord, in *inputs, research *researchResult, modelPath string, model []byte) error {
	sc := b.sc
	rec.Absent = map[string]string{}
	rec.Counts = map[string]int64{}
	set := func(name string, v float64) {
		def, ok := findMetric(perLayerDefs, name)
		if !ok {
			panic("metric " + name + " is not in the catalogue")
		}
		rec.Metrics[name] = metricValue{Value: v, Unit: def.Unit}
	}
	tr := &tracer{}
	for _, s := range research.spans {
		tr.add(s.Name, s.StartNS, s.EndNS, -1, -1)
	}

	// Untraced and traced tenants and a traced server, all warmed.
	r, _, setup, err := setUp(in.spec.name, in.seed, b.serverBin, modelPath, model, true, sc)
	if err != nil {
		return err
	}
	defer r.close()
	plainFleet := gddr.NewFleet()
	defer plainFleet.Close()
	plain, err := plainFleet.Create("bench", gddr.TenantConfig{Topology: in.spec.topology, Checkpoint: modelPath})
	if err != nil {
		return err
	}

	// Tenant, untraced: latency baseline and allocation cost per request.
	warm := runPhase(in, tenantTarget(plain), model, phaseOpts{name: "lib warm-up"}, sc.warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lib := runPhase(in, tenantTarget(plain), model, phaseOpts{name: "lib", start: sc.warmup, digest: sc.digest}, sc.tracedN)
	runtime.ReadMemStats(&after)
	lib.violations = append(lib.violations, warm.violations...)
	set("router.allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(lib.Attempted))
	set("router.bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/float64(lib.Attempted))

	// Tenant, traced: stage timings from Decision.Trace, exact counters from
	// Stats over exactly these requests.
	statsBefore := r.tenant.Stats()
	traced := runPhase(in, tenantTarget(r.tenant), model, phaseOpts{name: "lib-traced", start: r.next, digest: sc.digest, full: true}, sc.tracedN)
	stats := r.tenant.Stats()
	routerCounts(rec, set, statsBefore, stats)
	// Tracing overhead: the traced run's throughput over the mean of an
	// untraced run before and one after it, so drift cancels.
	again := runPhase(in, tenantTarget(plain), model, phaseOpts{name: "lib-again", start: lib.next}, sc.tracedN)
	rate := func(p *phaseResult) float64 { return float64(p.Routes) / p.WallS }
	set("bench.trace_overhead_ratio", rate(traced)/((rate(lib)+rate(again))/2))

	// The layers under the tenant, each a separate instance on the same
	// stream. A bare Router has no control plane and skips the operations.
	agent, err := newServingAgent(model)
	if err != nil {
		return err
	}
	router, err := gddr.NewRouter(agent, in.graph)
	if err != nil {
		return err
	}
	bare := warmAndRun(in, &libTarget{routeFn: router.Route}, model, sc, "router", true)
	router.Close()
	agent2, err := newServingAgent(model)
	if err != nil {
		return err
	}
	engine, err := gddr.NewEngine(agent2, in.graph)
	if err != nil {
		return err
	}
	eng := warmAndRun(in, &libTarget{routeFn: engine.Route, applyFn: engine.Apply, swapFn: engine.SwapCheckpoint}, model, sc, "engine", false)
	engine.Close()
	set("router.route_p50_us", p50us(bare))
	set("engine.route_overhead_p50_us", p50us(eng)-p50us(bare))
	set("tenant.route_overhead_p50_us", p50us(lib)-p50us(eng))
	set("tenant.route_p99_us", quantileOf(lib.routeLatencies(), 0.99)/1e3)

	// Gateway: the traced server, closed loop, with its CPU time around it.
	cpuBefore, cpuErr := r.srv.cpuSeconds()
	http := runPhase(in, r.http, model, phaseOpts{name: "http-traced", start: r.next, digest: sc.digest, full: true}, sc.tracedN)
	http.Loop = "closed, 1 keep-alive connection"
	if cpuAfter, err := r.srv.cpuSeconds(); err == nil && cpuErr == nil {
		set("gateway.cpu_ms_per_kreq", (cpuAfter-cpuBefore)*1e3/(float64(http.Attempted)/1e3))
	} else {
		rec.Absent["gateway.cpu_ms_per_kreq"] = "cannot read /proc/<pid>/stat"
	}
	set("gateway.http_p99_us", quantileOf(http.routeLatencies(), 0.99)/1e3)
	set("gateway.req_bytes", float64(http.reqBytes)/float64(max(http.Routes, 1)))
	set("gateway.resp_bytes", float64(http.respBytes)/float64(max(http.Routes, 1)))
	set("gateway.boot_ms", float64(setup.boot.Nanoseconds())/1e6)
	set("gateway.build_s", b.buildTime.Seconds())

	// Gateway, open loop: arrivals on a fixed schedule whatever the server
	// does, latency from the intended send time.
	open := runOpenLoop(in, r.srv.base, http.next, in.spec.openRate, time.Duration(sc.seconds/4*float64(time.Second)), 2)
	set("gateway.open_rate_rps", open.rate)
	set("gateway.open_p50_us", open.p50us)
	set("gateway.open_p99_us", open.p99us)
	set("gateway.open_late_p50_us", open.lateP50us)
	set("gateway.open_fail_ratio", float64(open.phase.Failed+open.phase.Shed)/float64(max(open.phase.Attempted, 1)))
	if rss, err := peakRSSMB(r.srv.cmd.Process.Pid); err == nil {
		set("gateway.peak_rss_mb", rss)
	} else {
		rec.Absent["gateway.peak_rss_mb"] = "cannot read /proc/<pid>/status"
	}
	serverCounters(rec, r.srv, set)

	// Control operations: from the stream when it has them, else the probe.
	rec.Phases = []*phaseResult{lib, traced, again, bare, eng, http, open.phase}
	if in.spec.opsEvery == 0 {
		p := newProbe(in, tenantTarget(r.tenant), model)
		p.run(sc.probeOps)
		rec.Phases = append(rec.Phases, p.res)
	}
	engineCounters(rec, r.tenant, set)

	// Replay and reconciliation.
	mlus, err := replay(in, model, r.next+sc.tracedN, r.next, tr)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	traced.violations = append(traced.violations, compareReplay("lib-traced", traced.recs, mlus)...)
	http.violations = append(http.violations, compareReplay("http-traced", http.recs, mlus)...)
	tr.httpSpans(http.recs)
	rc := reconcile(traced.recs, http.recs, tr)
	rec.Reconciliation = rc
	for _, st := range []string{"queue_wait", "observe", "forward", "strategy", "evaluate"} {
		set("router."+st+"_p50_us", rc.StageUS[st])
	}
	set("router.unexplained_p50_us", rc.RouterUnexplainedUS)
	set("gateway.self_p50_us", rc.GatewaySelfUS)
	set("bench.replay_p50_us", rc.ReplayUS)

	if _, _, err := quality(ctx, traced); err != nil {
		return err
	}
	rec.Digest = traced.Digest
	for _, p := range []*phaseResult{lib, bare, eng, http} {
		// The bare router skips operations, so its stream differs when the
		// workload has them.
		if p.Digest != traced.Digest && !(p == bare && in.spec.opsEvery > 0) {
			rec.Violations = append(rec.Violations, fmt.Sprintf("phase %s digest %s differs from the traced tenant's %s", p.Name, p.Digest, traced.Digest))
		}
	}

	if err := layerMetrics(ctx, in, model, sc.layerLoop, set); err != nil {
		return err
	}
	researchMetrics(rec, research, set)

	if path, err := tr.write(b.root, in.spec.name); err != nil {
		return err
	} else {
		fmt.Fprintf(os.Stderr, "gddr-bench: %d spans written to %s\n", len(tr.spans), path)
	}
	for _, def := range perLayerDefs {
		if _, ok := rec.Metrics[def.Name]; !ok {
			rec.Metrics[def.Name] = metricValue{Unit: def.Unit}
			if rec.Absent[def.Name] == "" {
				rec.Absent[def.Name] = "not produced by this run"
			}
		}
	}
	rec.Samples["per_entry_point_requests"] = sc.tracedN
	rec.Samples["open_loop_requests"] = open.phase.Attempted
	return nil
}

// routerCounts derives the cache and batching ratios from the difference
// of two Stats() readings. The counts themselves repeat exactly for a given
// seed and code, so they are recorded too.
func routerCounts(rec *runRecord, set func(string, float64), a, b gddr.EngineStats) {
	reqs := b.Requests - a.Requests
	batches := b.Batches - a.Batches
	hits := b.PolicyCacheHits - a.PolicyCacheHits
	shits, smiss := b.StrategyHits-a.StrategyHits, b.StrategyMisses-a.StrategyMisses
	passes := b.ForwardPasses - a.ForwardPasses
	rec.Counts["router.requests"] = reqs
	rec.Counts["router.batches"] = batches
	rec.Counts["router.policy_cache_hits"] = hits
	rec.Counts["router.strategy_hits"] = shits
	rec.Counts["router.strategy_misses"] = smiss
	rec.Counts["router.forward_passes"] = passes
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	set("router.policy_cache_hit_ratio", ratio(hits, batches))
	set("router.strategy_cache_hit_ratio", ratio(shits, shits+smiss))
	set("router.forward_passes_per_req", ratio(passes, reqs))
	set("router.batch_size_mean", ratio(reqs, batches))
}

// histMean returns a histogram's mean from a registry snapshot, and whether
// the instrument exists and has observations.
func histMean(points []metrics.Point, name string) (float64, bool) {
	for _, p := range points {
		if p.Name == name && p.Count > 0 {
			return p.Sum / float64(p.Count), true
		}
	}
	return 0, false
}

func counterValue(points []metrics.Point, name string) (float64, bool) {
	for _, p := range points {
		if p.Name == name {
			return p.Value, true
		}
	}
	return 0, false
}

// engineCounters reads the engine's own instruments: the rebuild and drain
// histograms behind every Apply and swap, and the operation counters.
func engineCounters(rec *runRecord, t *gddr.Tenant, set func(string, float64)) {
	points := t.Engine().Metrics().Snapshot()
	for metric, name := range map[string]string{
		"engine.apply_rebuild_mean_us": "gddr_engine_snapshot_rebuild_seconds",
		"engine.apply_drain_mean_us":   "gddr_engine_snapshot_drain_seconds",
	} {
		if v, ok := histMean(points, name); ok {
			set(metric, v*1e6)
		} else {
			rec.Absent[metric] = "no observations in " + name
		}
	}
	stats := t.Stats()
	set("engine.events_applied", float64(stats.EventsApplied))
	set("engine.swaps", float64(stats.AgentSwaps))
	rec.Counts["engine.events_applied"] = stats.EventsApplied
	rec.Counts["engine.swaps"] = stats.AgentSwaps
}

// serverCounters scrapes the server's /metrics once: the admission counters
// give the shed ratio, and the count of 200s on /route must match what the
// client saw succeed.
func serverCounters(rec *runRecord, srv *server, set func(string, float64)) {
	text, err := srv.scrape()
	if err != nil {
		rec.Absent["tenant.shed_ratio"] = "cannot scrape /metrics: " + err.Error()
		return
	}
	admitted, okA := promValue(text, "gddr_fleet_admitted_total")
	shed, okS := promValue(text, "gddr_fleet_shed_total")
	if okA && okS && admitted+shed > 0 {
		set("tenant.shed_ratio", shed/(admitted+shed))
	} else {
		rec.Absent["tenant.shed_ratio"] = "gddr_fleet_admitted_total / gddr_fleet_shed_total not exposed"
	}
	rec.Counts["gateway.admitted"] = int64(admitted)
}

// promValue sums the samples of one metric family in a Prometheus text
// exposition.
func promValue(text, name string) (float64, bool) {
	var sum float64
	found := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) || len(line) == len(name) || (line[len(name)] != '{' && line[len(name)] != ' ') {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
			found = true
		}
	}
	return sum, found
}

// researchMetrics turns the research stage's registry and timings into the
// lp, rl, train and checkpoint layer metrics.
func researchMetrics(rec *runRecord, res *researchResult, set func(string, float64)) {
	// Prewarm's time follows the seed's matrices (cold-solve pivot counts
	// differ by a third between seeds), so it is a layer metric, not a gate.
	set("lp.prewarm_s", res.PrewarmS)
	points := res.points
	get := func(name string) float64 { v, _ := counterValue(points, name); return v }
	warm, cold := get("gddr_lp_warm_start_total"), get("gddr_lp_cold_start_total")
	hits, misses := get("gddr_lp_cache_hits_total"), get("gddr_lp_cache_misses_total")
	if warm+cold > 0 {
		set("lp.warm_start_ratio", warm/(warm+cold))
	} else {
		rec.Absent["lp.warm_start_ratio"] = "gddr_lp_warm_start_total / gddr_lp_cold_start_total not registered"
	}
	if hits+misses > 0 {
		set("lp.cache_hit_ratio", hits/(hits+misses))
	} else {
		rec.Absent["lp.cache_hit_ratio"] = "gddr_lp_cache_hits_total / gddr_lp_cache_misses_total not registered"
	}
	rec.Counts["lp.warm_starts"], rec.Counts["lp.cold_starts"] = int64(warm), int64(cold)
	rec.Counts["lp.cache_hits"], rec.Counts["lp.cache_misses"] = int64(hits), int64(misses)

	var collect, update float64
	for _, p := range points {
		switch p.Name {
		case "gddr_train_collect_seconds":
			collect = p.Sum
		case "gddr_train_update_seconds":
			update = p.Sum
		}
	}
	if collect+update > 0 {
		set("rl.collect_s", collect)
		set("rl.update_s", update)
		set("rl.collect_share", collect/(collect+update))
	} else {
		for _, m := range []string{"rl.collect_s", "rl.update_s", "rl.collect_share"} {
			rec.Absent[m] = "gddr_train_collect_seconds / gddr_train_update_seconds have no observations"
		}
	}
	set("rl.updates", get("gddr_train_updates_total"))
	set("rl.episodes", get("gddr_train_episodes_total"))
	rec.Counts["rl.updates"], rec.Counts["rl.episodes"] = int64(get("gddr_train_updates_total")), int64(get("gddr_train_episodes_total"))
	rec.Counts["train.steps"] = int64(res.Steps)
	set("train.eval_s", res.EvalS)
	set("train.peak_rss_mb", res.PeakRSSMB)
	set("checkpoint.save_ms", res.SaveMS)
	set("checkpoint.load_ms", res.LoadMS)
}

// openResult is the outcome of the open-loop phase.
type openResult struct {
	phase                         *phaseResult
	rate, p50us, p99us, lateP50us float64
}

// runOpenLoop sends route requests on a fixed schedule — one every 1/rate
// seconds from the start, whatever earlier requests are doing — over conns
// connections, each a worker that takes the next due arrival. A request's
// latency runs from its intended send time, so a stall charges every
// arrival it delayed; how late the generator itself sent is reported apart.
func runOpenLoop(in *inputs, base string, startSlot int, rate float64, dur time.Duration, conns int) openResult {
	res := &phaseResult{Name: "open", Loop: fmt.Sprintf("open, %.0f/s, %d connections", rate, conns)}
	total := int(rate * dur.Seconds())
	// Only route slots: control operations over two unordered connections
	// would make the stream order, and so the outcome, depend on timing.
	var slots []int
	for s := startSlot; len(slots) < total; s++ {
		if in.at(s).kind == opRoute {
			slots = append(slots, s)
		}
	}
	interval := time.Duration(float64(time.Second) / rate)
	var mu sync.Mutex
	next := 0
	var lats, lates []float64
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tg := newHTTPTarget(base)
			defer tg.close()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(slots) {
					return
				}
				due := begin.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				o := in.at(slots[i])
				_, _, err := tg.route(nil, in.bodies[o.dm], false)
				done := time.Now()
				mu.Lock()
				res.Attempted++
				if res.count(err, o, slots[i]) {
					res.Routes++
					lats = append(lats, float64(done.Sub(due).Nanoseconds())/1e3)
				}
				lates = append(lates, float64(sent.Sub(due).Nanoseconds())/1e3)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.WallS = time.Since(begin).Seconds()
	out := openResult{phase: res, p50us: median(lats), p99us: quantileOf(lats, 0.99), lateP50us: median(lates)}
	if res.WallS > 0 {
		out.rate = float64(res.Routes) / res.WallS
	}
	return out
}
