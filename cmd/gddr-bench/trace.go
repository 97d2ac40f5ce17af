package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gddr"
	"gddr/internal/env"
	"gddr/internal/nn"
	"gddr/internal/rl"
	"gddr/internal/routing"
)

// span is one timed interval recorded by the benchmark itself: its name,
// start and end (Unix ns), the span that caused it (index into the same
// list, -1 for a root) and the request (stream slot) it belongs to.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
type tracer struct {
	spans []span
}

func (t *tracer) add(name string, start, end int64, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, StartNS: start, EndNS: end, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// write stores the spans as bench/results/trace_<workload>.json.
func (t *tracer) write(root, workload string) (string, error) {
	path := filepath.Join(root, "bench", "results", "trace_"+workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the median self time in µs: a span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string][]float64{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.EndNS-s.StartNS-covered[i])/1e3)
	}
	out := map[string]float64{}
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// httpSpans records one gateway.http span per traced round trip, with the
// children the response already carries: tenant.route from elapsed_us
// (centred in the round trip, since the response does not say when it
// started) and the router stages from decision.trace, laid end to end.
func (t *tracer) httpSpans(recs []reqRecord) {
	for _, r := range recs {
		start := r.start.UnixNano()
		root := t.add("gateway.http", start, start+r.lat.Nanoseconds(), -1, r.slot)
		elapsed := r.elapsedUS * 1e3
		at := start + (r.lat.Nanoseconds()-elapsed)/2
		route := t.add("tenant.route", at, at+elapsed, root, r.slot)
		if r.trace == nil {
			continue
		}
		for _, st := range traceStages(r.trace) {
			t.add("router."+st.name, at, at+st.ns, route, r.slot)
			at += st.ns
		}
	}
}

type stage struct {
	name string
	ns   int64
}

// traceStages lists a RouteTrace's stages in router.go's order.
func traceStages(tr *gddr.RouteTrace) []stage {
	return []stage{
		{"queue_wait", tr.QueueWaitNS},
		{"observe", tr.ObserveNS},
		{"forward", tr.ForwardNS},
		{"strategy", tr.StrategyNS},
		{"evaluate", tr.EvaluateNS},
	}
}

func stagesSum(tr *gddr.RouteTrace) int64 {
	var sum int64
	for _, st := range traceStages(tr) {
		sum += st.ns
	}
	return sum
}

// replay executes the serving pipeline itself, stage by stage in router.go's
// order and without its caches, over stream slots [0, upTo): observation,
// forward pass, action-to-weight mapping, strategy build, load propagation.
// It returns the MLU of every route slot and records one span per stage
// call for the slots from spansFrom on.
func replay(in *inputs, model []byte, upTo, spansFrom int, t *tracer) (map[int]float64, error) {
	pol, params, err := loadPolicy(model)
	if err != nil {
		return nil, err
	}
	state := &netState{g: in.graph}
	zero := gddr.DemandMatrix{N: in.graph.NumNodes(), Data: make([]float64, in.graph.NumNodes()*in.graph.NumNodes())}
	var hist []*gddr.DemandMatrix
	var ob env.Observer
	mlus := make(map[int]float64, upTo)

	for slot := 0; slot < upTo; slot++ {
		o := in.at(slot)
		switch o.kind {
		case opEvent:
			if err := state.apply(o); err != nil {
				return nil, err
			}
			continue
		case opSwap:
			if err := nn.LoadParams(bytes.NewReader(model), params); err != nil {
				return nil, err
			}
			continue
		}
		g := state.g
		dm := in.matrices[o.dm]
		n, ne := g.NumNodes(), g.NumEdges()
		var marks [6]time.Time
		marks[0] = time.Now()

		obs, err := ob.Observe(g, env.HistoryWindow(hist, modelMemory, &zero))
		if err != nil {
			return nil, err
		}
		marks[1] = time.Now()
		action, err := rl.MeanAction(pol, obs)
		if err != nil {
			return nil, err
		}
		marks[2] = time.Now()
		base := g.InverseCapacityWeights()
		weights := make([]float64, ne)
		for ei, a := range action {
			weights[ei] = env.WeightFromAction(base[ei], servingWeightScale, a)
		}
		marks[3] = time.Now()
		strat, err := routing.NewStrategy(g, weights, servingGamma)
		if err != nil {
			return nil, err
		}
		marks[4] = time.Now()
		loads, inflow := make([]float64, ne), make([]float64, n)
		for sink := 0; sink < n; sink++ {
			if dm.InSum(sink) == 0 {
				continue
			}
			rt, err := strat.Ratios(sink)
			if err != nil {
				return nil, err
			}
			if err := rt.AccumulateLoads(g, dm, loads, inflow); err != nil {
				return nil, err
			}
		}
		mlu := 0.0
		for ei, l := range loads {
			mlu = math.Max(mlu, l/g.Edge(ei).Capacity)
		}
		marks[5] = time.Now()
		mlus[slot] = mlu

		hist = append(hist, dm)
		if len(hist) > modelMemory {
			hist = hist[1:]
		}
		if slot >= spansFrom {
			root := t.add("replay.request", marks[0].UnixNano(), marks[5].UnixNano(), -1, slot)
			for i, name := range []string{"observe", "forward", "weights", "strategy", "evaluate"} {
				t.add("replay."+name, marks[i].UnixNano(), marks[i+1].UnixNano(), root, slot)
			}
		}
	}
	return mlus, nil
}

// compareReplay asserts the replayed MLU equals the served one on every
// recorded request, to 1e-9 relative: the replay provably times the same
// computation the program served.
func compareReplay(name string, recs []reqRecord, mlus map[int]float64) []string {
	var out []string
	for _, r := range recs {
		want, ok := mlus[r.slot]
		if !ok {
			out = append(out, fmt.Sprintf("%s slot %d: no replayed decision", name, r.slot))
		} else if math.Abs(want-r.mlu) > 1e-9*math.Abs(want) {
			out = append(out, fmt.Sprintf("%s slot %d: served MLU %v, replay %v", name, r.slot, r.mlu, want))
		}
		if len(out) >= 10 {
			break
		}
	}
	return out
}

// reconciliation sets the end-to-end latency of a traced workload against
// its layers, all medians in µs over the same requests. Every remainder is
// named, so unexplained time is itself a finding (ROADMAP 1d).
type reconciliation struct {
	Requests int `json:"requests"`

	// HTTP side: client round trip, what the server says tenant.Route took,
	// and what the router's stages account for inside that.
	HTTPRoundTripUS   float64 `json:"http_round_trip_p50_us"`
	ServerElapsedUS   float64 `json:"server_elapsed_p50_us"`
	GatewaySelfUS     float64 `json:"gateway_self_p50_us"`
	HTTPStagesUS      float64 `json:"http_stages_sum_p50_us"`
	HTTPUnaccountedUS float64 `json:"server_elapsed_minus_stages_p50_us"`

	// Library side: Tenant.Route as the caller times it against the stages
	// its trace reports.
	LibRouteUS          float64 `json:"lib_route_p50_us"`
	LibStagesUS         float64 `json:"lib_stages_sum_p50_us"`
	RouterUnexplainedUS float64 `json:"router_unexplained_p50_us"`

	// The benchmark's own execution of the pipeline, caches off.
	ReplayUS      float64            `json:"replay_sum_p50_us"`
	ReplayStageUS map[string]float64 `json:"replay_stage_p50_us"`

	// StageUS is the per-stage median the program's traces report (lib).
	StageUS map[string]float64 `json:"router_stage_p50_us"`
	// SelfUS is every span name's median self time.
	SelfUS map[string]float64 `json:"span_self_p50_us"`
	Note   string             `json:"note"`
}

// reconcile builds the reconciliation block from the traced lib and http
// records and the spans.
func reconcile(lib, http []reqRecord, t *tracer) *reconciliation {
	rec := &reconciliation{Requests: len(http), StageUS: map[string]float64{}, ReplayStageUS: map[string]float64{},
		Note: "gateway_self = round trip - elapsed_us; router_unexplained = Tenant.Route - (queue wait + stages); " +
			"the replay runs every stage on every request, so on a workload whose caches hit it exceeds the served stages by the work the caches saved"}
	var rt, el, self, hs, hu []float64
	for _, r := range http {
		rt = append(rt, float64(r.lat.Nanoseconds())/1e3)
		el = append(el, float64(r.elapsedUS))
		self = append(self, float64(r.lat.Nanoseconds())/1e3-float64(r.elapsedUS))
		if r.trace != nil {
			sum := float64(stagesSum(r.trace)) / 1e3
			hs = append(hs, sum)
			hu = append(hu, float64(r.elapsedUS)-sum)
		}
	}
	rec.HTTPRoundTripUS, rec.ServerElapsedUS, rec.GatewaySelfUS = median(rt), median(el), median(self)
	rec.HTTPStagesUS, rec.HTTPUnaccountedUS = median(hs), median(hu)

	var lr, ls, lu []float64
	stages := map[string][]float64{}
	for _, r := range lib {
		if r.trace == nil {
			continue
		}
		sum := float64(stagesSum(r.trace)) / 1e3
		lat := float64(r.lat.Nanoseconds()) / 1e3
		lr, ls, lu = append(lr, lat), append(ls, sum), append(lu, lat-sum)
		for _, st := range traceStages(r.trace) {
			stages[st.name] = append(stages[st.name], float64(st.ns)/1e3)
		}
	}
	rec.LibRouteUS, rec.LibStagesUS, rec.RouterUnexplainedUS = median(lr), median(ls), median(lu)
	for name, xs := range stages {
		rec.StageUS[name] = median(xs)
	}

	byName := map[string][]float64{}
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.EndNS-s.StartNS)/1e3)
	}
	rec.ReplayUS = median(byName["replay.request"])
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if stage, ok := strings.CutPrefix(name, "replay."); ok && stage != "request" {
			rec.ReplayStageUS[stage] = median(byName[name])
		}
	}
	rec.SelfUS = t.selfTimes()
	return rec
}
