package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// committedModel is the trained GNN checkpoint the serving workloads load
// (see bench/testdata/PROVENANCE), relative to the repository root.
const committedModel = "bench/testdata/model_gnn_m3_h16.json"

// bench holds what every workload of one invocation shares.
type bench struct {
	root      string
	sc        scale
	traced    bool
	saveModel string
	serverBin string
	buildTime time.Duration
	env       environment
}

// model returns the checkpoint a workload serves: the committed one, or for
// a workload that deploys its own agent the one its research stage trained.
// path is where a server can load it from.
func (b *bench) model(in *inputs, research *researchResult) (path string, data []byte, err error) {
	if !in.spec.ownModel {
		path = filepath.Join(b.root, committedModel)
		data, err = os.ReadFile(path)
		return path, data, err
	}
	path = filepath.Join(b.root, buildDir, fmt.Sprintf("model_%s_%d.json", in.spec.name, os.Getpid()))
	return path, research.model, os.WriteFile(path, research.model, 0o644)
}

// runWorkload runs one workload once, untraced or traced.
func (b *bench) runWorkload(ctx context.Context, name string, seed int64) (*runRecord, error) {
	in, err := newInputs(name, seed)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{
		Workload: name, Seed: seed, Seconds: b.sc.seconds, Smoke: b.sc.smoke,
		Env:     b.env,
		Metrics: map[string]metricValue{}, Samples: map[string]int{},
	}
	research, err := runResearch(ctx, in, in.trainSteps(b.sc))
	if err != nil {
		return nil, err
	}
	rec.Research = research
	if b.saveModel != "" && in.spec.ownModel {
		if err := os.WriteFile(b.saveModel, research.model, 0o644); err != nil {
			return nil, err
		}
	}
	modelPath, model, err := b.model(in, research)
	if err != nil {
		return nil, err
	}
	if in.spec.ownModel {
		defer os.Remove(modelPath)
	}

	if b.traced {
		rec.Trace = 1
		err = b.runTraced(ctx, rec, in, research, modelPath, model)
	} else {
		err = b.runTimed(ctx, rec, in, research, modelPath, model)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range rec.Phases {
		rec.Attempted += p.Attempted
		rec.Failed += p.Failed + p.Shed
		rec.Shed += p.Shed
		rec.Violations = append(rec.Violations, p.violations...)
	}
	rec.Correct = len(rec.Violations) == 0
	return rec, nil
}

// runTimed is the untraced run: it fills in every end-to-end metric.
func (b *bench) runTimed(ctx context.Context, rec *runRecord, in *inputs, research *researchResult, modelPath string, model []byte) error {
	s, err := runServing(ctx, in.spec.name, in.seed, b.serverBin, modelPath, model, b.sc)
	if err != nil {
		return err
	}
	rec.Phases = []*phaseResult{s.lib, s.http}
	ops := s.lib
	if s.probe != nil {
		rec.Phases = append(rec.Phases, s.probe)
		ops = s.probe
	}
	rec.Digest = s.lib.Digest
	if s.http.Digest != s.lib.Digest {
		rec.Violations = append(rec.Violations,
			fmt.Sprintf("the http phase's decision digest %s differs from the lib phase's %s on the same stream", s.http.Digest, s.lib.Digest))
	}

	setupMedian := func(part func(setupSample) time.Duration) float64 {
		var xs []float64
		for _, x := range s.setups {
			xs = append(xs, part(x).Seconds())
		}
		return median(xs)
	}
	rec.Setup = map[string]float64{
		"inputs_and_agent": setupMedian(func(x setupSample) time.Duration { return x.inputs }),
		"fleet_and_tenant": setupMedian(func(x setupSample) time.Duration { return x.fleet }),
		"server_boot":      setupMedian(func(x setupSample) time.Duration { return x.boot }),
		"warm_up":          setupMedian(func(x setupSample) time.Duration { return x.warmup }),
	}

	set := func(name string, v float64) {
		def, _ := findMetric(endToEndDefs, name)
		rec.Metrics[name] = metricValue{Value: v, Unit: def.Unit}
	}
	set("setup_s", setupMedian(func(x setupSample) time.Duration { return x.total }))
	// The p99s are recorded with their phases but are not end-to-end
	// metrics: they follow the host's state too closely to gate a change
	// (bench/README.md, Calibration). The traced run reports them by layer.
	rps, p50, p99 := s.lib.quietQuartile()
	set("route_rps", rps)
	set("route_p50_us", p50)
	s.lib.P99US = p99
	rps, p50, p99 = s.http.quietQuartile()
	set("http_rps", rps)
	set("http_p50_us", p50)
	s.http.P99US = p99
	// The lower quartile, not the median: see bench/README.md, Calibration.
	set("apply_p25_us", quantileOf(ops.applyLat, 0.25)/1e3)
	set("swap_p25_ms", quantileOf(ops.swapLat, 0.25)/1e6)
	set("train_steps_per_s", research.StepsPerS)
	if in.spec.ownModel {
		// The paper's headline number: the just-trained agent on held-out
		// sequences, relative to the LP optimum.
		set("mlu_ratio", research.EvalRatio)
	} else {
		set("mlu_ratio", s.mluRatio)
	}

	rec.Samples["setup_s"] = len(s.setups)
	rec.Samples["route_p50_us"] = s.lib.Routes
	rec.Samples["http_p50_us"] = s.http.Routes
	rec.Samples["apply_p25_us"] = len(ops.applyLat)
	rec.Samples["swap_p25_ms"] = len(ops.swapLat)
	rec.Samples["mlu_ratio"] = s.quality
	rec.Samples["train_steps_per_s"] = research.Steps
	return nil
}
