package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"gddr"
	"gddr/internal/metrics"
	"gddr/internal/rl"
)

// researchResult is the outcome of the training side of a workload.
type researchResult struct {
	Steps            int     `json:"steps"`
	PrewarmS         float64 `json:"prewarm_s"`
	PrewarmReps      int     `json:"prewarm_reps"`
	Solved           int     `json:"lp_solved"`
	TrainS           float64 `json:"train_s"`
	StepsPerS        float64 `json:"steps_per_s"`
	OverallStepsPerS float64 `json:"overall_steps_per_s"`
	RolloutPeriods   int     `json:"rollout_periods"`
	EvalRatio        float64 `json:"eval_mlu_ratio"`
	EvalS            float64 `json:"eval_s"`
	SaveMS           float64 `json:"save_ms"`
	LoadMS           float64 `json:"load_ms"`
	PeakRSSMB        float64 `json:"peak_rss_mb"`
	model            []byte
	// points is the research registry's final snapshot. The registry itself
	// is dropped with the stage: it keeps the LP cache reachable, and a hundred
	// megabytes of live heap left behind would set the collector's pacing for
	// the serving phases that follow.
	points []metrics.Point
	spans  []span
}

// agentSeed seeds every research agent, whatever --seed is. The agent's seed
// orders the episodes, and with them the share of Géant steps in each
// rollout, which cost three times an Abilene step: drawn from --seed it moved
// train_steps_per_s by a tenth between seeds on unchanged code. --seed
// generates what the agent is given, the sequences; how it trains is fixed.
const agentSeed = 1

// newResearchAgent builds the untrained GNN PPO agent every research stage
// trains: the serving model shape, two rollout workers.
func newResearchAgent(steps int, reg *metrics.Registry, extra ...gddr.Option) (*gddr.Agent, error) {
	opts := []gddr.Option{
		gddr.WithMemory(modelMemory),
		gddr.WithGNNSize(modelHidden, modelSteps),
		gddr.WithSeed(agentSeed),
		gddr.WithTotalSteps(steps),
		gddr.WithRolloutWorkers(2),
	}
	if reg != nil {
		opts = append(opts, gddr.WithMetrics(reg))
	}
	return gddr.NewAgent(gddr.GNNPolicy, nil, append(opts, extra...)...)
}

// runResearch prewarms a cold LP cache over the train and held-out
// scenarios, trains a fresh agent for steps PPO steps, evaluates it on the
// held-out scenario and serialises it. Each stage is one span.
func runResearch(ctx context.Context, in *inputs, steps int) (*researchResult, error) {
	res := &researchResult{}
	reg := metrics.NewRegistry()
	// Episodes are reported once per rollout, right after its collection, so
	// the first report of each rollout marks one full collect+update period.
	rollout := rl.DefaultConfig().RolloutSteps
	var marks []time.Time
	last := -1
	agent, err := newResearchAgent(steps, reg, gddr.WithProgress(func(p gddr.Progress) {
		if p.Stage != "train" || p.Episode == nil {
			return
		}
		if r := (p.Step - 1) / rollout; r != last {
			last = r
			marks = append(marks, time.Now())
		}
	}))
	if err != nil {
		return nil, err
	}
	all := &gddr.Scenario{Items: append(append([]gddr.ScenarioItem(nil), in.train.Items...), in.test.Items...)}
	cache := gddr.NewOptimalCache()

	timed := func(name string, fn func() error) (float64, error) {
		start := time.Now()
		err := fn()
		end := time.Now()
		res.spans = append(res.spans, span{Name: name, StartNS: start.UnixNano(), EndNS: end.UnixNano()})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return end.Sub(start).Seconds(), nil
	}

	// Prewarm is fast on a small scenario, so it is repeated, each time into
	// a cold cache, until it has run five times and for a second (40 times
	// at most); prewarm_s is the median. The last repetition's cache, instrumented on
	// the agent's registry, is the one training uses.
	var prewarms []float64
	for total := 0.0; len(prewarms) < 4 || (total < 1 && len(prewarms) < 39); {
		cold := gddr.NewOptimalCache()
		s, err := timed("train.prewarm", func() error {
			_, err := gddr.Prewarm(ctx, all, cold)
			return err
		})
		if err != nil {
			return nil, err
		}
		prewarms = append(prewarms, s)
		total += s
	}
	s, err := timed("train.prewarm", func() error {
		res.Solved, err = gddr.Prewarm(ctx, all, cache, gddr.WithMetrics(reg))
		return err
	})
	if err != nil {
		return nil, err
	}
	res.PrewarmS = median(append(prewarms, s))
	res.PrewarmReps = len(prewarms) + 1
	if res.TrainS, err = timed("train.train", func() error {
		_, err := agent.Train(ctx, in.train, cache)
		return err
	}); err != nil {
		return nil, err
	}
	res.Steps = agent.TrainedSteps()
	res.OverallStepsPerS = float64(res.Steps) / res.TrainS
	res.StepsPerS = res.OverallStepsPerS
	// With enough rollouts the rate is the rollout size over the lower-quartile
	// rollout period: a disturbed stretch of training only lengthens periods,
	// and the quartile on the fast side does not see it.
	var periods []float64
	for i := 1; i < len(marks); i++ {
		periods = append(periods, marks[i].Sub(marks[i-1]).Seconds())
	}
	if res.RolloutPeriods = len(periods); len(periods) >= 3 {
		res.StepsPerS = float64(rollout) / quantileOf(periods, 0.25)
	}
	if res.EvalS, err = timed("train.evaluate", func() error {
		res.EvalRatio, err = agent.Evaluate(ctx, in.test, cache)
		return err
	}); err != nil {
		return nil, err
	}

	// Save and load are milliseconds, so each is the median of five.
	var saves, loads []float64
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		buf.Reset()
		s, err := timed("checkpoint.save", func() error { return agent.Save(&buf) })
		if err != nil {
			return nil, err
		}
		l, err := timed("checkpoint.load", func() error { return agent.Load(bytes.NewReader(buf.Bytes())) })
		if err != nil {
			return nil, err
		}
		saves, loads = append(saves, s*1e3), append(loads, l*1e3)
	}
	res.SaveMS, res.LoadMS = median(saves), median(loads)
	res.model = append([]byte(nil), buf.Bytes()...)
	res.points = reg.Snapshot()
	if rss, err := peakRSSMB(os.Getpid()); err == nil {
		res.PeakRSSMB = rss
	}
	return res, nil
}
