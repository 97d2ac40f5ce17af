package gddr

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Report is the uniform, JSON-serialisable result of a registered
// experiment: scalar metrics plus optional learning curves. Every
// experiment returns one, so downstream tooling (figure regeneration,
// dashboards, regression tracking) consumes a single shape.
type Report struct {
	// Experiment is the registered name that produced this report.
	Experiment string `json:"experiment"`
	// Description is the experiment's registered one-line description.
	Description string `json:"description,omitempty"`
	// Options are the resolved experiment options the run used.
	Options ExperimentOptions `json:"options"`
	// Metrics holds the scalar results, keyed by snake_case metric name.
	Metrics map[string]float64 `json:"metrics"`
	// Curves holds per-episode learning curves, keyed by series name.
	Curves map[string][]EpisodeStat `json:"curves,omitempty"`
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// MetricNames returns the metric keys in sorted order.
func (r *Report) MetricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CurveNames returns the curve keys in sorted order.
func (r *Report) CurveNames() []string {
	names := make([]string, 0, len(r.Curves))
	for name := range r.Curves {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// String renders a human-readable summary: one line per metric, sorted.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment %s (%s)\n", r.Experiment, r.Elapsed.Round(time.Millisecond))
	for _, name := range r.MetricNames() {
		fmt.Fprintf(&b, "  %-32s %12.4f\n", name, r.Metrics[name])
	}
	for _, name := range r.CurveNames() {
		fmt.Fprintf(&b, "  curve %-26s %5d episodes\n", name, len(r.Curves[name]))
	}
	return b.String()
}

// ExperimentFunc runs one registered experiment. Implementations must
// honour ctx cancellation and may emit progress reports through progress
// (which may be nil). The returned report needs only Metrics and Curves
// filled in; RunExperiment stamps the identification fields.
type ExperimentFunc func(ctx context.Context, opts ExperimentOptions, progress ProgressFunc) (*Report, error)

// Experiment is a named, registered experiment.
type Experiment struct {
	Name        string
	Description string
	Run         ExperimentFunc `json:"-"`
}

var experimentRegistry = struct {
	sync.RWMutex
	m map[string]Experiment // guarded by RWMutex
}{m: make(map[string]Experiment)}

// RegisterExperiment adds an experiment to the registry. Registering an
// empty name, a nil Run, or a duplicate name is an error.
func RegisterExperiment(exp Experiment) error {
	if exp.Name == "" {
		return fmt.Errorf("gddr: experiment needs a name")
	}
	if exp.Run == nil {
		return fmt.Errorf("gddr: experiment %q needs a run function", exp.Name)
	}
	experimentRegistry.Lock()
	defer experimentRegistry.Unlock()
	if _, dup := experimentRegistry.m[exp.Name]; dup {
		return fmt.Errorf("gddr: experiment %q already registered", exp.Name)
	}
	experimentRegistry.m[exp.Name] = exp
	return nil
}

func mustRegisterExperiment(exp Experiment) {
	if err := RegisterExperiment(exp); err != nil {
		panic(err)
	}
}

// Experiments lists the registered experiments sorted by name.
func Experiments() []Experiment {
	experimentRegistry.RLock()
	defer experimentRegistry.RUnlock()
	out := make([]Experiment, 0, len(experimentRegistry.m))
	for _, exp := range experimentRegistry.m {
		out = append(out, exp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RunExperiment runs the named experiment with options layered over the
// scaled-down defaults — e.g.
//
//	report, err := gddr.RunExperiment(ctx, "figure6",
//	        gddr.WithSeed(7), gddr.WithTotalSteps(8000),
//	        gddr.WithProgress(report))
//
// Use WithPaperScale for the paper's full-scale settings. The run honours
// ctx cancellation at every PPO rollout and LP solve.
func RunExperiment(ctx context.Context, name string, opts ...Option) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	experimentRegistry.RLock()
	exp, ok := experimentRegistry.m[name]
	experimentRegistry.RUnlock()
	if !ok {
		known := Experiments()
		names := make([]string, len(known))
		for i, e := range known {
			names[i] = e.Name
		}
		return nil, fmt.Errorf("gddr: unknown experiment %q (registered: %s)", name, strings.Join(names, ", "))
	}
	s := newSettings(GNNPolicy).apply(opts)
	if len(s.cfgOnly) > 0 {
		// Experiments build their agents from ExperimentOptions; silently
		// dropping agent-construction options would let callers believe a
		// hyperparameter they set influenced the results.
		return nil, fmt.Errorf("gddr: experiment %s does not accept agent-construction options (%s); use NewAgent for those",
			name, strings.Join(s.cfgOnly, ", "))
	}
	start := time.Now()
	report, err := exp.Run(ctx, s.exp, s.progress)
	if err != nil {
		return nil, fmt.Errorf("gddr: experiment %s: %w", name, err)
	}
	if report == nil {
		return nil, fmt.Errorf("gddr: experiment %s returned no report", name)
	}
	report.Experiment = exp.Name
	report.Description = exp.Description
	report.Options = s.exp
	report.Elapsed = time.Since(start)
	return report, nil
}

// stagedProgress prefixes progress reports with an experiment stage name,
// so nested training/evaluation reports identify which sub-run they
// belong to ("figure6/gnn/train", ...).
func stagedProgress(fn ProgressFunc, stage string) ProgressFunc {
	if fn == nil {
		return nil
	}
	return func(p Progress) {
		if p.Stage != "" {
			p.Stage = stage + "/" + p.Stage
		} else {
			p.Stage = stage
		}
		fn(p)
	}
}
