package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is where a run was measured.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

// runRecord is the full record of one run of one workload: what a record
// file accumulates and -compare reads.
type runRecord struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    int         `json:"trace"`
	Seconds  float64     `json:"seconds"`
	Smoke    bool        `json:"smoke,omitempty"`
	Env      environment `json:"environment"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"` // failed + shed, as the contract counts them
	Shed      int  `json:"shed"`

	Metrics map[string]metricValue `json:"metrics"`
	// Absent names per-layer metrics reported as 0 because the instrument
	// they read is gone or does not apply, with the reason.
	Absent map[string]string `json:"absent,omitempty"`
	// Samples is the number of observations behind each percentile.
	Samples map[string]int `json:"samples"`

	Phases         []*phaseResult     `json:"phases"`
	Digest         string             `json:"decision_digest"`
	Research       *researchResult    `json:"research,omitempty"`
	Setup          map[string]float64 `json:"setup_breakdown_s,omitempty"`
	Reconciliation *reconciliation    `json:"reconciliation,omitempty"`
	Counts         map[string]int64   `json:"exact_counts,omitempty"`
	Violations     []string           `json:"violations,omitempty"`
	WallS          float64            `json:"wall_s"`
}

// recordFile is the on-disk form: every run appended so far.
type recordFile struct {
	Benchmark string       `json:"benchmark"`
	Runs      []*runRecord `json:"runs"`
}

func readRecords(path string) (*recordFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f recordFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendRecord adds r to the record file at path, creating it if needed.
func appendRecord(path string, r *runRecord) error {
	f, err := readRecords(path)
	if errors.Is(err, fs.ErrNotExist) {
		f = &recordFile{}
	} else if err != nil {
		return err
	}
	f.Benchmark = "gddr-bench"
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readEnvironment describes the machine and checkout. The commit is empty
// outside a git checkout, which is where the benchmark's driver runs.
func readEnvironment(root string) environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

// benchmarkFile is BENCHMARK.json, the contract -compare judges against.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// series collects, per workload and metric, the values of the untraced
// (end-to-end) or traced (per-layer) runs of a record file.
func (f *recordFile) series(trace int) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace != trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// compareRecords prints, for every (end-to-end metric, workload) pair, the
// new median as a ratio of the base median, judged against the bound in
// BENCHMARK.json. A pair is "unresolved" when the base's own run-to-run
// spread (quartile distance over median; range over median below four
// runs) exceeds the bound, so the comparison cannot tell a change from
// noise. It returns an error when any pair regressed.
func compareRecords(w io.Writer, basePath, newPath string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	contract, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	next, err := readRecords(newPath)
	if err != nil {
		return err
	}
	bs, ns := base.series(0), next.series(0)
	fmt.Fprintf(w, "%-10s %-20s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "base median", "new median", "ratio", "spread", "bound", "verdict")
	regressed := 0
	for _, wl := range contract.Workloads {
		for _, m := range contract.EndToEnd {
			b, n := bs[wl.Name][m.Name], ns[wl.Name][m.Name]
			if len(b) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-10s %-20s %14s %14s %8s %7s %7.2f  missing\n", wl.Name, m.Name, "-", "-", "-", "-", m.Bound)
				continue
			}
			verdict, ratio, spread := judge(m, b, n)
			if verdict == "REGRESSED" {
				regressed++
			}
			fmt.Fprintf(w, "%-10s %-20s %14.6g %14.6g %8.4f %7.4f %7.2f  %s (n=%d vs %d, %s)\n",
				wl.Name, m.Name, median(b), median(n), ratio, spread, m.Bound, verdict, len(b), len(n), m.Unit)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed beyond their bound", regressed)
	}
	return nil
}

// judge compares the new values of one metric on one workload with the
// base's. ratio is new median over base median.
func judge(m metricDef, base, next []float64) (verdict string, ratio, spread float64) {
	bm, nm := median(base), median(next)
	if bm == 0 {
		return "unresolved", 0, 0
	}
	ratio = nm / bm
	if len(base) >= 4 {
		spread = quartileSpread(base)
	} else {
		spread = (slices.Max(base) - slices.Min(base)) / bm
	}
	worse := ratio - 1 // share by which the metric got worse
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case len(base) < 2 || spread > m.Bound:
		return "unresolved", ratio, spread
	case worse > m.Bound:
		return "REGRESSED", ratio, spread
	case worse < -m.Bound:
		return "improved", ratio, spread
	}
	return "unchanged", ratio, spread
}
