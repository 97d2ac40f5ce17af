// Command gddr-bench is the repository's benchmark: four named workloads,
// nine end-to-end metrics, a per-layer catalogue and a traced run. It
// measures every layer from outside — timing calls into public functions
// and reading the surfaces the program already exposes — and changes
// nothing it measures. bench/README.md documents every name it prints.
//
//	gddr-bench -workload <steady|shifting|liveops|train|all> -seed 1 -seconds 24 -trace 0
//	gddr-bench -workload all -trace 1 -record bench/results/run.json
//	gddr-bench -compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: every end-to-end metric with
// -trace 0, every per-layer metric with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gddr-bench:", err)
		os.Exit(1)
	}
}

// ballast is dead weight on the benchmark's own heap. The collector starts a
// cycle when the heap has doubled, so without it the lib phases' pacing
// follows whatever the earlier stages happen to leave reachable: with a few
// megabytes live the collector ran a thousand times in a run, or half that,
// and route_p99_us read 570 µs or 240 µs on the same code and seed. With the
// ballast it runs every 64 MB allocated on every workload. It holds no
// pointers and is never written, so it costs neither marking nor memory.
var ballast = make([]byte, 64<<20)

func run() error {
	defer runtime.KeepAlive(ballast)
	var (
		workload = flag.String("workload", "all", "workload to run: steady, shifting, liveops, train or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 24, "measured time per workload (phases split it; the training budget scales with it)")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "shrink every phase so a workload takes a couple of seconds")
		record   = flag.String("record", "", "append the run's full record to this JSON file")
		model    = flag.String("save-model", "", "write the agent the train workload trained to this file")
		compare  = flag.Bool("compare", false, "compare two record files: gddr-bench -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two record files")
		}
		return compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	} else if _, ok := workloadSpecs[*workload]; !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sc := fullScale(*seconds)
	if *smoke {
		sc = smokeScale()
	}
	b := &bench{root: root, sc: sc, traced: *trace == 1, saveModel: *model, env: readEnvironment(root)}
	if b.serverBin, b.buildTime, err = buildServer(root); err != nil {
		return err
	}

	correct := true
	var lines []string
	for _, name := range names {
		start := time.Now()
		r, err := b.runWorkload(ctx, name, *seed)
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		r.WallS = time.Since(start).Seconds()
		r.print(os.Stdout)
		if *record != "" {
			if err := appendRecord(*record, r); err != nil {
				return err
			}
		}
		line, err := json.Marshal(r.contractLine())
		if err != nil {
			return err
		}
		lines = append(lines, string(line))
		correct = correct && r.Correct
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if !correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// contractLine is the object the benchmark contract wants on the last line.
func (r *runRecord) contractLine() map[string]any {
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
}

// print lists every metric of the run by name with its unit, then the
// operation counts per phase, the digest and any violated check.
func (r *runRecord) print(w *os.File) {
	fmt.Fprintf(w, "== workload %s  seed %d  trace %d  (%.1fs wall)\n", r.Workload, r.Seed, r.Trace, r.WallS)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		note := ""
		if why, ok := r.Absent[name]; ok {
			note = "  (absent: " + why + ")"
		}
		fmt.Fprintf(w, "  %-34s %16.6g %s%s\n", name, v.Value, v.Unit, note)
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-10s %-32s attempted %d succeeded %d failed %d shed %d (routes %d, applies %d, swaps %d; %d decisions checked; %.2fs; p99 %.1f us)\n",
			p.Name, p.Loop, p.Attempted, p.Succeeded, p.Failed, p.Shed, p.Routes, p.Applies, p.Swaps, p.Checked, p.WallS, p.P99US)
	}
	fmt.Fprintf(w, "  decision digest %s  (sample sizes: %v)\n", r.Digest, r.Samples)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}
