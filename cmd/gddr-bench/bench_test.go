package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"gddr"
)

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesCatalogue pins BENCHMARK.json to the names the program
// emits and to the limits of the benchmark contract.
func TestContractMatchesCatalogue(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	contract, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(contract.Workloads, workloadDefs) {
		t.Errorf("BENCHMARK.json workloads differ from the catalogue:\n%v\n%v", contract.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end differs from the catalogue:\n%v\n%v", contract.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalogue")
	}
	if want := []string{"cmd/gddr-bench", "bench"}; !reflect.DeepEqual(contract.Paths, want) {
		t.Errorf("paths = %v, want %v", contract.Paths, want)
	}
	if contract.RunSeconds < 1 || contract.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", contract.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !namePattern.MatchString(n) {
			t.Errorf("name %q does not match %v", n, namePattern)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := workloadSpecs[w.Name]; !ok {
			t.Errorf("workload %s has no spec", w.Name)
		}
	}
	var setup metricDef
	for _, m := range endToEndDefs {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be in s and better lower, got %+v", setup)
	}
	for _, m := range endToEndDefs {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if len(perLayerDefs) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayerDefs))
	}
	for _, m := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !unitPattern.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitPattern)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayerDefs {
		name(m.Name)
	}
}

// TestInputsArePureFunctionsOfSeed generates every workload twice from one
// seed and once from another.
func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	for _, w := range workloadDefs {
		a, err := newInputs(w.Name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newInputs(w.Name, 7)
		c, _ := newInputs(w.Name, 8)
		if !reflect.DeepEqual(a.bodies, b.bodies) || a.link != b.link {
			t.Errorf("%s: two generations from seed 7 differ", w.Name)
		}
		if reflect.DeepEqual(a.bodies, c.bodies) {
			t.Errorf("%s: seeds 7 and 8 generate the same matrices", w.Name)
		}
		for i, item := range a.train.Items {
			if !reflect.DeepEqual(item.Sequences, b.train.Items[i].Sequences) {
				t.Errorf("%s: training scenario differs between generations", w.Name)
			}
		}
		for i := 0; i < 600; i++ {
			if !reflect.DeepEqual(a.at(i), b.at(i)) {
				t.Fatalf("%s: stream slot %d differs between generations", w.Name, i)
			}
		}
	}
}

// TestLiveopsStream checks the shape the workload promises: one control
// operation after every 25 routes, cycling through the four kinds, and
// demand that changes every 8 routes.
func TestLiveopsStream(t *testing.T) {
	in, err := newInputs("liveops", 1)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	routes := 0
	last, run := -1, 0
	for i := 0; i < 26*8; i++ {
		o := in.at(i)
		switch {
		case o.kind == opRoute:
			routes++
			if o.dm == last {
				run++
			} else {
				if last >= 0 && run != 8 {
					t.Fatalf("matrix %d was held for %d routes, want 8", last, run)
				}
				last, run = o.dm, 1
			}
		case i%26 != 25:
			t.Fatalf("slot %d is an operation", i)
		case o.kind == opSwap:
			kinds = append(kinds, "swap")
		default:
			kinds = append(kinds, o.event.Kind())
		}
	}
	want := []string{"capacity_change", "link_down", "link_up", "swap", "capacity_change", "link_down", "link_up", "swap"}
	if !reflect.DeepEqual(kinds, want) || routes != 25*8 {
		t.Errorf("operations %v over %d routes, want %v over %d", kinds, routes, want, 25*8)
	}
	// The whole cycle must be applicable: the link's loss keeps the graph
	// connected and link_up restores what link_down removed.
	state := &netState{g: in.graph}
	for i := 0; i < 26*8; i++ {
		if o := in.at(i); o.kind != opRoute {
			if err := state.apply(o); err != nil {
				t.Fatalf("slot %d: %v", i, err)
			}
		}
	}
	if state.g.NumEdges() != in.graph.NumEdges() || state.swaps != 2 {
		t.Errorf("after two cycles: %d edges (want %d), %d swaps (want 2)", state.g.NumEdges(), in.graph.NumEdges(), state.swaps)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_rps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	noisy := []float64{100, 140, 70, 100, 130, 60}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		m          metricDef
		base, next []float64
		want       string
	}{
		{lower, steady, scale(steady, 1.05), "unchanged"},
		{lower, steady, scale(steady, 1.20), "REGRESSED"},
		{lower, steady, scale(steady, 0.80), "improved"},
		{higher, steady, scale(steady, 0.80), "REGRESSED"},
		{higher, steady, scale(steady, 1.20), "improved"},
		{lower, noisy, scale(noisy, 1.20), "unresolved"},
		{lower, steady[:1], steady[:1], "unresolved"},
	} {
		if got, _, _ := judge(tc.m, tc.base, tc.next); got != tc.want {
			t.Errorf("judge(%s, x%.2f) = %s, want %s", tc.m.Name, median(tc.next)/median(tc.base), got, tc.want)
		}
	}
}

// TestCheckDecision serves one real decision and checks that the checker
// accepts it and rejects it once its splits or its MLU are tampered with.
func TestCheckDecision(t *testing.T) {
	in, err := newInputs("liveops", 1)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := gddr.NewAgent(gddr.GNNPolicy, nil, gddr.WithMemory(modelMemory), gddr.WithGNNSize(modelHidden, modelSteps))
	if err != nil {
		t.Fatal(err)
	}
	router, err := gddr.NewRouter(agent, in.graph)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	dm := in.matrices[0]
	d, err := router.Route(context.Background(), dm)
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkDecision(in.graph, dm, d); msg != "" {
		t.Fatalf("a served decision was rejected: %s", msg)
	}
	for sink := range d.Splits {
		for ei := range d.Splits[sink] {
			d.Splits[sink][ei] *= 0.5
		}
		break
	}
	if checkDecision(in.graph, dm, d) == "" {
		t.Error("halved splits were accepted")
	}
	d.MaxUtilization = math.NaN()
	if checkDecision(in.graph, dm, d) == "" {
		t.Error("a NaN max utilisation was accepted")
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke scale: every
// phase including the server spawn, the replay and the layer loops. The
// metric sets it emits must be exactly the ones BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns gddr-serve")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{root: root, sc: smokeScale()}
	if b.serverBin, b.buildTime, err = buildServer(root); err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, traced := range []bool{false, true} {
		b.traced = traced
		defs := endToEndDefs
		if traced {
			defs = perLayerDefs
		}
		for _, w := range workloadDefs {
			rec, err := b.runWorkload(context.Background(), w.Name, 1)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, attempted %d, failed %d: %v", w.Name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Violations)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics emitted, %d listed", w.Name, traced, len(rec.Metrics), len(defs))
			}
			for _, def := range defs {
				v, ok := rec.Metrics[def.Name]
				if !ok || v.Unit != def.Unit {
					t.Errorf("%s (traced %v): metric %s missing or in unit %q", w.Name, traced, def.Name, v.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, def.Name, v.Value)
				}
			}
			if traced {
				if rec.Reconciliation == nil || rec.Reconciliation.Requests == 0 {
					t.Errorf("%s: traced run has no reconciliation block", w.Name)
				}
				if rec.Digest != digests[w.Name] {
					t.Errorf("%s: traced digest %s differs from the timed run's %s", w.Name, rec.Digest, digests[w.Name])
				}
			} else {
				digests[w.Name] = rec.Digest
			}
			var buf bytes.Buffer
			for name := range rec.Absent {
				buf.WriteString(name + " ")
			}
			if buf.Len() > 0 {
				t.Errorf("%s: metrics reported absent on the seed tree: %s", w.Name, buf.String())
			}
		}
	}
}
