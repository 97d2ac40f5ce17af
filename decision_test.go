package gddr

import (
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
)

// sameArray reports whether a and b are one slice: the same length over the
// same backing array.
func sameArray(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// bitsIdentical asserts two decisions hold the same float64 bits in every
// field, the Splits key set included.
func bitsIdentical(t *testing.T, label string, a, b *Decision) {
	t.Helper()
	same := func(name string, x, y []float64) {
		t.Helper()
		if !slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }) {
			t.Fatalf("%s: %s differs", label, name)
		}
	}
	same("gamma, MLU", []float64{a.Gamma, a.MaxUtilization}, []float64{b.Gamma, b.MaxUtilization})
	same("weights", a.Weights, b.Weights)
	same("loads", a.Loads, b.Loads)
	same("utilization", a.Utilization, b.Utilization)
	if !slices.Equal(slices.Sorted(maps.Keys(a.Splits)), slices.Sorted(maps.Keys(b.Splits))) {
		t.Fatalf("%s: splits for sinks %v vs %v", label, slices.Sorted(maps.Keys(a.Splits)), slices.Sorted(maps.Keys(b.Splits)))
	}
	for sink, row := range a.Splits {
		same(fmt.Sprintf("splits[%d]", sink), row, b.Splits[sink])
	}
}

// TestDecisionViewsStrategy pins the Decision ownership contract: Weights
// and every Splits row are views of the serving strategy, shared by every
// decision it serves, with the same bits as an uncached router's; sparse
// demand gets exactly its loaded sinks' rows, still shared; and a Clone is
// the caller's to write through without reaching the router.
func TestDecisionViewsStrategy(t *testing.T) {
	g := Abilene()
	agent := testRouterAgent(t)
	ctx := context.Background()
	cached, err := NewRouter(agent, g, WithRouterWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	uncached := newUncachedRouter(t, agent, g, WithRouterWorkers(1))
	defer uncached.Close()
	route := func(r *Router, dm *DemandMatrix) *Decision {
		t.Helper()
		d, err := r.Route(ctx, dm)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// (a) Dense demand: two cached decisions share every view.
	dm := testDemand(g, 1)
	for i := 0; i < 4; i++ { // fill the history so the window is cached
		route(cached, dm)
		route(uncached, dm)
	}
	d1, d2 := route(cached, dm), route(cached, dm)
	if len(d1.Splits) != g.NumNodes() {
		t.Fatalf("dense demand: splits for %d sinks, want %d", len(d1.Splits), g.NumNodes())
	}
	if !sameArray(d1.Weights, d2.Weights) {
		t.Error("two cached decisions hold different weights arrays")
	}
	if reflect.ValueOf(d1.Splits).UnsafePointer() != reflect.ValueOf(d2.Splits).UnsafePointer() {
		t.Error("two cached dense decisions hold different splits maps")
	}
	for sink, row := range d1.Splits {
		if !sameArray(row, d2.Splits[sink]) {
			t.Errorf("sink %d: two cached decisions hold different split rows", sink)
		}
	}
	if sameArray(d1.Loads, d2.Loads) || sameArray(d1.Utilization, d2.Utilization) {
		t.Error("two decisions share caller-owned loads or utilisation")
	}
	du := route(uncached, dm)
	bitsIdentical(t, "cached vs uncached", d1, du)
	bitsIdentical(t, "cached vs uncached", d2, du)

	// (b) One sink's column zeroed: the window is unchanged, so the same
	// strategy serves it, with rows for exactly the loaded sinks.
	sparse := dm.Clone()
	const zeroed = 3
	for s := 0; s < g.NumNodes(); s++ {
		sparse.Set(s, zeroed, 0)
	}
	ds := route(cached, sparse)
	var loaded []int
	for sink := 0; sink < g.NumNodes(); sink++ {
		if sparse.InSum(sink) > 0 {
			loaded = append(loaded, sink)
		}
	}
	if got := slices.Sorted(maps.Keys(ds.Splits)); !slices.Equal(got, loaded) {
		t.Fatalf("sparse demand: splits for sinks %v, want %v", got, loaded)
	}
	for sink, row := range ds.Splits {
		if !sameArray(row, d1.Splits[sink]) {
			t.Errorf("sparse demand, sink %d: split row is not the strategy's", sink)
		}
	}

	// (c) Writing through a clone reaches nothing the router serves. The
	// uncached router builds its own strategy, so it is the reference.
	for i := 0; i < 4; i++ { // back to the dense window
		route(cached, dm)
		route(uncached, dm)
	}
	before := route(cached, dm)
	c := before.Clone()
	bitsIdentical(t, "clone", c, before)
	for _, xs := range append([][]float64{c.Weights, c.Loads, c.Utilization}, slices.Collect(maps.Values(c.Splits))...) {
		for i := range xs {
			xs[i] = -1
		}
	}
	want := route(uncached, dm)
	bitsIdentical(t, "the decision written through a clone", before, want)
	bitsIdentical(t, "the next decision", route(cached, dm), want)
}

// TestTracedRouteAllocs pins the traced path's cost in allocations: a
// cached WithTracing route allocates exactly what an untraced one does, the
// RouteTrace riding in the Decision's allocation.
func TestTracedRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g := Abilene()
	agent := testRouterAgent(t)
	ctx := context.Background()
	dm := testDemand(g, 1)
	var allocs [2]float64
	for i, traced := range []bool{false, true} {
		router, err := NewRouter(agent, g, WithTracing(traced))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ { // fill the history so the window is cached
			if _, err := router.Route(ctx, dm); err != nil {
				t.Fatal(err)
			}
		}
		allocs[i] = testing.AllocsPerRun(100, func() {
			d, err := router.Route(ctx, dm)
			if err != nil {
				t.Fatal(err)
			}
			if (d.Trace != nil) != traced {
				t.Fatalf("tracing %v: trace %+v", traced, d.Trace)
			}
		})
		router.Close()
	}
	if allocs[1] != allocs[0] {
		t.Errorf("traced cached route: %v allocs, untraced %v", allocs[1], allocs[0])
	}
}
