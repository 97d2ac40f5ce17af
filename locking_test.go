package gddr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests in this file drive the lock sites no other test reaches
// concurrently: Engine.Close against Route and Apply, concurrent Apply and
// Fleet.Create publications, Fleet.Close against Create, and the experiment
// registry. Under -race an access moved outside its mutex is a reported
// race; the lost-update assertions catch what -race cannot see, an
// atomic.Pointer Store moved outside the writer mutex that serialises it.

// TestEngineCloseRacesRouteAndApply closes an engine while Route and Apply
// calls are in flight. Every call either succeeds or reports ErrClosed, and
// no call that starts after Close has returned may succeed: a snapshot
// published by an Apply that raced Close would resurrect the engine.
func TestEngineCloseRacesRouteAndApply(t *testing.T) {
	engine, err := NewEngine(testRouterAgent(t), Abilene(), WithRouterWorkers(2), WithMaxBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ctx := context.Background()
	link := engine.Graph().Edges()[0]
	dm := testDemand(Abilene(), 11)

	var (
		wg     sync.WaitGroup
		closed atomic.Bool
		routes atomic.Int64
		errCh  = make(chan error, 8)
	)
	// call runs op until it fails, and reports any failure other than
	// ErrClosed or any success that began after Close returned.
	call := func(name string, op func(i int) error) {
		defer wg.Done()
		for i := 0; ; i++ {
			after := closed.Load()
			err := op(i)
			switch {
			case err == nil && after:
				errCh <- fmt.Errorf("%s succeeded after Close returned", name)
				return
			case errors.Is(err, ErrClosed):
				return
			case err != nil:
				errCh <- fmt.Errorf("%s: %w", name, err)
				return
			}
		}
	}
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go call("Route", func(int) error {
			_, err := engine.Route(ctx, dm)
			routes.Add(1)
			return err
		})
	}
	wg.Add(1)
	go call("Apply", func(i int) error {
		return engine.Apply(ctx, CapacityChange{From: link.From, To: link.To, Capacity: float64(500 + 500*(i%2))})
	})
	for len(errCh) == 0 && (routes.Load() < 8 || engine.Version() < 3) {
		runtime.Gosched()
	}
	engine.Close()
	closed.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if _, err := engine.Route(ctx, dm); !errors.Is(err, ErrClosed) {
		t.Fatalf("Route after Close: got %v, want ErrClosed", err)
	}
	if engine.Version() != 0 || engine.Graph() != nil {
		t.Fatal("closed engine still publishes a snapshot")
	}
}

// TestEngineConcurrentApplyKeepsEveryEvent applies one capacity change per
// goroutine, each on its own link. Apply serialises snapshot replacement
// under the engine's mutex, so the final snapshot must hold every change: an
// Apply that built its replacement from a stale snapshot would publish it
// over a sibling's and lose that event.
func TestEngineConcurrentApplyKeepsEveryEvent(t *testing.T) {
	engine := testEngine(t)
	ctx := context.Background()
	var links [][2]int
	for _, e := range engine.Graph().Edges() {
		if e.From < e.To {
			links = append(links, [2]int{e.From, e.To})
		}
	}
	capacity := func(i int) float64 { return float64(1000 + 10*i) }

	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, len(links))
	for i, l := range links {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = engine.Apply(ctx, CapacityChange{From: l[0], To: l[1], Capacity: capacity(i)})
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	g := engine.Graph()
	for i, l := range links {
		for _, pair := range [][2]int{l, {l[1], l[0]}} {
			ei, err := g.EdgeBetween(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if got := g.Edges()[ei].Capacity; got != capacity(i) {
				t.Errorf("link %d->%d capacity %g, want %g: a concurrent Apply lost this event", pair[0], pair[1], got, capacity(i))
			}
		}
	}
	if v := engine.Version(); v != int64(1+len(links)) {
		t.Errorf("topology version %d, want %d", v, 1+len(links))
	}
}

// TestFleetConcurrentCreateKeepsEveryTenant creates tenants with distinct
// ids from concurrent goroutines while another looks tenants up. Each
// Create copies the tenant map and publishes the copy under the fleet's
// mutex, so every tenant must be listed afterwards: a publication outside
// the mutex drops a sibling's, and a write into the published map races
// the lock-free lookups.
func TestFleetConcurrentCreateKeepsEveryTenant(t *testing.T) {
	agent := testRouterAgent(t)
	g := Abilene()
	fleet := NewFleet()
	defer fleet.Close()
	const n = 16
	var (
		wg     sync.WaitGroup
		done   atomic.Bool
		reader = make(chan struct{})
	)
	go func() {
		defer close(reader)
		for !done.Load() {
			for _, id := range fleet.List() {
				if _, err := fleet.Tenant(id); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	errs := make([]error, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = fleet.CreateWithAgent(fmt.Sprintf("t%02d", i), testTenantConfig("abilene"), agent, g)
		}()
	}
	wg.Wait()
	done.Store(true)
	<-reader
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Create t%02d: %v", i, err)
		}
	}
	if got := fleet.List(); len(got) != n {
		t.Fatalf("fleet lists %d tenants after %d concurrent creates: %v", len(got), n, got)
	}
}

// TestFleetCloseRacesCreate closes a fleet while goroutines keep creating
// tenants. Every Create either succeeds or reports ErrClosed, the closed
// fleet lists no tenant, and every tenant a Create returned is closed.
func TestFleetCloseRacesCreate(t *testing.T) {
	agent := testRouterAgent(t)
	g := Abilene()
	const creators, maxCreates = 4, 200 // stays under the fleet's capacity if Close comes late
	fleet := NewFleet(WithMaxTenants(creators * maxCreates))
	var wg sync.WaitGroup
	created := make([][]*Tenant, creators)
	errs := make([]error, creators)
	for w := range creators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range maxCreates {
				tenant, err := fleet.CreateWithAgent(fmt.Sprintf("w%d-%d", w, i), testTenantConfig("abilene"), agent, g)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errs[w] = err
					}
					return
				}
				created[w] = append(created[w], tenant)
			}
		}()
	}
	for fleet.Len() < creators {
		runtime.Gosched()
	}
	// The sleep orders nothing; it moves Close off the publication Len just
	// observed, so it lands inside a later Create, past that Create's closed
	// check, and queues behind the other creators on the fleet's lock.
	time.Sleep(time.Millisecond)
	fleet.Close()
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("creator %d: %v, want success or ErrClosed", w, err)
		}
	}
	if got := fleet.List(); len(got) != 0 {
		t.Fatalf("closed fleet still lists %v", got)
	}
	ctx := context.Background()
	for _, tenants := range created {
		for _, tenant := range tenants {
			if _, err := tenant.Route(ctx, testDemand(g, 1)); !errors.Is(err, ErrClosed) {
				t.Errorf("tenant %s routes after fleet Close: %v", tenant.ID(), err)
			}
		}
	}
}

// TestExperimentRegistryConcurrent registers experiments while others look
// them up, list them and run them.
func TestExperimentRegistryConcurrent(t *testing.T) {
	const n = 8
	name := func(i int) string { return fmt.Sprintf("concurrent-registration-%d", i) }
	t.Cleanup(func() {
		experimentRegistry.Lock()
		defer experimentRegistry.Unlock()
		for i := range n {
			delete(experimentRegistry.m, name(i))
		}
	})
	run := func(context.Context, ExperimentOptions, ProgressFunc) (*Report, error) {
		return &Report{}, nil
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := RegisterExperiment(Experiment{Name: name(i), Run: run}); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			_ = Experiments()
			if _, err := RunExperiment(ctx, name((i+1)%n)); err != nil && !strings.Contains(err.Error(), "unknown experiment") {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	registered := map[string]bool{}
	for _, exp := range Experiments() {
		registered[exp.Name] = true
	}
	for i := range n {
		if !registered[name(i)] {
			t.Errorf("experiment %q lost by a concurrent registration", name(i))
		}
		if _, err := RunExperiment(ctx, name(i)); err != nil {
			t.Errorf("RunExperiment(%q): %v", name(i), err)
		}
	}
}
