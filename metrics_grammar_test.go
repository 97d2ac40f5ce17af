package gddr

import (
	"context"
	"fmt"
	"testing"

	"gddr/internal/analysis"
	"gddr/internal/metrics"
)

// TestMetricNameGrammar holds the metric naming contract at runtime: it
// walks every name actually registered by the Router, Engine, training, and
// LP-cache registries — literal and dynamically built names alike — and
// holds them to the gddr_<subsystem>_<name>_<unit> grammar via
// analysis.CheckMetricName. TestGatewayMetricNameGrammar (cmd/gddr-serve)
// does the same for the gateway's own families.
func TestMetricNameGrammar(t *testing.T) {
	g := Abilene()
	agent := testRouterAgent(t)
	reg := metrics.NewRegistry()
	engine, err := NewEngine(agent, g, WithMetricsRegistry(reg), WithTracing(true))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	ctx := context.Background()
	// Exercise the serving path (router instruments), a topology event
	// (engine instruments), and a short training run with a shared LP cache
	// (train + lp instruments) so every registry family materialises.
	for i := 0; i < 3; i++ {
		if _, err := engine.Route(ctx, testDemand(g, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := engine.Apply(ctx, CapacityChange{From: 0, To: 1, Capacity: 5000}); err != nil {
		t.Fatal(err)
	}
	scenario := multiScenario(t, 5)
	trainee, err := NewAgent(GNNPolicy, scenario,
		WithMemory(2), WithGNNSize(4, 1), WithTotalSteps(8), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainee.Train(ctx, scenario, nil); err != nil {
		t.Fatal(err)
	}
	// Mirror the gateway's HTTP middleware registrations (cmd/gddr-serve)
	// so the http subsystem's labelled families are grammar-checked at
	// runtime too.
	reg.Counter("gddr_http_requests_total", "HTTP requests served.",
		metrics.L("path", "/route"), metrics.L("method", "POST"), metrics.L("status", fmt.Sprintf("%d", 200))).Inc()
	reg.Histogram("gddr_http_request_seconds", "HTTP request latency.", metrics.LatencyBuckets(),
		metrics.L("path", "/route")).Observe(0.001)

	// Exercise the fleet control plane (fleet instruments) into the same
	// registry: one admitted route and one shed route materialise the
	// tenant-labelled admission families.
	fleet := NewFleet(WithFleetRegistry(reg))
	defer fleet.Close()
	tenant, err := fleet.CreateWithAgent("grammar", TenantConfig{Topology: "abilene"}, agent, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tenant.Route(ctx, testDemand(g, 7)); err != nil {
		t.Fatal(err)
	}
	tenant.shed.Inc() // the shed counter is registered at create; count one

	points := reg.Snapshot()
	if len(points) == 0 {
		t.Fatal("no metrics registered")
	}
	subsystems := map[string]bool{}
	for _, p := range points {
		if err := analysis.CheckMetricName(p.Type, p.Name); err != nil {
			t.Errorf("registered metric violates the naming contract: %v", err)
		}
		if len(p.Name) > len("gddr_") {
			rest := p.Name[len("gddr_"):]
			for i := range rest {
				if rest[i] == '_' {
					subsystems[rest[:i]] = true
					break
				}
			}
		}
	}
	// The walk above only proves names conform; prove it covered the
	// subsystems the contract enumerates.
	for _, want := range []string{"router", "engine", "train", "lp", "http", "fleet"} {
		if !subsystems[want] {
			t.Errorf("grammar walk never saw subsystem %q; the test lost coverage", want)
		}
	}
	// The warm-start instrumentation families must materialise from the
	// training run's cache (Instrument registers them, the solves feed them),
	// and the panic-containment counter from router construction.
	names := map[string]bool{}
	for _, p := range points {
		names[p.Name] = true
	}
	for _, want := range []string{
		"gddr_lp_warm_start_total",
		"gddr_lp_cold_start_total",
		"gddr_lp_solve_pivots",
		"gddr_router_panics_total",
	} {
		if !names[want] {
			t.Errorf("grammar walk never saw %q; the test lost coverage of that family", want)
		}
	}
}
