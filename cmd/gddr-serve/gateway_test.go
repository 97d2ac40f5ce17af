package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gddr"
	"gddr/internal/analysis"
)

// serveGateway sends one request through h and returns the recorded
// response.
func serveGateway(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestGatewayErrorsAreJSON holds every layer that can reject a request to
// the {"error": ...} JSON contract: the mux (unknown path, wrong method),
// the body limit, tenant admission, and any handler that writes a bare
// text/plain error, which jsonErrors rewrites.
func TestGatewayErrorsAreJSON(t *testing.T) {
	fleet := newTestFleet(t, "abilene")
	if _, err := fleet.Create("limited", gddr.TenantConfig{Topology: "abilene", RateLimit: 1, Burst: 1}); err != nil {
		t.Fatal(err)
	}
	gateway := newGateway(fleet, "default", time.Now(), false)
	route := routeBody(t, demandRows(11, func(s, t int) float64 { return 100 }))
	// The limited tenant's one burst token admits this route; the table's
	// first case follows well inside a second and is shed.
	if rec := serveGateway(gateway, "POST", "/t/limited/route", route); rec.Code != http.StatusOK {
		t.Fatalf("first limited route: status %d, body %s", rec.Code, rec.Body)
	}
	bare := func(write func(http.ResponseWriter)) http.Handler {
		return jsonErrors(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { write(w) }))
	}

	cases := []struct {
		name           string
		handler        http.Handler
		method, path   string
		body           string
		status         int
		errorSubstring string
	}{
		{name: "rate limited", handler: gateway, method: "POST", path: "/t/limited/route", body: route,
			status: http.StatusTooManyRequests, errorSubstring: "rate limit exceeded"},
		{name: "unknown path", handler: gateway, method: "GET", path: "/no/such/route",
			status: http.StatusNotFound, errorSubstring: "404 page not found"},
		{name: "wrong method", handler: gateway, method: "GET", path: "/route",
			status: http.StatusMethodNotAllowed, errorSubstring: "Method Not Allowed"},
		{name: "oversized body", handler: gateway, method: "POST", path: "/t/default/topology/event",
			body: strings.Repeat(" ", maxBody+1), status: http.StatusRequestEntityTooLarge, errorSubstring: "request body too large"},
		{name: "bare http.Error", handler: bare(func(w http.ResponseWriter) { http.Error(w, "boom", http.StatusBadGateway) }),
			method: "GET", path: "/", status: http.StatusBadGateway, errorSubstring: "boom"},
		{name: "bare WriteHeader", handler: bare(func(w http.ResponseWriter) { w.WriteHeader(http.StatusInternalServerError) }),
			method: "GET", path: "/", status: http.StatusInternalServerError, errorSubstring: "Internal Server Error"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := serveGateway(tc.handler, tc.method, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (body %.200q)", rec.Code, tc.status, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body %.200q: %v", rec.Body, err)
			}
			if !strings.Contains(e.Error, tc.errorSubstring) {
				t.Fatalf("error %q, want it to contain %q", e.Error, tc.errorSubstring)
			}
		})
	}
}

// TestGatewayMetricNameGrammar routes through the gateway with per-request
// tracing on, then holds every metric /metrics serves (the fleet registry
// and the default tenant's engine registry) to the
// gddr_<subsystem>_<name>_<unit> grammar. The gateway's own families are
// registered by its middleware and its /route stage clock, so only this
// walk sees their names.
func TestGatewayMetricNameGrammar(t *testing.T) {
	fleet := gddr.NewFleet(gddr.WithFleetRouterOptions(gddr.WithTracing(true)))
	t.Cleanup(fleet.Close)
	if _, err := fleet.Create("default", gddr.TenantConfig{Topology: "abilene"}); err != nil {
		t.Fatal(err)
	}
	gateway := newGateway(fleet, "default", time.Now(), false)
	route := routeBody(t, demandRows(11, func(s, t int) float64 { return float64(100 + s + t) }))
	for _, path := range []string{"/route", "/t/default/route"} {
		if rec := serveGateway(gateway, "POST", path, route); rec.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d, body %s", path, rec.Code, rec.Body)
		}
	}
	if rec := serveGateway(gateway, "GET", "/metrics", ""); rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}

	tenant, err := fleet.Tenant("default")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range append(fleet.Metrics().Snapshot(), tenant.Engine().Metrics().Snapshot()...) {
		seen[p.Name] = true
		if err := analysis.CheckMetricName(p.Type, p.Name); err != nil {
			t.Errorf("gateway metric violates the naming contract: %v", err)
		}
	}
	for _, want := range []string{
		"gddr_http_requests_total",
		"gddr_http_request_seconds",
		"gddr_http_route_stage_seconds",
		"gddr_fleet_admitted_total",
		"gddr_router_requests_total",
	} {
		if !seen[want] {
			t.Errorf("grammar walk never saw %q; the test lost coverage of that family", want)
		}
	}
}
