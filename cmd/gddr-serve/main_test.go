package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"gddr"
)

func TestMain(m *testing.M) {
	// The gateway logs one line per request; keep test output readable.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	os.Exit(m.Run())
}

// The oracle: the gateway's /route codec as it was before the hand-written
// one — encoding/json by reflection on both sides. Every /route body the
// gateway answers must read and render exactly as these functions do.

// oracleDecode is the reflective request decoder: a json.Decoder into
// routeRequest, then the rows copied into one row-major matrix.
func oracleDecode(r io.Reader) (*gddr.DemandMatrix, error) {
	var req routeRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid route request: %w", err)
	}
	n := len(req.Demands)
	if n == 0 {
		return nil, fmt.Errorf("route request needs a demands matrix")
	}
	dm := &gddr.DemandMatrix{N: n, Data: make([]float64, 0, n*n)}
	for s, row := range req.Demands {
		if len(row) != n {
			return nil, fmt.Errorf("demands row %d has %d entries, want %d", s, len(row), n)
		}
		dm.Data = append(dm.Data, row...)
	}
	if err := dm.Validate(); err != nil {
		return nil, err
	}
	return dm, nil
}

// oracleEncode is the reflective response encoder: the four-key map through
// a json.Encoder, trailing newline included.
func oracleEncode(tenant string, d *gddr.Decision, version, elapsedUS int64) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(map[string]any{
		"tenant":           tenant,
		"decision":         d,
		"topology_version": version,
		"elapsed_us":       elapsedUS,
	})
	return buf.Bytes(), err
}

// oracleHandleRoute is the /route handler built on the oracle codec.
func oracleHandleRoute(fleet *gddr.Fleet, alias string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, err := tenantFor(fleet, r, alias)
		if err != nil {
			writeError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		dm, err := oracleDecode(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			writeError(w, statusFor(err, http.StatusBadRequest), err)
			return
		}
		start := time.Now()
		d, err := tenant.Route(r.Context(), dm)
		if err != nil {
			writeError(w, statusFor(err, http.StatusBadRequest), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant":           tenant.ID(),
			"decision":         d,
			"topology_version": tenant.Version(),
			"elapsed_us":       time.Since(start).Microseconds(),
		})
	}
}

// newTestFleet boots a real fleet with one cold-start tenant, "default".
func newTestFleet(tb testing.TB, topology string) *gddr.Fleet {
	tb.Helper()
	fleet := gddr.NewFleet()
	tb.Cleanup(fleet.Close)
	if _, err := fleet.Create("default", gddr.TenantConfig{Topology: topology}); err != nil {
		tb.Fatal(err)
	}
	return fleet
}

// routeMux mounts both /route forms behind the gateway's middleware, as
// run does.
func routeMux(fleet *gddr.Fleet, route func(*gddr.Fleet, string) http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /t/{id}/route", route(fleet, ""))
	mux.HandleFunc("POST /route", route(fleet, "default"))
	return instrument(fleet.Metrics(), jsonErrors(mux))
}

// demandRows returns an n×n demand matrix with zero diagonal and
// off-diagonal entries fill(s, t).
func demandRows(n int, fill func(s, t int) float64) [][]float64 {
	rows := make([][]float64, n)
	for s := range rows {
		rows[s] = make([]float64, n)
		for t := range rows[s] {
			if s != t {
				rows[s][t] = fill(s, t)
			}
		}
	}
	return rows
}

func routeBody(t testing.TB, rows [][]float64) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"demands": rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// routeResponse is a 200 /route body.
type routeResponse struct {
	Tenant          string         `json:"tenant"`
	Decision        *gddr.Decision `json:"decision"`
	TopologyVersion int64          `json:"topology_version"`
	ElapsedUS       int64          `json:"elapsed_us"`
}

// TestRouteContract pins the /route contract over real HTTP and a real
// Fleet: the status, the content type and the error message or decision
// of every kind of body, accepted or rejected.
func TestRouteContract(t *testing.T) {
	fleet := newTestFleet(t, "abilene")
	srv := httptest.NewServer(routeMux(fleet, handleRoute))
	defer srv.Close()

	const n = 11 // Abilene
	steady := demandRows(n, func(s, t int) float64 { return float64(100 + 7*s + t) })
	canonical := routeBody(t, steady)
	pretty, err := json.MarshalIndent(map[string]any{"demands": steady}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	negative := demandRows(n, func(s, t int) float64 { return 100 })
	negative[0][1] = -1
	small := demandRows(3, func(s, t int) float64 { return 100 })

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		err    string // the exact error message; "" expects a decision
	}{
		{name: "canonical", body: canonical, status: 200},
		{name: "pretty-printed", body: string(pretty), status: 200},
		{name: "extra field", body: strings.Replace(canonical, "{", `{"note":"x",`, 1), status: 200},
		{name: "case variant key", body: strings.Replace(canonical, `"demands"`, `"Demands"`, 1), status: 200},
		{name: "trailing bytes", body: canonical + ` {"demands":null} trailing`, status: 200},
		{name: "duplicate key", body: strings.Replace(canonical, "{", `{"demands":[[1]],`, 1), status: 200},
		{name: "null entry", body: strings.Replace(canonical, "[0,", "[null,", 1), status: 200},
		{name: "tenant path", path: "/t/default/route", body: canonical, status: 200},
		{name: "malformed", body: "not json", status: 400,
			err: "invalid route request: invalid character 'o' in literal null (expecting 'u')"},
		{name: "empty", body: "", status: 400, err: "invalid route request: EOF"},
		{name: "null demands", body: `{"demands":null}`, status: 400, err: "route request needs a demands matrix"},
		{name: "empty demands", body: `{"demands":[]}`, status: 400, err: "route request needs a demands matrix"},
		{name: "array body", body: `[]`, status: 400,
			err: "invalid route request: json: cannot unmarshal array into Go value of type main.routeRequest"},
		{name: "ragged", body: `{"demands":[[0,1],[1]]}`, status: 400, err: "demands row 1 has 1 entries, want 2"},
		{name: "empty row", body: `{"demands":[[]]}`, status: 400, err: "demands row 0 has 0 entries, want 1"},
		{name: "out of range", body: `{"demands":[[0,1e400],[1,0]]}`, status: 400,
			err: "invalid route request: json: cannot unmarshal number 1e400 into Go struct field routeRequest.demands of type float64"},
		{name: "truncated", body: canonical[:len(canonical)/2], status: 400,
			err: "invalid route request: unexpected EOF"},
		{name: "wrong N", body: routeBody(t, small), status: 400, err: "gddr: demand matrix size 3 != 11 topology nodes"},
		{name: "negative", body: routeBody(t, negative), status: 400,
			err: "traffic: negative or non-finite demand -1 at (0,1)"},
		{name: "nonzero diagonal", body: `{"demands":[[5]]}`, status: 400, err: "traffic: non-zero diagonal 5 at node 0"},
		{name: "over 16 MiB", body: `{"demands":[[` + strings.Repeat(" ", maxBody) + `0]]}`, status: 413,
			err: "invalid route request: http: request body too large"},
		{name: "unknown tenant", path: "/t/ghost/route", body: canonical, status: 404,
			err: `gddr: no such tenant: "ghost"`},
		// Finite demands whose loads sum past the float64 range: the only
		// /route behaviour the hand-written codec changed. encoding/json
		// refused the +Inf after the 200 header had gone out, leaving an
		// empty body.
		{name: "overflowing demands", body: routeBody(t, demandRows(n, func(s, t int) float64 { return 1e308 })),
			status: 400, err: "decision loads holds +Inf: demands too large to route"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = "/route"
			}
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %.200q)", resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			if tc.err != "" {
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(body, &e); err != nil {
					t.Fatalf("error body %.200q: %v", body, err)
				}
				if e.Error != tc.err {
					t.Fatalf("error %q, want %q", e.Error, tc.err)
				}
				return
			}
			var rr routeResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatalf("decision body %.200q: %v", body, err)
			}
			if rr.Tenant != "default" || rr.TopologyVersion < 1 || rr.Decision == nil {
				t.Fatalf("response %.300q lacks its tenant, version or decision", body)
			}
			if len(rr.Decision.Weights) != 28 || len(rr.Decision.Loads) != 28 || len(rr.Decision.Splits) == 0 {
				t.Fatalf("decision has %d weights, %d loads and %d sinks; want 28, 28 and some",
					len(rr.Decision.Weights), len(rr.Decision.Loads), len(rr.Decision.Splits))
			}
			// The wire bytes are encoding/json's: re-rendering what was
			// read reproduces the body exactly.
			want, err := oracleEncode(rr.Tenant, rr.Decision, rr.TopologyVersion, rr.ElapsedUS)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("body differs from encoding/json's rendering:\n got %.300q\nwant %.300q", body, want)
			}
		})
	}
}
