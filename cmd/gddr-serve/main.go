// Command gddr-serve runs a Fleet of serving Engines as a long-running
// HTTP/JSON routing service: the network-operations gateway over the GDDR
// serving API. It boots one tenant per (topology, model) pair — a single
// default tenant from the flags, or many from -fleet fleet.json — and
// exposes per-tenant routes plus un-prefixed aliases for the default
// tenant:
//
//	POST /t/{id}/route           {"demands": [[...], ...]}    -> routing decision
//	POST /t/{id}/topology/event  {"type":"link_down", ...}    -> apply a topology event
//	POST /t/{id}/model/swap      <checkpoint JSON>            -> hot-swap the model
//	GET  /t/{id}/stats                                        -> tenant serving stats
//	GET  /t/{id}/metrics                                      -> tenant engine metrics
//	POST /tenants                {"id": ..., "config": ...}   -> create a tenant
//	GET  /tenants                                             -> list tenants
//	DELETE /tenants/{id}                                      -> delete a tenant
//	POST /route, /topology/event, /model/swap                 -> default-tenant aliases
//	GET  /stats, /healthz                                     -> default-tenant aliases
//	GET  /metrics                                             -> fleet + default tenant metrics
//
// Admission control is per tenant: saturating one tenant's queue or rate
// limit returns JSON 429s with a Retry-After header while sibling tenants
// keep serving. Logging is structured (log/slog); -log-format selects text
// or JSON lines. -pprof additionally mounts net/http/pprof under
// /debug/pprof/ and -trace attaches a per-request timing breakdown to
// every routing decision.
//
// Example session:
//
//	gddr-serve -addr :8080 -fleet fleet.json &
//	curl -s localhost:8080/t/prod/route -d '{"demands": [[0,100,...], ...]}'
//	curl -s localhost:8080/tenants
//	curl -s -X POST localhost:8080/tenants -d '{"id":"canary","config":{"topology":"nsfnet"}}'
//	curl -s localhost:8080/metrics
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"gddr"
	"gddr/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gddr-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		fleetPath  = flag.String("fleet", "", "fleet config JSON booting multiple tenants (overrides the single-tenant flags)")
		topoName   = flag.String("topology", "abilene", "embedded topology the default tenant serves")
		modelPath  = flag.String("model", "", "saved model JSON (empty: capacity-aware cold start)")
		policyName = flag.String("policy", "gnn", "architecture the model was trained with")
		memory     = flag.Int("memory", 3, "demand history length (must match training)")
		hidden     = flag.Int("gnn-hidden", 16, "GNN latent width (must match training)")
		msgSteps   = flag.Int("gnn-steps", 2, "GNN message-passing steps (must match training)")
		replicas   = flag.Int("replicas", 1, "serve-slot multiplier for the default tenant (slots = workers x replicas)")
		workers    = flag.Int("workers", 0, "serve slots per replica (0: GOMAXPROCS)")
		maxBatch   = flag.Int("max-batch", 16, "max requests sharing one forward pass")
		logFormat  = flag.String("log-format", "text", "log line format: text or json")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceOn    = flag.Bool("trace", false, "attach a per-request timing breakdown to each decision")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	slog.SetDefault(slog.New(handler))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fleet := gddr.NewFleet(gddr.WithFleetRouterOptions(gddr.WithTracing(*traceOn)))
	defer fleet.Close()

	defaultID := "default"
	if *fleetPath != "" {
		f, err := os.Open(*fleetPath)
		if err != nil {
			return err
		}
		file, err := gddr.ParseFleetFile(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := fleet.Boot(file); err != nil {
			return err
		}
		defaultID = file.Default
	} else {
		cfg := gddr.TenantConfig{
			Topology:   *topoName,
			Policy:     *policyName,
			Checkpoint: *modelPath,
			Memory:     *memory,
			GNNHidden:  *hidden,
			GNNSteps:   *msgSteps,
			Replicas:   *replicas,
			Workers:    *workers,
			MaxBatch:   *maxBatch,
		}
		if _, err := fleet.Create(defaultID, cfg); err != nil {
			return err
		}
	}
	for _, id := range fleet.List() {
		t, err := fleet.Tenant(id)
		if err != nil {
			continue
		}
		snap := t.Snapshot()
		slog.Info("tenant up", "tenant", id, "topology", t.Config().Topology,
			"nodes", snap.Nodes, "edges", snap.Edges, "replicas", snap.Replicas,
			"default", id == defaultID)
	}

	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /t/{id}/route", handleRoute(fleet, ""))
	mux.HandleFunc("POST /t/{id}/topology/event", handleEvent(fleet, ""))
	mux.HandleFunc("POST /t/{id}/model/swap", handleSwap(fleet, ""))
	mux.HandleFunc("GET /t/{id}/stats", handleStats(fleet, "", start))
	mux.HandleFunc("GET /t/{id}/metrics", handleTenantMetrics(fleet))
	mux.HandleFunc("POST /tenants", handleTenantCreate(fleet))
	mux.HandleFunc("GET /tenants", handleTenantList(fleet, defaultID))
	mux.HandleFunc("DELETE /tenants/{id}", handleTenantDelete(fleet))
	// Un-prefixed aliases keep the single-tenant API of earlier releases
	// working against the default tenant.
	mux.HandleFunc("POST /route", handleRoute(fleet, defaultID))
	mux.HandleFunc("POST /topology/event", handleEvent(fleet, defaultID))
	mux.HandleFunc("POST /model/swap", handleSwap(fleet, defaultID))
	mux.HandleFunc("GET /stats", handleStats(fleet, defaultID, start))
	mux.HandleFunc("GET /healthz", handleHealthz(fleet, defaultID, start))
	mux.HandleFunc("GET /metrics", handleMetrics(fleet, defaultID))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	// The instrumentation middleware wraps OUTSIDE jsonErrors so it records
	// the status the client actually receives, including mux rejections
	// rewritten into the JSON error contract. Gateway HTTP metrics live in
	// the fleet registry, which /metrics always exposes.
	server := &http.Server{
		Addr:              *addr,
		Handler:           instrument(fleet.Metrics(), jsonErrors(mux)),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		slog.Info("serving", "tenants", fleet.Len(), "default", defaultID, "addr", *addr, "pprof", *pprofOn, "trace", *traceOn)
		if err := server.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return server.Shutdown(shutdownCtx)
}

// tenantFor resolves the handler's tenant: the {id} path value for /t/...
// routes, or the fixed default-tenant alias.
func tenantFor(fleet *gddr.Fleet, r *http.Request, alias string) (*gddr.Tenant, error) {
	id := alias
	if id == "" {
		id = r.PathValue("id")
	}
	return fleet.Tenant(id)
}

// knownRoutes bounds the label cardinality of the HTTP metrics: every
// request path collapses to one of the mounted routes (or "other"), so an
// attacker probing random URLs cannot grow the registry without bound.
// Tenant-scoped paths collapse their tenant segment to {id}; the tenant
// dimension is carried by the gddr_fleet_* instruments instead.
var knownRoutes = map[string]string{
	"/route":          "/route",
	"/topology/event": "/topology/event",
	"/model/swap":     "/model/swap",
	"/stats":          "/stats",
	"/healthz":        "/healthz",
	"/metrics":        "/metrics",
	"/tenants":        "/tenants",
}

// tenantRoutes are the suffixes mounted under /t/{id}/.
var tenantRoutes = map[string]string{
	"route":          "/t/{id}/route",
	"topology/event": "/t/{id}/topology/event",
	"model/swap":     "/t/{id}/model/swap",
	"stats":          "/t/{id}/stats",
	"metrics":        "/t/{id}/metrics",
}

func routeLabel(path string) string {
	if r, ok := knownRoutes[path]; ok {
		return r
	}
	if rest, ok := strings.CutPrefix(path, "/t/"); ok {
		if _, suffix, ok := strings.Cut(rest, "/"); ok {
			if r, ok := tenantRoutes[suffix]; ok {
				return r
			}
		}
		return "other"
	}
	if rest, ok := strings.CutPrefix(path, "/tenants/"); ok && rest != "" && !strings.Contains(rest, "/") {
		return "/tenants/{id}"
	}
	if strings.HasPrefix(path, "/debug/pprof/") {
		return "/debug/pprof/"
	}
	return "other"
}

// statusWriter captures the final status code for the HTTP metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument records per-route request counts (by method and status) and
// latency histograms, and logs one structured line per request.
func instrument(reg *metrics.Registry, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(begin)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		route := routeLabel(r.URL.Path)
		reg.Counter("gddr_http_requests_total", "HTTP requests served.",
			metrics.L("path", route), metrics.L("method", r.Method), metrics.L("status", fmt.Sprintf("%d", sw.status))).Inc()
		reg.Histogram("gddr_http_request_seconds", "HTTP request latency.", metrics.LatencyBuckets(),
			metrics.L("path", route)).Observe(elapsed.Seconds())
		slog.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"elapsed_us", elapsed.Microseconds(),
			"remote", r.RemoteAddr)
	})
}

// writeJSON renders one response; encode failures after the header is
// written can only be logged.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("encoding response", "err", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		// Shed requests failed fast without queueing; a short client
		// back-off is enough for the admission window to move.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusClientClosedRequest is the de-facto (nginx) status for a request
// abandoned by its caller: the engine did nothing wrong, the client went
// away before the decision was ready.
const statusClientClosedRequest = 499

// statusFor maps serving errors to HTTP statuses, consistently across every
// handler: a shed request is 429 (retryable), a missing tenant is 404, a
// duplicate tenant is 409, a closed engine is the service going away (503),
// a cancelled request context is the client having hung up (499), a
// deadline is a timeout (504), an oversized body is 413, a contained serving
// panic is the server's fault (500), and everything else surfaced by the API
// keeps the handler's fallback (a bad or conflicting request).
func statusFor(err error, fallback int) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, gddr.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, gddr.ErrNoTenant):
		return http.StatusNotFound
	case errors.Is(err, gddr.ErrTenantExists):
		return http.StatusConflict
	case errors.Is(err, gddr.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, gddr.ErrInternal):
		return http.StatusInternalServerError
	}
	return fallback
}

// jsonErrors wraps a handler so that every 4xx/5xx response carries a
// structured {"error": ...} JSON body: the ServeMux itself (unknown path,
// method mismatch) and http.Error-style helpers emit text/plain, which
// would leave the gateway's error contract dependent on which layer
// rejected the request. Responses that already chose a content type (our
// writeError) pass through untouched.
func jsonErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		jw := &jsonErrorWriter{ResponseWriter: w}
		next.ServeHTTP(jw, r)
		jw.flush()
	})
}

// jsonErrorWriter intercepts error responses written without an explicit
// content type, buffers their plain-text message, and re-emits it as JSON
// when the handler finishes (Unwrap keeps http.ResponseController and
// MaxBytesReader working through the wrapper).
type jsonErrorWriter struct {
	http.ResponseWriter
	wroteHeader bool
	intercept   bool
	status      int
	buf         bytes.Buffer
}

func (w *jsonErrorWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *jsonErrorWriter) WriteHeader(status int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	ct := w.Header().Get("Content-Type")
	if status >= 400 && !strings.HasPrefix(ct, "application/json") {
		w.intercept = true
		w.status = status
		return // header goes out with the JSON body in flush
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *jsonErrorWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercept {
		return w.buf.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

// flush emits the buffered error as the JSON contract body.
func (w *jsonErrorWriter) flush() {
	if !w.intercept {
		return
	}
	msg := strings.TrimSpace(w.buf.String())
	if msg == "" {
		msg = http.StatusText(w.status)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Del("Content-Length") // sized for the text body, if set
	w.ResponseWriter.WriteHeader(w.status)
	if err := json.NewEncoder(w.ResponseWriter).Encode(map[string]string{"error": msg}); err != nil {
		slog.Error("encoding error response", "err", err)
	}
}

type routeRequest struct {
	// Demands is the N×N demand matrix, row-major: Demands[s][t] is the
	// traffic from node s to node t.
	Demands [][]float64 `json:"demands"`
}

// maxBody bounds every request body so an oversized payload cannot grow
// the gateway's heap without bound.
const maxBody = 16 << 20

func handleRoute(fleet *gddr.Fleet, alias string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, err := tenantFor(fleet, r, alias)
		if err != nil {
			writeError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		var req routeRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
			writeError(w, statusFor(err, http.StatusBadRequest), fmt.Errorf("invalid route request: %w", err))
			return
		}
		dm, err := demandMatrix(req.Demands)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
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

func demandMatrix(rows [][]float64) (*gddr.DemandMatrix, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("route request needs a demands matrix")
	}
	dm := &gddr.DemandMatrix{N: n, Data: make([]float64, 0, n*n)}
	for s, row := range rows {
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

func handleEvent(fleet *gddr.Fleet, alias string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, err := tenantFor(fleet, r, alias)
		if err != nil {
			writeError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		body, err := readBody(w, r)
		if err != nil {
			writeError(w, statusFor(err, http.StatusBadRequest), err)
			return
		}
		event, err := gddr.UnmarshalEvent(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := tenant.Apply(r.Context(), event); err != nil {
			// A structurally valid event the current topology cannot absorb
			// (unknown link, disconnecting removal) is a conflict, not a
			// malformed request.
			writeError(w, statusFor(err, http.StatusConflict), err)
			return
		}
		snap := tenant.Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant":           tenant.ID(),
			"applied":          event.Kind(),
			"topology_version": snap.Version,
			"nodes":            snap.Nodes,
			"edges":            snap.Edges,
		})
	}
}

func handleSwap(fleet *gddr.Fleet, alias string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, err := tenantFor(fleet, r, alias)
		if err != nil {
			writeError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		if err := tenant.SwapCheckpoint(r.Context(), http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
			writeError(w, statusFor(err, http.StatusBadRequest), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant":           tenant.ID(),
			"swapped":          true,
			"topology_version": tenant.Version(),
		})
	}
}

func handleStats(fleet *gddr.Fleet, alias string, start time.Time) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, err := tenantFor(fleet, r, alias)
		if err != nil {
			writeError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"tenant":         tenant.ID(),
			"stats":          tenant.Stats(),
			"topology":       tenant.Snapshot(),
			"uptime_seconds": time.Since(start).Seconds(),
		})
	}
}

func handleHealthz(fleet *gddr.Fleet, defaultID string, start time.Time) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, err := fleet.Tenant(defaultID)
		if err != nil || tenant.Version() == 0 {
			writeError(w, http.StatusServiceUnavailable, gddr.ErrClosed)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":           "ok",
			"tenants":          fleet.Len(),
			"topology_version": tenant.Version(),
			"uptime_seconds":   time.Since(start).Seconds(),
		})
	}
}

// handleMetrics serves the gateway exposition: the fleet registry (tenant
// counts, admission, HTTP) concatenated with the default tenant's engine
// registry, so single-tenant deployments keep the exact exposition earlier
// releases served. Sibling tenants' engine metrics live under
// /t/{id}/metrics.
func handleMetrics(fleet *gddr.Fleet, defaultID string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := fleet.Metrics().WritePrometheus(w); err != nil {
			slog.Error("writing metrics", "err", err)
			return
		}
		if tenant, err := fleet.Tenant(defaultID); err == nil {
			if err := tenant.Engine().Metrics().WritePrometheus(w); err != nil {
				slog.Error("writing metrics", "err", err)
			}
		}
	}
}

func handleTenantMetrics(fleet *gddr.Fleet) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, err := fleet.Tenant(r.PathValue("id"))
		if err != nil {
			writeError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := tenant.Engine().Metrics().WritePrometheus(w); err != nil {
			slog.Error("writing metrics", "err", err)
		}
	}
}

// createTenantRequest is the POST /tenants body.
type createTenantRequest struct {
	ID     string            `json:"id"`
	Config gddr.TenantConfig `json:"config"`
}

func handleTenantCreate(fleet *gddr.Fleet) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
		dec.DisallowUnknownFields()
		var req createTenantRequest
		if err := dec.Decode(&req); err != nil {
			writeError(w, statusFor(err, http.StatusBadRequest), fmt.Errorf("invalid tenant request: %w", err))
			return
		}
		tenant, err := fleet.Create(req.ID, req.Config)
		if err != nil {
			writeError(w, statusFor(err, http.StatusBadRequest), err)
			return
		}
		slog.Info("tenant created", "tenant", tenant.ID(), "topology", tenant.Config().Topology)
		writeJSON(w, http.StatusCreated, map[string]any{
			"tenant":   tenant.ID(),
			"topology": tenant.Snapshot(),
			"config":   tenant.Config(),
		})
	}
}

func handleTenantDelete(fleet *gddr.Fleet) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := fleet.Delete(id); err != nil {
			writeError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		slog.Info("tenant deleted", "tenant", id)
		writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
	}
}

func handleTenantList(fleet *gddr.Fleet, defaultID string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		type tenantInfo struct {
			Topology string                `json:"topology"`
			Snapshot gddr.TopologySnapshot `json:"snapshot"`
		}
		out := map[string]tenantInfo{}
		for _, id := range fleet.List() {
			t, err := fleet.Tenant(id)
			if err != nil {
				continue // deleted since List; the listing stays consistent
			}
			out[id] = tenantInfo{Topology: t.Config().Topology, Snapshot: t.Snapshot()}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"default": defaultID,
			"tenants": out,
		})
	}
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	buf, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	if len(buf) == 0 {
		return nil, fmt.Errorf("empty request body")
	}
	return buf, nil
}
