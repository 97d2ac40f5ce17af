package gddr

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"gddr/internal/metrics"
	"gddr/internal/topo"
)

// ErrOverloaded is returned by Tenant.Route when the tenant's admission
// queue is full or its rate limit is exceeded: the request was shed at the
// gate, the caller should back off and retry. gddr-serve maps it to
// HTTP 429 with a Retry-After header.
var ErrOverloaded = errors.New("gddr: tenant overloaded")

// ErrNoTenant is returned when an operation names a tenant the fleet does
// not have.
var ErrNoTenant = errors.New("gddr: no such tenant")

// ErrTenantExists is returned by Fleet.Create when the id is already taken.
var ErrTenantExists = errors.New("gddr: tenant already exists")

// tenantIDPattern bounds tenant ids to URL- and metric-label-safe names.
var tenantIDPattern = regexp.MustCompile(`^[a-z0-9]([a-z0-9_-]{0,62}[a-z0-9])?$`)

// defaultMaxTenants bounds how many tenants one fleet will host: together
// with the tenant-id grammar it keeps the cardinality of the tenant metric
// label finite even when tenants are created through the admin API.
const defaultMaxTenants = 64

// fleetConfig carries NewFleet options.
type fleetConfig struct {
	registry   *metrics.Registry
	maxTenants int
	routerOpts []RouterOption
}

// FleetOption configures a Fleet at construction.
type FleetOption func(*fleetConfig)

// WithFleetRegistry directs the fleet's own instruments (tenant counts,
// admission counters, gateway route latency) into reg instead of a private
// registry. Per-tenant engine registries are unaffected: every tenant
// always gets its own.
func WithFleetRegistry(reg *metrics.Registry) FleetOption {
	return func(c *fleetConfig) { c.registry = reg }
}

// WithMaxTenants bounds how many tenants the fleet will host (default 64).
// Create fails once the bound is reached; the bound also caps the
// cardinality of the tenant metric label.
func WithMaxTenants(n int) FleetOption {
	return func(c *fleetConfig) { c.maxTenants = n }
}

// WithFleetRouterOptions appends router options applied to every tenant
// engine the fleet creates, after the options derived from the tenant's
// own config — a hook for cross-cutting concerns like tracing.
func WithFleetRouterOptions(opts ...RouterOption) FleetOption {
	return func(c *fleetConfig) { c.routerOpts = append(c.routerOpts, opts...) }
}

// A Fleet is the multi-tenant serving control plane: one process hosting
// many independent (topology, model, history) tenants behind a shared
// gateway. Each tenant owns a full Engine — its own graph, demand history,
// serving cache, and metrics registry — while the fleet owns only the tenant
// registry, the admission accounting, and the tenant-labelled fleet
// metrics (see DESIGN.md "Tenant isolation contract"). Lookups (Tenant,
// List) are lock-free reads of an immutable tenant map republished on
// every mutation, so the serving hot path never contends with tenant
// lifecycle operations.
type Fleet struct {
	// mu serializes mutations (Create, Delete, Close). Readers go through
	// the atomic map pointer and never take it.
	mu      sync.Mutex
	tenants atomic.Pointer[map[string]*Tenant] //gddr:guardedby mu
	closed  bool                               //gddr:guardedby mu

	registry   *metrics.Registry
	maxTenants int
	routerOpts []RouterOption
}

// NewFleet returns an empty fleet.
func NewFleet(opts ...FleetOption) *Fleet {
	cfg := fleetConfig{maxTenants: defaultMaxTenants}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.registry == nil {
		cfg.registry = metrics.NewRegistry()
	}
	if cfg.maxTenants < 1 {
		cfg.maxTenants = 1
	}
	f := &Fleet{registry: cfg.registry, maxTenants: cfg.maxTenants, routerOpts: cfg.routerOpts}
	empty := map[string]*Tenant{}
	f.tenants.Store(&empty)
	f.registry.GaugeFunc("gddr_fleet_tenants", "Tenants currently hosted by the fleet.", func() float64 {
		return float64(len(*f.tenants.Load()))
	})
	return f
}

// Metrics returns the fleet's own registry: tenant-labelled admission and
// latency instruments plus the tenant-count gauge. Tenant engine metrics
// live in each tenant's private registry (Tenant.Engine().Metrics()).
func (f *Fleet) Metrics() *metrics.Registry { return f.registry }

// Create boots a tenant from its config: topology resolved from the
// embedded set, agent built (and checkpoint-loaded) per the config, engine
// started with the configured replicas. The tenant serves as soon as
// Create returns.
func (f *Fleet) Create(id string, cfg TenantConfig) (*Tenant, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := topo.Named(cfg.Topology)
	if err != nil {
		return nil, err
	}
	agent, err := newTenantAgent(cfg, g)
	if err != nil {
		return nil, err
	}
	return f.CreateWithAgent(id, cfg, agent, g)
}

// CreateWithAgent boots a tenant around a caller-built agent and graph,
// for callers that already hold a trained agent in memory (tests, embedded
// use). cfg's engine-shape and admission fields apply; its topology/policy/
// checkpoint fields are ignored in favour of the supplied agent and graph.
func (f *Fleet) CreateWithAgent(id string, cfg TenantConfig, agent *Agent, g *Graph) (*Tenant, error) {
	cfg = cfg.withDefaults()
	if !tenantIDPattern.MatchString(id) {
		return nil, fmt.Errorf("gddr: invalid tenant id %q (want lowercase [a-z0-9_-], <= 64 chars, alphanumeric ends)", id)
	}
	if cfg.Replicas < 1 || cfg.QueueDepth < 1 || cfg.MaxBatch < 1 || cfg.RateLimit < 0 || cfg.Burst < 0 || cfg.Workers < 0 {
		return nil, fmt.Errorf("gddr: invalid tenant config for %q", id)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	cur := *f.tenants.Load()
	if _, ok := cur[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	if len(cur) >= f.maxTenants {
		return nil, fmt.Errorf("gddr: fleet is at its %d-tenant capacity", f.maxTenants)
	}

	opts := []RouterOption{
		WithReplicas(cfg.Replicas),
		WithMaxBatch(cfg.MaxBatch),
	}
	if cfg.Workers > 0 {
		opts = append(opts, WithRouterWorkers(cfg.Workers))
	}
	opts = append(opts, f.routerOpts...)
	engine, err := NewEngine(agent, g, opts...)
	if err != nil {
		return nil, err
	}

	label := metrics.L("tenant", id)
	t := &Tenant{
		id:     id,
		cfg:    cfg,
		engine: engine,
		adm:    newAdmission(cfg),
		admitted: f.registry.Counter("gddr_fleet_admitted_total",
			"Route requests admitted past the tenant's admission gate.", label),
		shed: f.registry.Counter("gddr_fleet_shed_total",
			"Route requests shed by the tenant's admission gate (queue full or rate-limited).", label),
		latency: f.registry.Histogram("gddr_fleet_route_seconds",
			"Admitted route latency through the tenant engine.", metrics.LatencyBuckets(), label),
	}
	f.registry.Gauge("gddr_fleet_replicas",
		"Serve-slot multiplier (Replicas) configured for the tenant (0 after delete).", label).Set(float64(cfg.Replicas))

	next := make(map[string]*Tenant, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[id] = t
	f.tenants.Store(&next)
	return t, nil
}

// Delete removes a tenant and closes its engine, draining in-flight work.
// Requests racing the delete either complete on the old engine or observe
// ErrClosed; they never see a half-removed tenant.
func (f *Fleet) Delete(id string) error {
	f.mu.Lock()
	cur := *f.tenants.Load()
	t, ok := cur[id]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoTenant, id)
	}
	next := make(map[string]*Tenant, len(cur)-1)
	for k, v := range cur {
		if k != id {
			next[k] = v
		}
	}
	f.tenants.Store(&next)
	f.registry.Gauge("gddr_fleet_replicas",
		"Serve-slot multiplier (Replicas) configured for the tenant (0 after delete).", metrics.L("tenant", id)).Set(0)
	f.mu.Unlock()
	// Close outside the lock: it drains in-flight routes, which must not
	// block sibling create/delete.
	t.engine.Close()
	return nil
}

// Tenant returns the named tenant, or ErrNoTenant. The lookup is one
// atomic load — safe on the per-request hot path.
func (f *Fleet) Tenant(id string) (*Tenant, error) {
	if t, ok := (*f.tenants.Load())[id]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoTenant, id)
}

// List returns the current tenant ids, sorted.
func (f *Fleet) List() []string {
	cur := *f.tenants.Load()
	ids := make([]string, 0, len(cur))
	for id := range cur {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len returns how many tenants the fleet currently hosts.
func (f *Fleet) Len() int { return len(*f.tenants.Load()) }

// Close deletes every tenant and refuses further creates. Idempotent.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	cur := *f.tenants.Load()
	empty := map[string]*Tenant{}
	f.tenants.Store(&empty)
	f.mu.Unlock()
	for _, t := range cur {
		t.engine.Close()
	}
}

// FleetFile is the JSON schema of a -fleet config file: a set of tenants
// to boot plus which of them the un-prefixed legacy routes (/route, /stats,
// ...) alias to.
//
//	{
//	  "default": "prod",
//	  "tenants": {
//	    "prod":    {"topology": "abilene", "replicas": 4, "rate_limit": 500},
//	    "staging": {"topology": "nsfnet", "checkpoint": "staging.json"}
//	  }
//	}
type FleetFile struct {
	// Default names the tenant the un-prefixed routes serve. Empty picks
	// the tenant literally named "default" when present, else the first id
	// in sorted order.
	Default string                  `json:"default,omitempty"`
	Tenants map[string]TenantConfig `json:"tenants"`
}

// ParseFleetFile decodes and validates a fleet config: unknown fields are
// rejected, every tenant config must validate, and Default (after
// resolution) must name a configured tenant. The returned file always has
// Default resolved to a concrete tenant id.
func ParseFleetFile(r io.Reader) (*FleetFile, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var file FleetFile
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("gddr: parsing fleet config: %w", err)
	}
	if len(file.Tenants) == 0 {
		return nil, fmt.Errorf("gddr: fleet config has no tenants")
	}
	ids := make([]string, 0, len(file.Tenants))
	for id, cfg := range file.Tenants {
		if !tenantIDPattern.MatchString(id) {
			return nil, fmt.Errorf("gddr: invalid tenant id %q in fleet config", id)
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("gddr: tenant %q: %w", id, err)
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	switch {
	case file.Default == "":
		if _, ok := file.Tenants["default"]; ok {
			file.Default = "default"
		} else {
			file.Default = ids[0]
		}
	default:
		if _, ok := file.Tenants[file.Default]; !ok {
			return nil, fmt.Errorf("gddr: fleet config default %q names no configured tenant", file.Default)
		}
	}
	return &file, nil
}

// Boot creates every tenant in the file, in sorted id order so failures
// are deterministic. On failure the tenants already created stay up; the
// caller decides whether to keep or Close the partial fleet.
func (f *Fleet) Boot(file *FleetFile) error {
	ids := make([]string, 0, len(file.Tenants))
	for id := range file.Tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, err := f.Create(id, file.Tenants[id]); err != nil {
			return fmt.Errorf("gddr: booting tenant %q: %w", id, err)
		}
	}
	return nil
}
