package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gddr"
	"gddr/internal/env"
	"gddr/internal/graph"
	"gddr/internal/rng"
	"gddr/internal/traffic"
)

// scale sizes a run. The full benchmark derives it from -seconds; -smoke
// shrinks every part so the whole pipeline runs in a couple of seconds.
type scale struct {
	smoke      bool
	seconds    float64
	warmup     int // untimed requests per entry point in every set-up
	setupReps  int // set-ups per run; setup_s is their median
	tracedN    int // requests per entry point in the traced run
	trainSteps int // 0: from the workload and -seconds
	probeOps   int // Apply calls of the traced run's control-operation probe (a fifth as many swaps)
	layerLoop  time.Duration
	windows    int
	digest     int // slots per phase behind the decision digest and the quality sample
}

func fullScale(seconds float64) scale {
	return scale{seconds: seconds, warmup: 300, setupReps: 8, tracedN: 2000,
		probeOps: 200, layerLoop: 250 * time.Millisecond, windows: 8, digest: 256}
}

func smokeScale() scale {
	return scale{smoke: true, seconds: 1, warmup: 40, setupReps: 1, tracedN: 120,
		trainSteps: 200, probeOps: 10, layerLoop: 10 * time.Millisecond, windows: 2, digest: 64}
}

// rig is one set-up serving stack: an in-process fleet with one tenant and
// a spawned gddr-serve, both loaded with the same model and topology and
// both warmed with the first slots of the workload's stream.
type rig struct {
	fleet  *gddr.Fleet
	tenant *gddr.Tenant
	srv    *server
	http   *httpTarget
	next   int // first stream slot after the warm-up
}

func (r *rig) close() {
	if r == nil {
		return
	}
	if r.http != nil {
		r.http.close()
	}
	r.srv.stop()
	if r.fleet != nil {
		r.fleet.Close()
	}
}

// setupSample is the timing of one full set-up.
type setupSample struct {
	total, inputs, fleet, boot, warmup time.Duration
}

// setUp performs everything between "the workload starts" and "the first
// timed request": input and scenario generation, agent construction, fleet
// and tenant, server spawn to healthy, and the warm-up of both entry points.
func setUp(name string, seed int64, bin, modelPath string, model []byte, traced bool, sc scale) (*rig, *inputs, setupSample, error) {
	var s setupSample
	start := time.Now()
	in, err := newInputs(name, seed)
	if err != nil {
		return nil, nil, s, err
	}
	if _, err := newResearchAgent(in.trainSteps(sc), nil); err != nil {
		return nil, nil, s, err
	}
	s.inputs = time.Since(start)

	r := &rig{next: sc.warmup}
	mark := time.Now()
	var opts []gddr.FleetOption
	if traced {
		opts = append(opts, gddr.WithFleetRouterOptions(gddr.WithTracing(true)))
	}
	r.fleet = gddr.NewFleet(opts...)
	r.tenant, err = r.fleet.Create("bench", gddr.TenantConfig{Topology: in.spec.topology, Checkpoint: modelPath})
	if err != nil {
		r.close()
		return nil, nil, s, err
	}
	s.fleet = time.Since(mark)

	r.srv, err = startServer(bin, in.spec.topology, modelPath, traced)
	if err != nil {
		r.close()
		return nil, nil, s, err
	}
	s.boot = r.srv.boot
	r.http = newHTTPTarget(r.srv.base)

	mark = time.Now()
	for _, tg := range []target{tenantTarget(r.tenant), r.http} {
		warm := runPhase(in, tg, model, phaseOpts{name: "warm-up"}, sc.warmup)
		if warm.Failed+warm.Shed > 0 || len(warm.violations) > 0 {
			r.close()
			return nil, nil, s, fmt.Errorf("warm-up: %d failed, %d shed: %v", warm.Failed, warm.Shed, warm.violations)
		}
	}
	s.warmup = time.Since(mark)
	s.total = time.Since(start)
	return r, in, s, nil
}

// servingResult is the untraced serving side of a run.
type servingResult struct {
	setups   []setupSample
	lib      *phaseResult
	http     *phaseResult
	probe    *phaseResult // control-operation probe; nil when the stream has operations
	mluRatio float64
	quality  int // decisions compared with the LP optimum
}

// runServing is the timed serving side of a run. Everything it measures is
// cut into sc.windows slices and the slices are interleaved round by round
// — a lib window, an http window, a slice of the control-operation probe, a
// further full set-up — so that each metric is a quartile or median over
// slices spread across the whole run and a disturbance lasting seconds cannot
// hit all the slices of one metric. The LP quality comparison follows the
// last round.
func runServing(ctx context.Context, name string, seed int64, bin, modelPath string, model []byte, sc scale) (*servingResult, error) {
	res := &servingResult{}
	r, in, first, err := setUp(name, seed, bin, modelPath, model, false, sc)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res.setups = append(res.setups, first)

	lib := newPhase(in, tenantTarget(r.tenant), model, phaseOpts{name: "lib", start: r.next, digest: sc.digest})
	http := newPhase(in, r.http, model, phaseOpts{name: "http", start: r.next, digest: sc.digest})
	http.res.Loop = "closed, 1 keep-alive connection"
	var probe *probe
	if in.spec.opsEvery == 0 {
		// The probe runs between the windows on a tenant of its own, so the
		// timed phases' tenant sees nothing but its stream.
		t, err := r.fleet.Create("probe", gddr.TenantConfig{Topology: in.spec.topology, Checkpoint: modelPath})
		if err != nil {
			return nil, err
		}
		probe = newProbe(in, tenantTarget(t), model)
	}
	libDur := time.Duration(in.spec.libShare * sc.seconds / float64(sc.windows) * float64(time.Second))
	httpDur := time.Duration(in.spec.httpShare * sc.seconds / float64(sc.windows) * float64(time.Second))
	probeDur := time.Duration(in.spec.probeShare * sc.seconds / float64(sc.windows) * float64(time.Second))
	// The phases start from a collected heap, so what the research stage and
	// the set-up left behind does not set their GC pacing.
	runtime.GC()
	for k := 0; k < sc.windows; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lib.runFor(libDur)
		http.runFor(httpDur)
		if probe != nil {
			probe.runFor(probeDur)
		}
		if k < sc.setupReps-1 {
			extra, _, s, err := setUp(name, seed, bin, modelPath, model, false, sc)
			if err != nil {
				return nil, err
			}
			extra.close()
			res.setups = append(res.setups, s)
		}
	}
	res.lib, res.http = lib.finish(), http.finish()
	if probe != nil {
		res.probe = probe.res
	}

	if len(in.matrices) == 1 {
		// All of a one-matrix stream's samples are one decision: keep it once.
		more, err := steadyStateSamples(in, tenantTarget(r.tenant), len(res.lib.samples)-1)
		if err != nil {
			return nil, err
		}
		res.lib.samples = append(res.lib.samples[:1], more...)
	}
	res.mluRatio, res.quality, err = quality(ctx, res.lib)
	return res, err
}

// probe measures Apply and SwapCheckpoint on a workload whose stream has no
// control operations: capacity changes that alternately halve and restore
// one link and, after every fifth, a swap of the serving checkpoint — each
// after four routes, so the engine is serving when the operation arrives, as
// it is on liveops. One caller; only the operations are timed.
type probe struct {
	in      *inputs
	tg      target
	model   []byte
	res     *phaseResult
	slot    int
	applies int
}

func newProbe(in *inputs, tg target, model []byte) *probe {
	return &probe{in: in, tg: tg, model: model, res: &phaseResult{Name: "probe", Loop: "closed, 1 caller"}}
}

// run performs n capacity changes, rounded up to even so the link ends
// restored: the fixed count of the traced run.
func (p *probe) run(n int) {
	begin := time.Now()
	for n += n % 2; n > 0; n-- {
		p.step()
	}
	p.res.WallS += time.Since(begin).Seconds()
}

// runFor performs capacity changes for d, and one more if the link would
// otherwise end halved: one slice of the timed run's probe.
func (p *probe) runFor(d time.Duration) {
	begin := time.Now()
	for time.Since(begin) < d || p.applies%2 == 1 {
		p.step()
	}
	p.res.WallS += time.Since(begin).Seconds()
}

// routes serves the four requests that precede every operation.
func (p *probe) routes() {
	res := p.res
	for k := 0; k < 4; k++ {
		o := p.in.at(p.slot)
		p.slot++
		if o.kind != opRoute {
			continue
		}
		res.Attempted++
		if _, _, err := p.tg.route(p.in.matrices[o.dm], p.in.bodies[o.dm], false); res.count(err, o, p.slot-1) {
			res.Routes++
		}
	}
}

// step performs the next capacity change and, after every fifth, a swap.
func (p *probe) step() {
	res := p.res
	e := p.in.graph.Edge(0)
	p.routes()
	capacity := e.Capacity
	if p.applies%2 == 0 {
		capacity /= 2
	}
	o := op{kind: opEvent, event: gddr.CapacityChange{From: e.From, To: e.To, Capacity: capacity}}
	res.Attempted++
	lat, err := p.tg.event(o.event)
	if res.count(err, o, p.applies) {
		res.Applies++
		res.applyLat = append(res.applyLat, float64(lat))
	}
	p.applies++
	if p.applies%5 == 0 {
		p.routes()
		res.Attempted++
		lat, err := p.tg.swap(p.model)
		if res.count(err, op{kind: opSwap}, p.applies) {
			res.Swaps++
			res.swapLat = append(res.swapLat, float64(lat))
		}
	}
}

// steadyStateSamples widens the quality sample of a one-matrix stream, whose
// own decisions all route the same demand: each of n further seeded matrices
// is served until it fills the history window, and the decision made once
// demand has been steady at it is kept.
func steadyStateSamples(in *inputs, tg target, n int) ([]qualitySample, error) {
	rng := rand.New(rand.NewSource(rng.DeriveSeed(in.seed, 3)))
	var out []qualitySample
	for i := 0; i < n; i++ {
		dm := traffic.Bimodal(in.graph.NumNodes(), traffic.DefaultBimodal(), rng)
		var d *gddr.Decision
		for k := 0; k <= modelMemory; k++ {
			_, rep, err := tg.route(dm, nil, true)
			if err != nil {
				return nil, fmt.Errorf("quality pass: %w", err)
			}
			d = rep.d
		}
		if msg := checkDecision(in.graph, dm, d); msg != "" {
			return nil, fmt.Errorf("quality pass: %s", msg)
		}
		out = append(out, qualitySample{g: in.graph, dm: dm, mlu: d.MaxUtilization})
	}
	return out, nil
}

// quality compares the phase's sampled decisions with the LP optimum of the
// same matrix on the same graph: every served MLU must be at least the
// optimum, and the mean ratio is the workload's mlu_ratio. The optima are
// solved after timing, each graph's matrices as one warm-started chain.
func quality(ctx context.Context, p *phaseResult) (float64, int, error) {
	if len(p.samples) == 0 {
		return 0, 0, fmt.Errorf("phase %s kept no decisions for the quality comparison", p.Name)
	}
	cache := env.NewOptimalCache()
	chains := map[*graph.Graph][]*gddr.DemandMatrix{}
	seen := map[qualitySample]bool{}
	for _, s := range p.samples {
		if key := (qualitySample{g: s.g, dm: s.dm}); !seen[key] {
			seen[key] = true
			chains[s.g] = append(chains[s.g], s.dm)
		}
	}
	for g, seq := range chains {
		if err := cache.WarmSequence(ctx, g, seq, env.MaxUtilization, nil); err != nil {
			return 0, 0, fmt.Errorf("LP optimum for the quality sample: %w", err)
		}
	}
	var sum float64
	for _, s := range p.samples {
		opt, err := cache.GetContext(ctx, s.g, s.dm)
		if err != nil {
			return 0, 0, fmt.Errorf("LP optimum for the quality sample: %w", err)
		}
		if s.mlu < opt-1e-6 {
			p.violations = append(p.violations, fmt.Sprintf("served MLU %v is below the LP optimum %v", s.mlu, opt))
		}
		sum += s.mlu / opt
	}
	return sum / float64(len(p.samples)), len(p.samples), nil
}
