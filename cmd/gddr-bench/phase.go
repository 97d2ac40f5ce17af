package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"time"

	"gddr"
	"gddr/internal/graph"
)

const (
	// qualityEvery picks the decisions compared with the LP optimum: every
	// 8th route among the digest slots, 32 on a stream without operations.
	qualityEvery = 8
	// checkEvery is how often a timed phase checks a decision in full after
	// the digest slots; traced phases check every decision.
	checkEvery = 16
)

// netState mirrors what the stream's control operations have done to the
// serving topology, so samples and the replay know the graph a decision was
// made on without asking the program.
type netState struct {
	g     *graph.Graph
	swaps int
}

func (s *netState) apply(o op) error {
	var err error
	switch ev := o.event.(type) {
	case nil:
		if o.kind == opSwap {
			s.swaps++
		}
		return nil
	case gddr.CapacityChange:
		s.g, err = graph.SetLinkCapacity(s.g, ev.From, ev.To, ev.Capacity)
	case gddr.LinkDown:
		s.g, err = graph.RemoveLink(s.g, ev.From, ev.To)
	case gddr.LinkUp:
		s.g, err = graph.AddLink(s.g, ev.From, ev.To, ev.Capacity)
	default:
		err = fmt.Errorf("stream produced unsupported event %q", ev.Kind())
	}
	return err
}

// qualitySample is one served decision kept for the LP comparison.
type qualitySample struct {
	g   *graph.Graph
	dm  *gddr.DemandMatrix
	mlu float64
}

// reqRecord is what a traced phase keeps of one route request.
type reqRecord struct {
	slot      int
	start     time.Time
	lat       time.Duration
	elapsedUS int64
	mlu       float64
	trace     *gddr.RouteTrace
}

// window is one equal share of a timed phase. Reporting a quartile of the
// windows keeps a disturbed stretch of a run from moving the phase's numbers.
type window struct {
	elapsed time.Duration
	lat     []float64 // route latencies, ns
}

type phaseOpts struct {
	name  string
	start int // first stream slot
	// digest is how many slots from the start feed the decision digest and
	// are checked in full. It is far below what the slowest phase serves,
	// so the digest covers the same decisions on every run; a phase that
	// ends sooner is a violation. Zero (the warm-up) skips the digest.
	digest int
	// full checks every decision and keeps a record of every route.
	full bool
	// routesOnly skips the stream's control operations, for an entry point
	// without a control plane (a bare Router).
	routesOnly bool
}

// phaseResult is the outcome of one phase: operation counts in the form
// the contract asks for, latency samples, and the check artefacts.
type phaseResult struct {
	Name      string  `json:"name"`
	Loop      string  `json:"loop"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Shed      int     `json:"shed"`
	Routes    int     `json:"routes"`
	Applies   int     `json:"applies"`
	Swaps     int     `json:"swaps"`
	Checked   int     `json:"decisions_checked"`
	Digest    string  `json:"digest"`
	WallS     float64 `json:"wall_s"`
	// P99US is the timed run's p99 route latency (quiet quartile of the
	// windows), recorded for the reader; no metric comes from it.
	P99US float64 `json:"route_p99_us,omitempty"`

	windows    []window
	applyLat   []float64 // ns
	swapLat    []float64 // ns
	samples    []qualitySample
	recs       []reqRecord
	reqBytes   int
	respBytes  int
	next       int // first slot after the phase
	violations []string
}

// phase is one closed loop — a single caller that sends its next request
// only after the previous one completed — over the workload's stream on one
// entry point. It runs window by window, so the windows of several phases
// can be interleaved across a run: a disturbance lasting seconds then hits
// a few windows of each phase, not all windows of one.
type phase struct {
	in     *inputs
	tg     target
	model  []byte
	o      phaseOpts
	res    *phaseResult
	state  *netState
	digest hash.Hash
	slot   int
}

func newPhase(in *inputs, tg target, model []byte, o phaseOpts) *phase {
	p := &phase{in: in, tg: tg, model: model, o: o, slot: o.start, digest: sha256.New(),
		res:   &phaseResult{Name: o.name, Loop: "closed, 1 caller"},
		state: &netState{g: in.graph}}
	// The shadow state must reflect every operation the entry point has
	// already seen (the warm-up), not just this phase's.
	for i := 0; i < o.start && !o.routesOnly; i++ {
		if op := in.at(i); op.kind != opRoute {
			if err := p.state.apply(op); err != nil {
				p.res.violations = append(p.res.violations, err.Error())
			}
		}
	}
	return p
}

// runFor adds one window lasting d to the phase.
func (p *phase) runFor(d time.Duration) {
	begin := time.Now()
	w := window{}
	for time.Since(begin) < d {
		p.step(&w)
	}
	w.elapsed = time.Since(begin)
	p.res.windows = append(p.res.windows, w)
}

// runCount adds one window of n stream slots to the phase.
func (p *phase) runCount(n int) {
	begin := time.Now()
	w := window{}
	for end := p.slot + n; p.slot < end; {
		p.step(&w)
	}
	w.elapsed = time.Since(begin)
	p.res.windows = append(p.res.windows, w)
}

// step serves the next slot of the stream.
func (p *phase) step(w *window) {
	o, res := p.o, p.res
	op := p.in.at(p.slot)
	slot := p.slot
	rel := slot - o.start
	p.slot++
	if o.routesOnly && op.kind != opRoute {
		return
	}
	res.Attempted++
	switch op.kind {
	case opRoute:
		want := o.full || rel < o.digest || rel%checkEvery == 0
		dm := p.in.matrices[op.dm]
		sent := time.Now()
		lat, rep, err := p.tg.route(dm, p.in.bodies[op.dm], want)
		if !res.count(err, op, slot) {
			return
		}
		res.Routes++
		res.reqBytes += rep.reqBytes
		res.respBytes += rep.respBytes
		w.lat = append(w.lat, float64(lat))
		if !want {
			return
		}
		res.Checked++
		if msg := checkDecision(p.state.g, dm, rep.d); msg != "" {
			res.violations = append(res.violations, fmt.Sprintf("%s slot %d: %s", o.name, slot, msg))
		}
		if rel < o.digest {
			digestDecision(p.digest, rep.d)
			if res.Routes%qualityEvery == 1 {
				res.samples = append(res.samples, qualitySample{g: p.state.g, dm: dm, mlu: rep.d.MaxUtilization})
			}
		}
		if o.full {
			res.recs = append(res.recs, reqRecord{slot: slot, start: sent, lat: lat,
				elapsedUS: rep.elapsedUS, mlu: rep.d.MaxUtilization, trace: rep.d.Trace})
		}
	case opEvent:
		lat, err := p.tg.event(op.event)
		if res.count(err, op, slot) {
			res.Applies++
			res.applyLat = append(res.applyLat, float64(lat))
		}
		if err := p.state.apply(op); err != nil {
			res.violations = append(res.violations, err.Error())
		}
	case opSwap:
		lat, err := p.tg.swap(p.model)
		if res.count(err, op, slot) {
			res.Swaps++
			res.swapLat = append(res.swapLat, float64(lat))
		}
		p.state.apply(op)
	}
}

// finish closes the phase and returns its result.
func (p *phase) finish() *phaseResult {
	res := p.res
	for _, w := range res.windows {
		res.WallS += w.elapsed.Seconds()
	}
	res.Digest = hex.EncodeToString(p.digest.Sum(nil))[:16]
	if served := p.slot - p.o.start; served < p.o.digest {
		res.violations = append(res.violations, fmt.Sprintf("%s served %d slots, fewer than the %d its digest covers", p.o.name, served, p.o.digest))
	}
	res.next = p.slot
	return res
}

// runPhase runs a phase of count slots as a single window.
func runPhase(in *inputs, tg target, model []byte, o phaseOpts, count int) *phaseResult {
	p := newPhase(in, tg, model, o)
	p.runCount(count)
	return p.finish()
}

// count books one operation's outcome and reports whether it succeeded.
func (r *phaseResult) count(err error, o op, slot int) bool {
	switch {
	case err == nil:
		r.Succeeded++
		return true
	case errors.Is(err, errShed):
		r.Shed++
	default:
		r.Failed++
		if len(r.violations) < 20 {
			r.violations = append(r.violations, fmt.Sprintf("%s slot %d (op %d): %v", r.Name, slot, o.kind, err))
		}
	}
	return false
}

// checkDecision verifies one served decision against what any routing must
// satisfy: a finite positive max utilisation that is the maximum of the
// per-edge utilisations, and splitting ratios that sum to one at every node
// with demand towards a sink. It returns "" or the first violation.
func checkDecision(g *graph.Graph, dm *gddr.DemandMatrix, d *gddr.Decision) string {
	if math.IsNaN(d.MaxUtilization) || math.IsInf(d.MaxUtilization, 0) || d.MaxUtilization <= 0 {
		return fmt.Sprintf("max utilisation %v is not finite and positive", d.MaxUtilization)
	}
	if len(d.Utilization) != g.NumEdges() || len(d.Weights) != g.NumEdges() {
		return fmt.Sprintf("decision sized for %d edges, topology has %d", len(d.Utilization), g.NumEdges())
	}
	maxU := 0.0
	for _, u := range d.Utilization {
		if u > maxU {
			maxU = u
		}
	}
	if maxU != d.MaxUtilization {
		return fmt.Sprintf("max utilisation %v is not the maximum %v of the per-edge utilisations", d.MaxUtilization, maxU)
	}
	n := g.NumNodes()
	for sink, ratios := range d.Splits {
		if len(ratios) != g.NumEdges() {
			return fmt.Sprintf("splits towards %d sized for %d edges", sink, len(ratios))
		}
		for v := 0; v < n; v++ {
			if v == sink || dm.At(v, sink) <= 0 {
				continue
			}
			sum := 0.0
			for _, ei := range g.OutEdges(v) {
				sum += ratios[ei]
			}
			if math.Abs(sum-1) > 1e-9 {
				return fmt.Sprintf("splits at node %d towards %d sum to %v", v, sink, sum)
			}
		}
	}
	for t := 0; t < n; t++ {
		if _, ok := d.Splits[t]; !ok && dm.InSum(t) > 0 {
			return fmt.Sprintf("no splits towards %d, which has demand", t)
		}
	}
	return ""
}

// digestDecision folds the decision's numbers, bit for bit, into h.
func digestDecision(h hash.Hash, d *gddr.Decision) {
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	put(d.MaxUtilization)
	put(d.Gamma)
	for _, w := range d.Weights {
		put(w)
	}
	for _, l := range d.Loads {
		put(l)
	}
}

// routeLatencies returns every route latency of the phase, in ns.
func (r *phaseResult) routeLatencies() []float64 {
	var all []float64
	for _, w := range r.windows {
		all = append(all, w.lat...)
	}
	return all
}

// quietQuartile reduces the phase to its quiet quartile: over its windows,
// the upper quartile of the per-window throughput (routes/s) and the lower
// quartile of the per-window median and p99 latency (µs). What disturbs a
// window on a shared host only ever slows it, so the quartile on the fast
// side holds until three windows in four are hit, where the median moves
// once half are.
func (r *phaseResult) quietQuartile() (rps, p50us, p99us float64) {
	var rates, p50s, p99s []float64
	for _, w := range r.windows {
		if len(w.lat) == 0 || w.elapsed <= 0 {
			continue
		}
		rates = append(rates, float64(len(w.lat))/w.elapsed.Seconds())
		p50s = append(p50s, quantileOf(w.lat, 0.50)/1e3)
		p99s = append(p99s, quantileOf(w.lat, 0.99)/1e3)
	}
	return quantileOf(rates, 0.75), quantileOf(p50s, 0.25), quantileOf(p99s, 0.25)
}
