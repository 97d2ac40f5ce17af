package env

import (
	"fmt"
	"math"

	"gddr/internal/graph"
	"gddr/internal/routing"
)

// Decode turns policy output into routing: the one definition of the action
// spaces of §VII, run whole by the serving Router and pass by pass, through
// Step, by the training environment. act is the policy, evaluated on obs;
// Decode calls it until the decision is complete — once in full mode, once
// per edge in iterative mode, where each pass observes the actions set so
// far (SetIterativeState, Eq. 6) — and returns the edge weights, the softmin
// γ and the number of act calls made, a failing one included.
func Decode(obs *Observation, base []float64, cfg Config, act func(*Observation) ([]float64, error)) (weights []float64, gamma float64, passes int, err error) {
	var d decoder // full mode keeps no state between passes
	if cfg.Mode == IterativeAction {
		if len(base) == 0 {
			return []float64{}, cfg.Gamma, 0, nil // an edgeless graph has no edge to set
		}
		d = newDecoder(len(base))
	}
	for weights == nil {
		if cfg.Mode == IterativeAction {
			obs.SetIterativeState(d.pending, d.set, d.edge)
		}
		action, err := act(obs)
		passes++
		if err == nil {
			weights, gamma, err = d.step(base, cfg, action)
		}
		if err != nil {
			return nil, 0, passes, err
		}
	}
	return weights, gamma, passes, nil
}

// BaseWeights returns the per-edge base weights the action mapping
// multiplies: inverse-capacity under cfg.CapacityAware (DESIGN.md
// substitution #5), uniform otherwise.
func BaseWeights(g *graph.Graph, cfg Config) []float64 {
	if cfg.CapacityAware {
		return g.InverseCapacityWeights()
	}
	return g.UnitWeights()
}

// decoder is the decision in progress. Between iterative passes it holds
// every edge's pending action value, whether this decision has set it yet,
// and the edge the next pass sets (Eq. 6).
type decoder struct {
	pending []float64 // in [-1,1]
	set     []bool
	edge    int
}

func newDecoder(ne int) decoder {
	return decoder{pending: make([]float64, ne), set: make([]bool, ne)}
}

// step feeds one pass's action to the decision and returns its weights and
// γ once it is complete, nil weights before that. Full mode completes in one
// pass: one value per edge, under the configured γ. An iterative action is
// (weight, γ): the weight channel, clamped to [-1,1], becomes the target
// edge's pending value and the target moves on; the pass that sets the last
// edge completes the decision with γ from its own γ channel alone (Eq. 7)
// and leaves the decoder ready for the next one.
func (d *decoder) step(base []float64, cfg Config, action []float64) ([]float64, float64, error) {
	if cfg.Mode != IterativeAction {
		weights, err := actionWeights(base, cfg.WeightScale, action)
		return weights, cfg.Gamma, err
	}
	if len(action) != 2 {
		return nil, 0, fmt.Errorf("env: iterative action has %d values, want 2", len(action))
	}
	d.pending[d.edge] = clamp(action[0], -1, 1)
	d.set[d.edge] = true
	if d.edge++; d.edge < len(d.pending) {
		return nil, 0, nil
	}
	weights, err := actionWeights(base, cfg.WeightScale, d.pending)
	clear(d.pending)
	clear(d.set)
	d.edge = 0
	return weights, gammaFromAction(action[1]), err
}

// actionWeights maps one action value per edge to that edge's weight.
func actionWeights(base []float64, scale float64, action []float64) ([]float64, error) {
	if len(action) != len(base) {
		return nil, fmt.Errorf("env: action has %d values, want %d", len(action), len(base))
	}
	weights := make([]float64, len(action))
	for i, a := range action {
		weights[i] = WeightFromAction(base[i], scale, a)
	}
	return weights, nil
}

// WeightFromAction maps one action value to a strictly positive edge
// weight, multiplicative around the edge's base weight.
func WeightFromAction(base, scale, a float64) float64 {
	return base * math.Exp(scale*clamp(a, -1, 1))
}

// gammaFromAction maps the iterative policy's γ action channel (Eq. 7) to
// a positive softmin spread.
func gammaFromAction(a float64) float64 {
	return routing.DefaultGamma * math.Exp(clamp(a, -1, 1))
}

func clamp(x, lo, hi float64) float64 {
	return math.Min(hi, math.Max(lo, x))
}
