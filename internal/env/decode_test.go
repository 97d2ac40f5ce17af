package env

import (
	"context"
	"math"
	"testing"

	"gddr/internal/graph"
	"gddr/internal/routing"
	"gddr/internal/topo"
	"gddr/internal/traffic"
)

// TestDecodeEdgeless: a single-node graph is strongly connected and has no
// edges, so a Router may serve one. Its decision has no weights and the
// configured γ; the iterative policy runs no pass, the full one runs one.
func TestDecodeEdgeless(t *testing.T) {
	g := graph.New(1)
	hist := []*traffic.DemandMatrix{traffic.NewDemandMatrix(1)}
	for _, mode := range []Mode{FullAction, IterativeAction} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		obs, err := Observe(g, hist)
		if err != nil {
			t.Fatal(err)
		}
		weights, gamma, passes, err := Decode(obs, BaseWeights(g, cfg), cfg, func(*Observation) ([]float64, error) {
			return []float64{}, nil
		})
		wantPasses := 1
		if mode == IterativeAction {
			wantPasses = 0
		}
		if err != nil || weights == nil || len(weights) != 0 || gamma != cfg.Gamma || passes != wantPasses {
			t.Fatalf("%v: decode = (%v, %g, %d, %v), want ([], %g, %d, nil)", mode, weights, gamma, passes, err, cfg.Gamma, wantPasses)
		}
	}
}

// TestDecodeMatchesEnvStep drives Decode with a scripted policy whose weight
// channel leaves [-1,1] (±5), sits on its edges (-0, 0.999) and whose γ
// channel differs on every pass. The weights must be base·exp(scale·clamp(a))
// with inverse-capacity bases, γ must come from the final pass alone, each
// iterative pass must observe the actions set before it, and an Env stepped
// with the same actions must see the same observations and earn exactly the
// reward of the decoded (weights, γ).
func TestDecodeMatchesEnvStep(t *testing.T) {
	g := topo.Abilene()
	ne := g.NumEdges()
	values := []float64{5, -5, math.Copysign(0, -1), 0.999, -0.4, 1.5}
	clamped := func(a float64) float64 { return math.Max(-1, math.Min(1, a)) }
	for _, mode := range []Mode{FullAction, IterativeAction} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Memory = 2
			cfg.Mode = mode
			seq := testSequence(t, g.NumNodes(), 5, 3, 31)
			// script returns the policy's action on pass k of a decision.
			script := func(k int) []float64 {
				if mode == FullAction {
					a := make([]float64, ne)
					for i := range a {
						a[i] = values[i%len(values)]
					}
					return a
				}
				return []float64{values[k%len(values)], -0.9 + 1.8*float64(k)/float64(ne)}
			}

			obs, err := Observe(g, seq[:cfg.Memory])
			if err != nil {
				t.Fatal(err)
			}
			var seen [][]float64 // edge features each pass observed
			weights, gamma, passes, err := Decode(obs, BaseWeights(g, cfg), cfg, func(o *Observation) ([]float64, error) {
				seen = append(seen, append([]float64(nil), o.EdgeFeat.Data...))
				return script(len(seen) - 1), nil
			})
			if err != nil {
				t.Fatal(err)
			}

			base := g.InverseCapacityWeights()
			wantPasses, wantGamma := 1, cfg.Gamma
			if mode == IterativeAction {
				wantPasses, wantGamma = ne, gammaFromAction(script(ne - 1)[1])
			}
			if passes != wantPasses || len(seen) != wantPasses {
				t.Fatalf("decode reported %d passes and ran %d, want %d", passes, len(seen), wantPasses)
			}
			if gamma != wantGamma {
				t.Fatalf("gamma %g, want %g from the final pass", gamma, wantGamma)
			}
			for e := range weights {
				a := values[e%len(values)] // full mode: the one pass sets every edge
				if mode == IterativeAction {
					a = script(e)[0] // pass e sets edge e
				}
				if want := base[e] * math.Exp(cfg.WeightScale*clamped(a)); weights[e] != want {
					t.Fatalf("edge %d weight %g, want %g", e, weights[e], want)
				}
			}
			if mode == IterativeAction {
				for k, feat := range seen {
					for e := 0; e < ne; e++ {
						wantV, wantSet, wantTarget := 0.0, 0.0, 0.0
						if e < k {
							wantV, wantSet = clamped(script(e)[0]), 1
						}
						if e == k {
							wantTarget = 1
						}
						row := feat[4*e : 4*e+4]
						if row[1] != wantV || row[2] != wantSet || row[3] != wantTarget {
							t.Fatalf("pass %d edge %d observed %v, want [_ %g %g %g]", k, e, row, wantV, wantSet, wantTarget)
						}
					}
				}
			}

			// The training environment, stepped pass by pass with the same
			// actions, observes what Decode showed the policy and scores
			// exactly the decoded routing.
			e, err := New(g, seq, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			eobs, err := e.Reset()
			if err != nil {
				t.Fatal(err)
			}
			var reward float64
			for k := 0; k < wantPasses; k++ {
				for i, v := range eobs.EdgeFeat.Data {
					if v != seen[k][i] {
						t.Fatalf("pass %d: env edge feature %d is %g, decode showed %g", k, i, v, seen[k][i])
					}
				}
				var done bool
				eobs, reward, done, err = e.Step(script(k))
				if err != nil {
					t.Fatal(err)
				}
				if done {
					t.Fatal("episode ended after one decision")
				}
				if k < wantPasses-1 && reward != 0 {
					t.Fatalf("pass %d of %d earned reward %g", k, wantPasses, reward)
				}
			}
			res, err := routing.EvaluateWeights(g, seq[cfg.Memory], weights, gamma)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := e.opt.GetSeqContext(context.Background(), g, seq, cfg.Memory)
			if err != nil {
				t.Fatal(err)
			}
			if want := -res.MaxUtilization / opt; reward != want {
				t.Fatalf("env reward %.17g, want %.17g for the decoded routing", reward, want)
			}
		})
	}
}
