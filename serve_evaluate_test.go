package gddr

import (
	"context"
	"testing"
)

// TestServeEqualsEvaluate ties every served decision to the paper's
// evaluation metric: a Router warm-started on the first m matrices of an
// evaluation sequence and fed the rest serves decisions whose per-step
// U_agent/U_opt, averaged, is bit for bit what Agent.Evaluate reports on
// that sequence — for both full-action policies and the iterative one. It
// also pins the forward-pass cost of a decision: one pass in full mode, one
// per directed edge in iterative mode.
func TestServeEqualsEvaluate(t *testing.T) {
	ctx := context.Background()
	_, test, err := AbileneScenario(1, 1, 12, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, seq := test.Items[0].Graph, test.Items[0].Sequences[0]
	for _, kind := range []PolicyKind{MLPPolicy, GNNPolicy, GNNIterativePolicy} {
		t.Run(kind.String(), func(t *testing.T) {
			agent, err := NewAgent(kind, test, WithMemory(3), WithGNNSize(8, 2), WithMLPHidden(16), WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			cache := NewOptimalCache()
			want, err := agent.Evaluate(ctx, test, cache)
			if err != nil {
				t.Fatal(err)
			}
			m := agent.Config.Memory
			router, err := NewRouter(agent, g, WithWarmHistory(seq[:m]...))
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			var sum float64
			for step := m; step < len(seq); step++ {
				d, err := router.Route(ctx, seq[step])
				if err != nil {
					t.Fatal(err)
				}
				opt, err := cache.GetSeqContext(ctx, g, seq, step)
				if err != nil {
					t.Fatal(err)
				}
				sum += d.MaxUtilization / opt
			}
			steps := len(seq) - m
			got := sum / float64(steps)
			if got != want {
				t.Fatalf("served mean ratio %.17g != Agent.Evaluate %.17g", got, want)
			}
			wantPasses := int64(steps)
			if kind == GNNIterativePolicy {
				wantPasses *= int64(g.NumEdges())
			}
			if passes := router.Stats().ForwardPasses; passes != wantPasses {
				t.Fatalf("%d forward passes for %d decisions, want %d", passes, steps, wantPasses)
			}
			t.Logf("mean ratio %.17g over %d decisions, %d forward passes", got, steps, wantPasses)
		})
	}
}
