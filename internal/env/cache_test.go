package env

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gddr/internal/graph"
	"gddr/internal/metrics"
	"gddr/internal/traffic"
)

// TestOptimalCacheConcurrent shares one cache between goroutines the way
// parallel training workers share it. While readers keep re-walking
// sequences that are already cached, solvers fill the cache with fresh
// matrices through Get and fresh sequences through WarmSequence and
// GetSeqContext, and telemetry is attached with Instrument mid-run. Every value must equal the
// one a private cache computes, bit for bit.
func TestOptimalCacheConcurrent(t *testing.T) {
	g, err := graph.Ring(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const workers, length = 4, 3
	type work struct {
		warm, plain, chained []*traffic.DemandMatrix
		wantPlain, wantChain []float64
	}
	ws := make([]work, workers)
	shared := NewOptimalCache()
	for w := range ws {
		ws[w] = work{
			warm:    testSequence(t, 4, length, length, int64(100+w)),
			plain:   testSequence(t, 4, length, length, int64(200+w)),
			chained: testSequence(t, 4, length, length, int64(300+w)),
		}
		if err := shared.WarmSequence(ctx, g, ws[w].warm, MaxUtilization, nil); err != nil {
			t.Fatal(err)
		}
		ref := NewOptimalCache()
		for i := range length {
			v, err := ref.Get(g, ws[w].plain[i])
			if err != nil {
				t.Fatal(err)
			}
			ws[w].wantPlain = append(ws[w].wantPlain, v)
			if v, err = ref.GetSeqContext(ctx, g, ws[w].chained, i); err != nil {
				t.Fatal(err)
			}
			ws[w].wantChain = append(ws[w].wantChain, v)
		}
	}

	var (
		solvers, others sync.WaitGroup
		done            atomic.Bool
		instrumented    = make(chan struct{})
	)
	reg := metrics.NewRegistry()
	others.Add(1)
	go func() {
		defer others.Done()
		shared.Instrument(reg)
		close(instrumented)
		for !done.Load() {
			shared.Instrument(reg)
		}
	}()
	<-instrumented
	for w := range ws {
		others.Add(1)
		go func() { // reader: re-walks a cached chain until the solvers finish
			defer others.Done()
			for !done.Load() {
				if err := shared.WarmSequence(ctx, g, ws[w].warm, MaxUtilization, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		solvers.Add(2)
		go func() {
			defer solvers.Done()
			for i, dm := range ws[w].plain {
				if v, err := shared.Get(g, dm); err != nil || v != ws[w].wantPlain[i] {
					t.Errorf("Get worker %d matrix %d = %v, %v; want %v", w, i, v, err, ws[w].wantPlain[i])
				}
			}
		}()
		go func() {
			defer solvers.Done()
			// Odd workers warm their chain first, reporting progress as a
			// prewarm does; even ones solve it step by step on lookup.
			if w%2 == 1 {
				solved := 0
				progress := func(int) {
					solved++
					runtime.Gosched()
				}
				if err := shared.WarmSequence(ctx, g, ws[w].chained, MaxUtilization, progress); err != nil || solved != length {
					t.Errorf("WarmSequence worker %d: %d steps solved, %v", w, solved, err)
				}
			}
			for i := range ws[w].chained {
				if v, err := shared.GetSeqContext(ctx, g, ws[w].chained, i); err != nil || v != ws[w].wantChain[i] {
					t.Errorf("GetSeqContext worker %d step %d = %v, %v; want %v", w, i, v, err, ws[w].wantChain[i])
				}
			}
		}()
	}
	solvers.Wait()
	done.Store(true)
	others.Wait()
	if got, want := shared.Len(), 3*workers*length; got != want {
		t.Fatalf("shared cache holds %d optima, want %d", got, want)
	}
}
