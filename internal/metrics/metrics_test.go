package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden pins the exposition format byte for byte:
// HELP/TYPE lines, registration order, label rendering and escaping, and
// the cumulative histogram _bucket/_sum/_count contract. Observed values
// are exactly representable in binary so the golden text is stable.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("gddr_test_requests_total", "Requests served.")
	c.Add(3)
	c.Inc()

	// Label values exercise every escape: backslash, quote, newline. Labels
	// render sorted by name regardless of registration order.
	lc := r.Counter("gddr_test_labeled_total", "Labeled counter.",
		L("zpath", `/a"b\c`+"\n"), L("method", "GET"))
	lc.Inc()

	g := r.Gauge("gddr_test_temperature", "A gauge.")
	g.Set(1.5)
	g.Add(-0.25)

	r.GaugeFunc("gddr_test_uptime_seconds", "A callback gauge.", func() float64 { return 42 })

	h := r.Histogram("gddr_test_latency_seconds", "A histogram.", []float64{0.5, 1, 2})
	h.Observe(0.25) // le=0.5
	h.Observe(0.75) // le=1
	h.Observe(4)    // +Inf only
	h.Observe(0.5)  // boundary lands in its own bucket (le is inclusive)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP gddr_test_requests_total Requests served.`,
		`# TYPE gddr_test_requests_total counter`,
		`gddr_test_requests_total 4`,
		`# HELP gddr_test_labeled_total Labeled counter.`,
		`# TYPE gddr_test_labeled_total counter`,
		`gddr_test_labeled_total{method="GET",zpath="/a\"b\\c\n"} 1`,
		`# HELP gddr_test_temperature A gauge.`,
		`# TYPE gddr_test_temperature gauge`,
		`gddr_test_temperature 1.25`,
		`# HELP gddr_test_uptime_seconds A callback gauge.`,
		`# TYPE gddr_test_uptime_seconds gauge`,
		`gddr_test_uptime_seconds 42`,
		`# HELP gddr_test_latency_seconds A histogram.`,
		`# TYPE gddr_test_latency_seconds histogram`,
		`gddr_test_latency_seconds_bucket{le="0.5"} 2`,
		`gddr_test_latency_seconds_bucket{le="1"} 3`,
		`gddr_test_latency_seconds_bucket{le="2"} 3`,
		`gddr_test_latency_seconds_bucket{le="+Inf"} 4`,
		`gddr_test_latency_seconds_sum 5.5`,
		`gddr_test_latency_seconds_count 4`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHistogramLabeledBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gddr_test_seconds", "", []float64{1}, L("path", "/route"))
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`gddr_test_seconds_bucket{le="1",path="/route"} 1`,
		`gddr_test_seconds_bucket{le="+Inf",path="/route"} 1`,
		`gddr_test_seconds_sum{path="/route"} 0.5`,
		`gddr_test_seconds_count{path="/route"} 1`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, buf.String())
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("gddr_x_total", "first help")
	b := r.Counter("gddr_x_total", "second help ignored")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	l1 := r.Counter("gddr_y_total", "", L("k", "1"))
	l2 := r.Counter("gddr_y_total", "", L("k", "2"))
	if l1 == l2 {
		t.Fatal("distinct label sets share a counter")
	}
	h1 := r.Histogram("gddr_z_seconds", "", []float64{1, 2})
	h2 := r.Histogram("gddr_z_seconds", "", []float64{5, 6, 7})
	if h1 != h2 {
		t.Fatal("re-registration must reuse the first histogram (bounds included)")
	}
	if got := h2.Bounds(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("bounds changed on re-registration: %v", got)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("gddr_m_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name must panic")
		}
	}()
	r.Gauge("gddr_m_total", "")
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, name := range []string{"", "9leading", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q must be rejected", name)
				}
			}()
			NewRegistry().Counter(name, "")
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid label name must be rejected")
		}
	}()
	NewRegistry().Counter("gddr_ok_total", "", L("bad-label", "v"))
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5 (negative deltas ignored)", c.Value())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("gddr_a_total", "").Add(2)
	r.Gauge("gddr_b", "").Set(0.5)
	h := r.Histogram("gddr_c_seconds", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(10)

	points := r.Snapshot()
	if len(points) != 3 {
		t.Fatalf("snapshot has %d points, want 3", len(points))
	}
	if points[2].Count != 2 || points[2].Sum != 10.5 {
		t.Fatalf("histogram point = %+v", points[2])
	}
	// Snapshot buckets are cumulative and end with +Inf.
	last := points[2].Buckets[len(points[2].Buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.Count != 2 {
		t.Fatalf("last bucket = %+v, want +Inf count 2", last)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []Point
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v", err)
	}
	if len(decoded) != 3 {
		t.Fatalf("decoded %d points, want 3", len(decoded))
	}
	for _, p := range decoded {
		for _, b := range p.Buckets {
			if math.IsInf(b.UpperBound, 0) {
				t.Fatalf("JSON output carries an infinite bound: %+v", p)
			}
		}
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("gddr_a_total", "", L("k", "v")).Inc()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "name,labels,value,sum,count" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "gddr_a_total,") {
		t.Fatalf("csv body = %q", lines[1:])
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines — mixed
// registration, increments, observations, and expositions — and relies on
// the -race run in CI to surface unsynchronised access.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("gddr_conc_total", "").Inc()
				r.Counter("gddr_conc_labeled_total", "", L("worker", string(rune('a'+w)))).Inc()
				r.Gauge("gddr_conc_gauge", "").Set(float64(i))
				r.Histogram("gddr_conc_seconds", "", LatencyBuckets()).Observe(float64(i) * 1e-6)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("gddr_conc_total", "").Value(); got != workers*iters {
		t.Fatalf("concurrent counter = %d, want %d", got, workers*iters)
	}
	h := r.Histogram("gddr_conc_seconds", "", LatencyBuckets())
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
}

// TestRegistryConcurrentRegistration registers new families and new label
// sets from several goroutines while others keep exposing the registry, so
// every registration lands while an exposition is copying the same family
// and instrument lists. Every registered instrument must be exposed once
// the writers are done.
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 4, 50
	var (
		wg      sync.WaitGroup
		readers sync.WaitGroup
		done    = make(chan struct{})
	)
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := r.WritePrometheus(new(bytes.Buffer)); err != nil {
					t.Error(err)
					return
				}
				_ = r.Snapshot()
			}
		}()
	}
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				r.Counter(fmt.Sprintf("gddr_reg_w%d_i%d_total", w, i), "").Inc()
				r.Gauge("gddr_reg_shared", "", L("writer", fmt.Sprint(w)), L("i", fmt.Sprint(i))).Set(1)
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if got, want := len(r.Snapshot()), 2*writers*perWriter; got != want {
		t.Fatalf("snapshot holds %d points after %d registrations, want %d", got, want, want)
	}
}
