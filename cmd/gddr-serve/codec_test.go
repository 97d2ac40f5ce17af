package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gddr"
)

// floatBytes packs values eight little-endian bytes apiece, the form
// FuzzRouteCodec reads decision values in.
func floatBytes(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// fuzzDecision builds a decision whose values are read from raw, eight
// bytes a float and cycling, and whose shape comes from the bits of shape:
// edge and sink counts, the sink-id stride (so ids reach two digits), nil
// fields, an empty or nil splits map, a nil row, a trace, or no decision.
func fuzzDecision(raw []byte, shape uint32) *gddr.Decision {
	if shape>>28 == 15 {
		return nil
	}
	if len(raw) < 8 {
		raw = floatBytes(0.25, 1, 3.5e-7, 12345.678)
	}
	k := 0
	next := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
		k = (k + 1) % (len(raw) / 8)
		return v
	}
	floats := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = next()
		}
		return xs
	}
	edges := int(shape>>1) % 6
	sinks := int(shape>>4) % 14
	stride := 1 + int(shape>>8)%4
	d := &gddr.Decision{Gamma: next(), MaxUtilization: next()}
	if shape&(1<<10) == 0 {
		d.Weights = floats(edges)
	}
	if shape&(1<<11) == 0 {
		d.Splits = make(map[int][]float64, sinks)
		for i := range sinks {
			d.Splits[i*stride] = floats(edges)
		}
		if shape&(1<<12) != 0 && sinks > 0 {
			d.Splits[0] = nil
		}
	}
	if shape&(1<<13) == 0 {
		d.Loads = floats(edges)
	}
	if shape&(1<<14) == 0 {
		d.Utilization = floats(edges)
	}
	if shape&(1<<15) != 0 {
		d.Trace = &gddr.RouteTrace{
			BatchSize:        int(shape>>16) % 17,
			QueueWaitNS:      int64(shape),
			ObserveNS:        int64(shape >> 3),
			ForwardNS:        -int64(shape >> 5),
			StrategyNS:       int64(shape >> 7),
			EvaluateNS:       int64(shape >> 9),
			PolicyCacheHit:   shape&(1<<17) != 0,
			StrategyCacheHit: shape&(1<<18) != 0,
		}
	}
	return d
}

// checkDecode asserts the decode property on one body: the fast path
// declines or yields the oracle's exact matrix, and the gateway's decoder
// as a whole answers exactly as the oracle does.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, werr := oracleDecode(bytes.NewReader(body))
	if dm, _, ok := parseDemands(body, nil); ok {
		if verr := dm.Validate(); verr != nil {
			if werr == nil || werr.Error() != verr.Error() {
				t.Fatalf("fast path on %q: Validate says %v, the oracle %v", body, verr, werr)
			}
		} else if werr != nil || dm.N != want.N || !bitsEqual(dm.Data, want.Data) {
			t.Fatalf("fast path on %q disagrees with the oracle (oracle error %v)", body, werr)
		}
	}
	var buf routeBuffers
	buf.body.Write(body)
	got, gerr := decodeRoute(&buf, nil)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("decoding %q: error %v, oracle %v", body, gerr, werr)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("decoding %q: error %q, oracle %q", body, gerr, werr)
	case gerr == nil && (got.N != want.N || !bitsEqual(got.Data, want.Data)):
		t.Fatalf("decoding %q: matrix differs from the oracle's", body)
	}
}

// bitsEqual reports whether a and b hold the same float64 bits, nil-ness
// included.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkEncode asserts the encode property: enc, whatever its memo holds,
// renders d exactly as the oracle does.
func checkEncode(t *testing.T, enc *responseEncoder, d *gddr.Decision, version, elapsedUS int64) {
	t.Helper()
	got, err := enc.appendResponse(nil, "default", d, version, elapsedUS)
	want, werr := oracleEncode("default", d, version, elapsedUS)
	if (err != nil) != (werr != nil) {
		t.Fatalf("encode error %v, oracle %v", err, werr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("encoding differs from encoding/json:\n got %s\nwant %s", got, want)
	}
}

func FuzzRouteCodec(f *testing.F) {
	canonical := `{"demands":[[0,1.5,2e3],[3,0,-0],[4.25e-7,1E+2,0]]}`
	for _, body := range []string{
		canonical,
		" \t\n{ \"demands\" : [ [ 0 , 1 ] ,\r\n [ 2 , 0 ] ] } \n",
		`{"demands":[[0]]}`,
		`{"demands":[[0,-1],[1,0]]}`,
		`{"demands":[[5]]}`,
		`{"demands":[[0,1e400],[1,0]]}`,
		`{"demands":[[0,1e-400],[5e-324,0]]}`,
		`{"demands":[[0,01],[1,0]]}`,
		`{"demands":[[0,1.],[1,0]]}`,
		`{"demands":[[0,.5],[1,0]]}`,
		`{"demands":[[0,+1],[1,0]]}`,
		`{"demands":[[0,1e],[1,0]]}`,
		`{"demands":[[0,-],[1,0]]}`,
		`{"demands":[[0,1],[1]]}`,
		`{"demands":[[0,1,2],[1,0,2]]}`,
		`{"demands":[[0],[0]]}`,
		`{"demands":[[]]}`,
		`{"demands":[]}`,
		`{"demands":null}`,
		`{"Demands":[[0]]}`,
		`{"demands":[[0]]}`,
		`{"demands":[[0]],"demands":[[0]]}`,
		`{"demands":[[0]],"x":1}`,
		`{"demands":[[null]]}`,
		`{"demands":[[0]]}x`,
		`{"demands":[[0]]`,
		`[]`,
		``,
		`not json`,
	} {
		f.Add([]byte(body), []byte(nil), uint32(0))
	}
	special := floatBytes(0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.99999e-7, 1e21, 9.999999e20,
		-1e21, 123456789.125, 0.1, 1.0/3, math.MaxFloat64, -2.5e-9)
	for _, shape := range []uint32{
		0,                                   // weights, splits, loads, utilisation; no sinks
		13<<4 | 3<<8 | 5,                    // 13 sinks, ids up to 48, 2 edges
		10<<4 | 2<<1,                        // ten sinks: "10"... sort before "2"
		1 << 10,                             // nil weights
		1 << 11,                             // nil splits
		3<<4 | 1<<12,                        // a nil split row
		1<<13 | 1<<14,                       // nil loads and utilisation
		1<<15 | 1<<17 | 5<<16 | 4<<1 | 6<<4, // trace
		15 << 28,                            // no decision
	} {
		f.Add([]byte(canonical), special, shape)
	}
	// Zero first weight and split ratio: flipped to -0 they are equal by
	// value and must still miss the memo.
	f.Add([]byte(canonical), floatBytes(0.5, 1, 0, 0.25), uint32(3<<1|2<<4))
	f.Add([]byte(canonical), floatBytes(1, math.Inf(1)), uint32(3<<1|2<<4))
	f.Add([]byte(canonical), floatBytes(math.NaN()), uint32(1<<1))

	f.Fuzz(func(t *testing.T, body, raw []byte, shape uint32) {
		checkDecode(t, body)

		enc := new(responseEncoder)
		d := fuzzDecision(raw, shape)
		version, elapsed := int64(shape%5), int64(shape>>3)
		checkEncode(t, enc, d, version, elapsed) // a miss
		checkEncode(t, enc, d, version, elapsed) // the hit right after it
		if d == nil {
			return
		}
		moved := *d
		moved.Loads, moved.Utilization, moved.MaxUtilization = d.Utilization, d.Loads, d.Gamma
		checkEncode(t, enc, &moved, version, elapsed+1) // same strategy, new demand
		for _, vary := range []func(*gddr.Decision){
			func(v *gddr.Decision) { v.Gamma = -v.Gamma },
			func(v *gddr.Decision) { v.Weights = flipFirst(v.Weights) },
			func(v *gddr.Decision) { v.Splits = flipSplits(v.Splits) },
		} {
			varied := *d
			vary(&varied)
			checkEncode(t, enc, &varied, version, elapsed) // one bit of the strategy differs
			checkEncode(t, enc, d, version, elapsed)       // and back
		}
	})
}

// flipFirst returns xs changed in one bit of what encoding/json renders:
// the first value's sign, or nil and empty swapped.
func flipFirst(xs []float64) []float64 {
	switch {
	case xs == nil:
		return []float64{}
	case len(xs) == 0:
		return nil
	}
	xs = slices.Clone(xs)
	xs[0] = -xs[0]
	return xs
}

// flipSplits returns splits changed in one bit: the lowest sink's row
// flipped, or nil and empty swapped.
func flipSplits(splits map[int][]float64) map[int][]float64 {
	switch {
	case splits == nil:
		return map[int][]float64{}
	case len(splits) == 0:
		return nil
	}
	out := maps.Clone(splits)
	sink := slices.Min(slices.Collect(maps.Keys(splits)))
	out[sink] = flipFirst(out[sink])
	return out
}

// TestResponseEncoderConcurrent shares one encoder between goroutines that
// alternate two strategies, so the segment memo is replaced under readers.
func TestResponseEncoderConcurrent(t *testing.T) {
	raw := floatBytes(0.25, 1, 3.5e-7, 12345.678, 0, 2)
	decisions := []*gddr.Decision{fuzzDecision(raw, 12<<4|3<<1), fuzzDecision(raw[8:], 12<<4|3<<1|1<<15)}
	var want [][]byte
	for _, d := range decisions {
		b, err := oracleEncode("default", d, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	enc := new(responseEncoder)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []byte
			for i := range 500 {
				k := (g + i) % 2
				var err error
				if out, err = enc.appendResponse(out[:0], "default", decisions[k], 3, 7); err != nil || !bytes.Equal(out, want[k]) {
					t.Errorf("goroutine %d, request %d: %v\n got %s\nwant %s", g, i, err, out, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestScannerNumberMatchesParseFloat checks the number scanner's own
// conversion against strconv.ParseFloat, the one encoding/json uses, on
// random values in every form a client's encoder may write them.
func TestScannerNumberMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		v := math.Float64frombits(rng.Uint64())
		switch rng.Intn(4) {
		case 0:
			v = 1000 * rng.Float64()
		case 1:
			v = math.Round(rng.NormFloat64()*1e6) / 1e3
		case 2:
			v = float64(rng.Int63n(1<<54)) * math.Pow10(rng.Intn(50)-25)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		for _, lit := range []string{
			strconv.FormatFloat(v, 'f', -1, 64),
			strconv.FormatFloat(v, 'e', -1, 64),
			strconv.FormatFloat(v, 'E', rng.Intn(20), 64),
			strconv.FormatFloat(v, 'f', rng.Intn(25), 64),
			strconv.FormatFloat(v, 'g', rng.Intn(25), 64),
		} {
			want, werr := strconv.ParseFloat(lit, 64)
			s := scanner{b: []byte(lit)}
			got, ok := s.number()
			if ok != (werr == nil) || (ok && math.Float64bits(got) != math.Float64bits(want)) || (ok && s.i != len(lit)) {
				t.Fatalf("%s: scanned %v (ok %v), ParseFloat %v (%v)", lit, got, ok, want, werr)
			}
		}
	}
}

// geantBody is a Géant-sized (22-node) steady demand body, rendered as
// encoding/json renders a client's float64 demands.
func geantBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	return []byte(routeBody(tb, demandRows(22, func(s, t int) float64 { return 1000 * rng.Float64() })))
}

// TestRouteCodecAllocs pins the codec's allocations: an encode that hits
// the strategy-segment memo allocates nothing, and the fast decode only the
// DemandMatrix and its Data.
func TestRouteCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instruments allocations")
	}
	fleet := newTestFleet(t, "geant")
	tenant, err := fleet.Tenant("default")
	if err != nil {
		t.Fatal(err)
	}
	body := geantBody(t)
	dm, row, ok := parseDemands(body, nil)
	if !ok {
		t.Fatal("fast path declined the canonical body")
	}
	if n := testing.AllocsPerRun(100, func() { _, row, _ = parseDemands(body, row) }); n > 2 {
		t.Errorf("fast decode: %v allocations, want <= 2", n)
	}
	d, err := tenant.Route(context.Background(), dm)
	if err != nil {
		t.Fatal(err)
	}
	enc := new(responseEncoder)
	out, err := enc.appendResponse(nil, "default", d, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { out, _ = enc.appendResponse(out[:0], "default", d, 1, 12) }); n != 0 {
		t.Errorf("memo-hit encode: %v allocations, want 0", n)
	}
}

// TestRouteStageTiming checks the per-stage gateway timing: a Server-Timing
// header on each decision, and one histogram observation per stage.
func TestRouteStageTiming(t *testing.T) {
	fleet := newTestFleet(t, "abilene")
	h := routeMux(fleet, handleRoute)
	body := routeBody(t, demandRows(11, func(s, t int) float64 { return 100 }))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/route", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	timing := rec.Header().Get("Server-Timing")
	for _, stage := range []string{"read;dur=", "decode;dur=", "route;dur=", "encode;dur="} {
		if !strings.Contains(timing, stage) {
			t.Errorf("Server-Timing %q lacks %q", timing, stage)
		}
	}
	var expo strings.Builder
	if err := fleet.Metrics().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, stage := range stageNames {
		want := `gddr_http_route_stage_seconds_count{stage="` + stage + `"} 1`
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
}

// BenchmarkRouteHandler times one steady Géant /route request through the
// gateway's middleware and handler, on the encoding/json oracle codec and
// on the hand-written one.
func BenchmarkRouteHandler(b *testing.B) {
	body := geantBody(b)
	for _, bc := range []struct {
		name  string
		route func(*gddr.Fleet, string) http.HandlerFunc
	}{
		{"codec=oracle", oracleHandleRoute},
		{"codec=fast", handleRoute},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := routeMux(newTestFleet(b, "geant"), bc.route)
			b.ReportAllocs()
			for b.Loop() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/route", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
