package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gddr"
)

// The /route codec. Both of the gateway's hot bodies are written by hand,
// byte-compatible with encoding/json: the request parser takes the
// canonical {"demands":[[…],…]} body and hands every other body to
// encoding/json, and the response encoder renders exactly what
// json.Encoder renders. main_test.go holds the reflective codec these
// functions are tested against.

// routeBuffers is one request's pooled scratch: the body as read, the first
// demand row while N is still unknown, and the rendered response.
type routeBuffers struct {
	body bytes.Buffer
	row  []float64
	out  []byte
}

var routeBufferPool = sync.Pool{New: func() any { return new(routeBuffers) }}

// maxPooledBuffer caps the buffers the pool keeps: a rare huge body is left
// to the collector rather than pinned for the life of the process.
const maxPooledBuffer = 1 << 20

func putRouteBuffers(b *routeBuffers) {
	if b.body.Cap() > maxPooledBuffer || cap(b.out) > maxPooledBuffer || cap(b.row)*8 > maxPooledBuffer {
		return
	}
	routeBufferPool.Put(b)
}

// decodeRoute turns a /route body into a validated demand matrix. readErr
// is the error that cut the body short, if any: encoding/json then sees it
// exactly where reading the stream would have raised it, so every status
// and message is the reflective decoder's.
func decodeRoute(buf *routeBuffers, readErr error) (*gddr.DemandMatrix, error) {
	if readErr == nil {
		var dm *gddr.DemandMatrix
		var ok bool
		if dm, buf.row, ok = parseDemands(buf.body.Bytes(), buf.row); ok {
			if err := dm.Validate(); err != nil {
				return nil, err
			}
			return dm, nil
		}
	}
	var r io.Reader = bytes.NewReader(buf.body.Bytes())
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	var req routeRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid route request: %w", err)
	}
	return demandMatrix(req.Demands)
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// routeRequest is the /route body as encoding/json reads it.
type routeRequest struct {
	// Demands is the N×N demand matrix, row-major: Demands[s][t] is the
	// traffic from node s to node t.
	Demands [][]float64 `json:"demands"`
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

// parseDemands parses the canonical route body: JSON whitespace between
// tokens, one object whose only key is spelt exactly "demands", and a
// square, non-empty matrix of JSON numbers. It parses straight into one
// fresh DemandMatrix — the router keeps the pointer in its demand history,
// so the matrix is never pooled — and declines (ok false) on any other
// input, which encoding/json then decides. row is scratch for the first
// row, whose length fixes N.
func parseDemands(body []byte, row []float64) (_ *gddr.DemandMatrix, _ []float64, ok bool) {
	s := scanner{b: body}
	if !s.token("{") || !s.token(`"demands"`) || !s.token(":") || !s.token("[") {
		return nil, row, false
	}
	row = row[:0]
	var dm *gddr.DemandMatrix
	n := 0
	for i := 0; ; i++ {
		if !s.token("[") {
			return nil, row, false
		}
		for j := 0; ; j++ {
			v, ok := s.number()
			switch {
			case !ok:
				return nil, row, false
			case dm == nil:
				row = append(row, v)
			case j < n:
				dm.Data[i*n+j] = v
			default:
				return nil, row, false
			}
			if s.token("]") {
				if dm == nil {
					// Each entry takes at least a digit and a separator, so a
					// square matrix of this width cannot fit in a shorter body.
					n = j + 1
					if 2*n*n > len(body) {
						return nil, row, false
					}
					dm = &gddr.DemandMatrix{N: n, Data: make([]float64, n*n)}
					copy(dm.Data, row)
				} else if j+1 != n {
					return nil, row, false
				}
				break
			}
			if !s.token(",") {
				return nil, row, false
			}
		}
		if s.token("]") {
			if i+1 != n {
				return nil, row, false
			}
			break
		}
		if i+1 == n || !s.token(",") {
			return nil, row, false
		}
	}
	if !s.token("}") {
		return nil, row, false
	}
	s.space()
	return dm, row, s.i == len(s.b)
}

// scanner walks a JSON body one token at a time.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	b, i := s.b, s.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.i = i
}

// token skips whitespace and consumes lit if it comes next.
func (s *scanner) token(lit string) bool {
	s.space()
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// number skips whitespace and consumes one number in JSON's grammar,
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, converted as
// encoding/json converts it. ok is false on anything else, and on numbers
// out of float64's range.
//
// The digits are gathered while the grammar is checked. When they form an
// integer below 2^53 scaled by at most 10^±22, both factors are exact and
// one IEEE multiply or divide rounds their product correctly — the value
// strconv.ParseFloat returns, which every other number goes through.
func (s *scanner) number() (v float64, ok bool) {
	s.space()
	b, i := s.b, s.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	digits, exp := 0, 0
	switch {
	case i < len(b) && b[i] == '0':
		i, digits = i+1, 1
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			mant, digits = 10*mant+uint64(b[i]-'0'), digits+1
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			mant, digits, exp = 10*mant+uint64(b[i]-'0'), digits+1, exp-1
		}
		if i == frac {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		e, first := 0, i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if e < 1000 {
				e = 10*e + int(b[i]-'0')
			}
		}
		if i == first {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	s.i = i
	if digits <= 19 && mant <= 1<<53 && -22 <= exp && exp <= 22 {
		v = float64(mant)
		if exp < 0 {
			v /= pow10[-exp]
		} else {
			v *= pow10[exp]
		}
		if neg {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	return v, err == nil
}

// responseEncoder renders /route responses byte for byte as
//
//	json.NewEncoder(w).Encode(map[string]any{"tenant": …, "decision": d,
//		"topology_version": …, "elapsed_us": …})
//
// does: keys sorted, Decision fields in struct order, splits keyed in string
// order, encoding/json's float format, null for nil values, and the
// trailing newline. The decision's weights, gamma and splits — fixed by the
// serving strategy, and most of the bytes — are rendered once per strategy:
// last is the most recently rendered segment, reused while a decision's
// values are bit-equal to the ones it was rendered from. Being keyed by
// value, it needs to know nothing of tenants, topology versions or router
// caches.
type responseEncoder struct {
	last atomic.Pointer[strategySegment]
}

// strategySegment is `"weights":…,"gamma":…,"splits":{…}` rendered from
// copies of the values it holds. Immutable once published.
type strategySegment struct {
	weights []float64
	gamma   float64
	splits  map[int][]float64
	text    []byte
}

// appendResponse appends the response carrying d to b. It fails, having
// rendered nothing usable, when d holds a value JSON cannot carry (NaN or
// ±Inf).
func (e *responseEncoder) appendResponse(b []byte, tenant string, d *gddr.Decision, version, elapsedUS int64) ([]byte, error) {
	b = append(b, `{"decision":`...)
	if d == nil {
		b = append(b, "null"...)
	} else {
		seg := e.last.Load()
		if seg == nil || !seg.matches(d) {
			var err error
			if seg, err = newStrategySegment(d); err != nil {
				return b, err
			}
			e.last.Store(seg)
		}
		b = append(append(b, '{'), seg.text...)
		var err error
		if b, err = appendFloats(append(b, `,"loads":`...), "loads", d.Loads); err != nil {
			return b, err
		}
		if b, err = appendFloats(append(b, `,"utilization":`...), "utilization", d.Utilization); err != nil {
			return b, err
		}
		if b, err = appendFloat(append(b, `,"max_utilization":`...), "max_utilization", d.MaxUtilization); err != nil {
			return b, err
		}
		if t := d.Trace; t != nil {
			b = strconv.AppendInt(append(b, `,"trace":{"batch_size":`...), int64(t.BatchSize), 10)
			b = strconv.AppendInt(append(b, `,"queue_wait_ns":`...), t.QueueWaitNS, 10)
			b = strconv.AppendInt(append(b, `,"observe_ns":`...), t.ObserveNS, 10)
			b = strconv.AppendInt(append(b, `,"forward_ns":`...), t.ForwardNS, 10)
			b = strconv.AppendInt(append(b, `,"strategy_ns":`...), t.StrategyNS, 10)
			b = strconv.AppendInt(append(b, `,"evaluate_ns":`...), t.EvaluateNS, 10)
			b = strconv.AppendBool(append(b, `,"policy_cache_hit":`...), t.PolicyCacheHit)
			b = strconv.AppendBool(append(b, `,"strategy_cache_hit":`...), t.StrategyCacheHit)
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	b = strconv.AppendInt(append(b, `,"elapsed_us":`...), elapsedUS, 10)
	// The tenant-id grammar ([a-z0-9_-]) leaves nothing to escape.
	b = append(append(append(b, `,"tenant":"`...), tenant...), '"')
	b = strconv.AppendInt(append(b, `,"topology_version":`...), version, 10)
	return append(b, "}\n"...), nil
}

// matches reports whether d's weights, gamma and splits are bit-equal to
// the segment's (so -0 and 0 differ), nil-ness included.
func (s *strategySegment) matches(d *gddr.Decision) bool {
	if !bitsEqual(s.weights, d.Weights) || math.Float64bits(s.gamma) != math.Float64bits(d.Gamma) ||
		(s.splits == nil) != (d.Splits == nil) || len(s.splits) != len(d.Splits) {
		return false
	}
	for sink, row := range d.Splits {
		mine, ok := s.splits[sink]
		if !ok || !bitsEqual(mine, row) {
			return false
		}
	}
	return true
}

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

func newStrategySegment(d *gddr.Decision) (*strategySegment, error) {
	s := &strategySegment{weights: slices.Clone(d.Weights), gamma: d.Gamma}
	b, err := appendFloats(append(make([]byte, 0, 1024), `"weights":`...), "weights", d.Weights)
	if err != nil {
		return nil, err
	}
	if b, err = appendFloat(append(b, `,"gamma":`...), "gamma", d.Gamma); err != nil {
		return nil, err
	}
	b = append(b, `,"splits":`...)
	if d.Splits == nil {
		s.text = append(b, "null"...)
		return s, nil
	}
	// encoding/json orders map keys by their string form: "10" before "2".
	type sinkRow struct {
		key string
		row []float64
	}
	rows := make([]sinkRow, 0, len(d.Splits))
	s.splits = make(map[int][]float64, len(d.Splits))
	for sink, row := range d.Splits {
		rows = append(rows, sinkRow{strconv.Itoa(sink), row})
		s.splits[sink] = slices.Clone(row)
	}
	slices.SortFunc(rows, func(a, b sinkRow) int { return strings.Compare(a.key, b.key) })
	b = append(b, '{')
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), r.key...), `":`...)
		if b, err = appendFloats(b, "splits", r.row); err != nil {
			return nil, err
		}
	}
	s.text = append(b, '}')
	return s, nil
}

// appendFloats appends xs as a JSON array, or null when xs is nil.
func appendFloats(b []byte, field string, xs []float64) ([]byte, error) {
	if xs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, v := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, field, v); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat formats v as encoding/json does: the shortest 'f' form, or
// the shortest 'e' form with e-09 written e-9 when |v| < 1e-6 or
// |v| >= 1e21. NaN and ±Inf have no JSON form.
func appendFloat(b []byte, field string, v float64) ([]byte, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return b, fmt.Errorf("decision %s holds %s: demands too large to route", field, strconv.FormatFloat(v, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}
