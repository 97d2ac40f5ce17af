// Package determinism exercises the determinism analyzer: every forbidden
// construct carries a want expectation, every sanctioned idiom stays silent.
package determinism

import (
	"math/rand"
	"time"
)

// source is a stand-in for internal/rng.Source: explicit, serialisable
// stream state.
type source struct{ state uint64 }

func (s *source) Int63() int64    { s.state++; return int64(s.state) }
func (s *source) Seed(seed int64) { s.state = uint64(seed) }

func globalDraw() int {
	return rand.Intn(10) // want "global rand\.Intn draws from the process-wide source"
}

func hiddenState() *rand.Rand {
	return rand.New(rand.NewSource(1)) // want "rand\.NewSource hides its stream state"
}

func sanctionedStream() *rand.Rand {
	return rand.New(&source{}) // rand.New over an explicit stream is the contract
}

func allowedDraw() int64 {
	//gddr:allow determinism fixture exercises standalone-directive suppression
	src := rand.NewSource(42)
	return src.Int63()
}

func trailingAllowed() time.Time {
	return time.Now() //gddr:allow determinism fixture exercises trailing suppression
}

func wrongCheckAllowed() int {
	return rand.Int() //gddr:allow ctxflow another check's directive must not suppress // want "global rand\.Int draws"
}

func wallClock() time.Time {
	return time.Now() // want "time\.Now reads the wall clock"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time\.Since reads the wall clock"
}

func mapSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "float accumulation \(\+=\) inside map iteration"
	}
	return sum
}

func mapSumExplicit(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v // want "float accumulation \(x = x \+"
	}
	return sum
}

func mapCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // integer accumulation is exact, hence order-independent
	}
	return n
}

func sortedSum(keys []string, m map[string]float64) float64 {
	var sum float64
	for _, k := range keys {
		sum += m[k] // slice iteration has deterministic order
	}
	return sum
}
