package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDemandMatrixBasics(t *testing.T) {
	d := NewDemandMatrix(3)
	d.Set(0, 1, 5)
	d.Set(1, 2, 7)
	if d.At(0, 1) != 5 || d.At(1, 2) != 7 || d.At(2, 0) != 0 {
		t.Fatal("at/set wrong")
	}
	if d.Total() != 12 {
		t.Fatalf("total=%g", d.Total())
	}
	if d.OutSum(1) != 7 || d.InSum(2) != 7 || d.InSum(1) != 5 {
		t.Fatal("in/out sums wrong")
	}
	if d.MaxEntry() != 7 {
		t.Fatalf("max=%g", d.MaxEntry())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadMatrices(t *testing.T) {
	for _, tc := range []struct {
		name    string
		s, t    int
		v       float64
		wantErr bool
	}{
		{name: "valid", s: 0, t: 1, v: 5},
		{name: "negative", s: 0, t: 1, v: -1, wantErr: true},
		{name: "NaN", s: 0, t: 1, v: math.NaN(), wantErr: true},
		{name: "+Inf", s: 1, t: 0, v: math.Inf(1), wantErr: true},
		{name: "-Inf", s: 1, t: 0, v: math.Inf(-1), wantErr: true},
		{name: "non-zero diagonal", s: 1, t: 1, v: 1, wantErr: true},
		{name: "NaN diagonal", s: 0, t: 0, v: math.NaN(), wantErr: true},
	} {
		d := NewDemandMatrix(2)
		d.Set(tc.s, tc.t, tc.v)
		if err := d.Validate(); (err != nil) != tc.wantErr {
			t.Errorf("%s: Validate() = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
	if err := (&DemandMatrix{N: 2, Data: make([]float64, 3)}).Validate(); err == nil {
		t.Error("short data slice accepted")
	}
}

func TestCloneAndScale(t *testing.T) {
	d := NewDemandMatrix(2)
	d.Set(0, 1, 4)
	c := d.Clone().Scale(0.5)
	if c.At(0, 1) != 2 || d.At(0, 1) != 4 {
		t.Fatal("clone/scale aliasing")
	}
}

func TestBimodalProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Bimodal(6, DefaultBimodal(), rng)
		return d.Validate() == nil && d.Total() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBimodalMeanInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := DefaultBimodal()
	var sum float64
	var count int
	for trial := 0; trial < 50; trial++ {
		d := Bimodal(8, p, rng)
		for s := 0; s < 8; s++ {
			for dst := 0; dst < 8; dst++ {
				if s != dst {
					sum += d.At(s, dst)
					count++
				}
			}
		}
	}
	mean := sum / float64(count)
	// Expected mean = 0.8*400 + 0.2*800 = 480.
	if mean < 440 || mean > 520 {
		t.Fatalf("bimodal empirical mean %g outside [440,520]", mean)
	}
}

func TestBimodalDeterministicGivenSeed(t *testing.T) {
	a := Bimodal(5, DefaultBimodal(), rand.New(rand.NewSource(3)))
	b := Bimodal(5, DefaultBimodal(), rand.New(rand.NewSource(3)))
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("bimodal not deterministic for equal seeds")
		}
	}
}

func TestGravityTotalMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := Gravity(7, 1000, rng)
	if math.Abs(d.Total()-1000) > 1e-6 {
		t.Fatalf("gravity total %g want 1000", d.Total())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSparsify(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := Bimodal(10, DefaultBimodal(), rng)
	s := Sparsify(d, 0.3, rng)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range s.Data {
		if v == 0 {
			zeros++
		}
	}
	// 90 off-diagonal entries; ~63 should be zeroed plus 10 diagonal.
	if zeros < 40 {
		t.Fatalf("sparsify kept too much: %d zero entries", zeros)
	}
	if s.Total() >= d.Total() {
		t.Fatal("sparsify did not reduce total")
	}
}

func TestCyclicalSequenceRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seq, err := BimodalCyclical(4, 10, 3, DefaultBimodal(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 10 {
		t.Fatalf("len=%d want 10", len(seq))
	}
	// x_i == x_{i mod q} — same pointer by construction.
	for i := range seq {
		if seq[i] != seq[i%3] {
			t.Fatalf("cyclical property violated at %d", i)
		}
	}
	if seq[0] == seq[1] {
		t.Fatal("distinct base matrices expected")
	}
}

func TestCyclicalSequenceRejectsBadDims(t *testing.T) {
	if _, err := CyclicalSequence(0, 3, nil); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := CyclicalSequence(5, 0, nil); err == nil {
		t.Fatal("zero cycle accepted")
	}
}

func TestSequencesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqs, err := Sequences(3, 4, 6, 2, DefaultBimodal(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("count=%d", len(seqs))
	}
	if seqs[0][0] == seqs[1][0] {
		t.Fatal("sequences share base matrices")
	}
}

func TestDiurnalSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := DefaultDiurnal()
	seq, err := DiurnalSequence(6, 48, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 48 {
		t.Fatalf("len=%d", len(seq))
	}
	// Trough at phase 0, peak at phase Period/2; totals oscillate within
	// [BaseTotal, BaseTotal*PeakRatio].
	if math.Abs(seq[0].Total()-p.BaseTotal) > 1e-6*p.BaseTotal {
		t.Fatalf("trough total %g want %g", seq[0].Total(), p.BaseTotal)
	}
	peak := seq[p.Period/2].Total()
	if math.Abs(peak-p.BaseTotal*p.PeakRatio) > 1e-6*peak {
		t.Fatalf("peak total %g want %g", peak, p.BaseTotal*p.PeakRatio)
	}
	// Exact periodicity.
	for i := 0; i+p.Period < len(seq); i++ {
		if math.Abs(seq[i].Total()-seq[i+p.Period].Total()) > 1e-9*seq[i].Total() {
			t.Fatalf("period violated at %d", i)
		}
	}
	for _, dm := range seq {
		if err := dm.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiurnalValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if _, err := DiurnalSequence(4, 10, DiurnalParams{Period: 1, PeakRatio: 2, BaseTotal: 1}, rng); err == nil {
		t.Fatal("period 1 accepted")
	}
	if _, err := DiurnalSequence(4, 10, DiurnalParams{Period: 4, PeakRatio: 1, BaseTotal: 1}, rng); err == nil {
		t.Fatal("flat peak ratio accepted")
	}
	if _, err := DiurnalSequence(4, 0, DefaultDiurnal(), rng); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestWithoutNodeRenumbers(t *testing.T) {
	d := NewDemandMatrix(4)
	for s := 0; s < 4; s++ {
		for u := 0; u < 4; u++ {
			if s != u {
				d.Set(s, u, float64(10*s+u))
			}
		}
	}
	out, err := d.WithoutNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 3 {
		t.Fatalf("N=%d want 3", out.N)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Old ids {0,2,3} map to new ids {0,1,2}.
	old := []int{0, 2, 3}
	for ns, s := range old {
		for nt, u := range old {
			if s == u {
				continue
			}
			if got, want := out.At(ns, nt), d.At(s, u); got != want {
				t.Fatalf("entry (%d,%d)=%g want %g (old (%d,%d))", ns, nt, got, want, s, u)
			}
		}
	}
	if _, err := d.WithoutNode(4); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	one := NewDemandMatrix(1)
	if _, err := one.WithoutNode(0); err == nil {
		t.Fatal("shrinking a 1-node matrix accepted")
	}
}

func TestWithNodeGrowsWithZeroDemand(t *testing.T) {
	d := NewDemandMatrix(3)
	d.Set(0, 2, 5)
	d.Set(2, 1, 7)
	out := d.WithNode()
	if out.N != 4 {
		t.Fatalf("N=%d want 4", out.N)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.At(0, 2) != 5 || out.At(2, 1) != 7 {
		t.Fatal("existing demands not preserved")
	}
	if out.OutSum(3) != 0 || out.InSum(3) != 0 {
		t.Fatal("new node has non-zero demand")
	}
	if d.N != 3 {
		t.Fatal("original matrix modified")
	}
}

func TestInSumsMatchesInSum(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	d := Bimodal(9, DefaultBimodal(), rng)
	sums := make([]float64, d.N)
	d.InSums(sums)
	for v := 0; v < d.N; v++ {
		if sums[v] != d.InSum(v) {
			t.Fatalf("node %d: InSums %g != InSum %g", v, sums[v], d.InSum(v))
		}
	}
	// The buffer is overwritten, not accumulated into.
	d.InSums(sums)
	for v := 0; v < d.N; v++ {
		if sums[v] != d.InSum(v) {
			t.Fatalf("node %d double-counted on InSums reuse: %g", v, sums[v])
		}
	}
}

func TestDemandMatrixEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	a := Bimodal(5, DefaultBimodal(), rng)
	if !a.Equal(a) {
		t.Fatal("matrix not equal to itself")
	}
	b := a.Clone()
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("clone not equal")
	}
	b.Set(1, 2, b.At(1, 2)+1)
	if a.Equal(b) {
		t.Fatal("differing matrices equal")
	}
	if a.Equal(NewDemandMatrix(4)) {
		t.Fatal("differently sized matrices equal")
	}
	if a.Equal(nil) {
		t.Fatal("nil matrix equal")
	}
}
