package smooth

import (
	"math"
	"math/rand"
	"testing"
)

func TestBeta(t *testing.T) {
	p := PrivacyParams{Epsilon: 0.7, Delta: 1e-7}
	got := Beta(p)
	want := 0.7 / (2 * math.Log(2/1e-7))
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("Beta = %g, want %g", got, want)
	}
}

func TestValidate(t *testing.T) {
	bad := []PrivacyParams{
		{Epsilon: 0, Delta: 1e-9},
		{Epsilon: -1, Delta: 1e-9},
		{Epsilon: 1, Delta: 0},
		{Epsilon: 1, Delta: 1},
		{Epsilon: 1, Delta: 2},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", p)
		}
	}
	if err := (PrivacyParams{Epsilon: 0.1, Delta: 1e-9}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

// TestTriangleSmoothPaperNumbers reproduces the Section 3.4 smoothing
// numbers using the polynomial the paper states (2k² + 199k + 8711) with
// ε = 0.7. The paper reports S = 8896.95 at k = 19; those values are
// consistent with δ = 1e-7 (the stated δ = 1e-8 appears to be a typo: it
// would yield the max near k = 40). We verify the published numbers under
// δ = 1e-7.
func TestTriangleSmoothPaperNumbers(t *testing.T) {
	p := PrivacyParams{Epsilon: 0.7, Delta: 1e-7}
	fn := func(k int) (float64, error) {
		kk := float64(k)
		return 2*kk*kk + 199*kk + 8711, nil
	}
	s, err := Smooth(fn, 1000, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.ArgK != 19 {
		t.Errorf("argmax k = %d, want 19", s.ArgK)
	}
	if math.Abs(s.S-8896.95) > 0.5 {
		t.Errorf("S = %.2f, want 8896.95", s.S)
	}
	// Noise scale 2S/ε ≈ 17793.9/0.7.
	wantScale := 2 * s.S / 0.7
	if math.Abs(s.NoiseScale(0.7)-wantScale) > 1e-9 {
		t.Errorf("NoiseScale = %g, want %g", s.NoiseScale(0.7), wantScale)
	}
	if math.Abs(s.NoiseScale(0.7)*0.7-17793.9) > 1.0 {
		t.Errorf("2S = %.1f, want ≈ 17793.9", s.NoiseScale(0.7)*0.7)
	}
}

func TestSmoothConstantSensitivity(t *testing.T) {
	// Constant Ŝ(k) = c maximizes at k = 0 with S = c.
	p := PrivacyParams{Epsilon: 0.1, Delta: 1e-9}
	s, err := Smooth(func(int) (float64, error) { return 5, nil }, 100, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.S != 5 || s.ArgK != 0 {
		t.Errorf("S = %g at k=%d, want 5 at 0", s.S, s.ArgK)
	}
}

func TestCutoffK(t *testing.T) {
	beta := 0.02
	if got := CutoffK(2, beta, 1000000); got != 100 {
		t.Errorf("CutoffK = %d, want 100", got)
	}
	if got := CutoffK(0, beta, 1000); got != 0 {
		t.Errorf("CutoffK degree 0 = %d, want 0", got)
	}
	if got := CutoffK(100, beta, 10); got != 10 {
		t.Errorf("CutoffK capped = %d, want 10", got)
	}
}

func TestSmoothWithCutoffMatchesFullSearch(t *testing.T) {
	// Theorem 3: the cutoff search finds the same max as a full search.
	p := PrivacyParams{Epsilon: 0.7, Delta: 1e-7}
	fn := func(k int) (float64, error) {
		kk := float64(k)
		return 3*kk*kk + 393*kk + 12871, nil
	}
	full, err := Smooth(fn, 100000, p)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := SmoothWithCutoff(fn, 2, 100000, p)
	if err != nil {
		t.Fatal(err)
	}
	if cut.S != full.S || cut.ArgK != full.ArgK {
		t.Errorf("cutoff search (%g, %d) != full search (%g, %d)",
			cut.S, cut.ArgK, full.S, full.ArgK)
	}
}

func TestSmoothErrorPropagation(t *testing.T) {
	p := PrivacyParams{Epsilon: 0.1, Delta: 1e-9}
	wantErr := func(k int) (float64, error) {
		if k == 3 {
			return 0, errFake
		}
		return 1, nil
	}
	if _, err := Smooth(wantErr, 10, p); err == nil {
		t.Error("expected propagated error")
	}
	neg := func(int) (float64, error) { return -1, nil }
	if _, err := Smooth(neg, 10, p); err == nil {
		t.Error("expected negative-sensitivity error")
	}
}

// TestSmoothRejectsNonFinite pins the fail-closed rule: one non-finite Ŝ(k)
// anywhere in the search range is an error. A NaN would otherwise fail both
// comparisons and drop out of the maximum unnoticed, and +Inf would yield an
// infinite noise scale.
func TestSmoothRejectsNonFinite(t *testing.T) {
	p := PrivacyParams{Epsilon: 0.1, Delta: 1e-9}
	for _, c := range []struct {
		name string
		bad  float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
	} {
		fn := func(k int) (float64, error) {
			if k == 3 {
				return c.bad, nil
			}
			return 1, nil
		}
		if got, err := Smooth(fn, 10, p); err == nil {
			t.Errorf("%s at k=3: got %+v, want an error", c.name, got)
		}
	}
}

var errFake = &fakeError{}

type fakeError struct{}

func (*fakeError) Error() string { return "fake" }

func TestDeltaForSize(t *testing.T) {
	for _, n := range []int{10, 1000, 1000000} {
		d := DeltaForSize(n)
		if d <= 0 || d >= 1 {
			t.Errorf("DeltaForSize(%d) = %g out of range", n, d)
		}
		want := math.Pow(float64(n), -math.Log(float64(n)))
		if math.Abs(d-want)/want > 1e-12 {
			t.Errorf("DeltaForSize(%d) = %g, want %g", n, d, want)
		}
	}
	// Monotone decreasing in n.
	if DeltaForSize(100) <= DeltaForSize(10000) {
		t.Error("delta should shrink with n")
	}
	if d := DeltaForSize(1); d <= 0 || d >= 1 {
		t.Errorf("small-n delta = %g", d)
	}
}

func TestLaplaceStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	scale := 3.0
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		x := Laplace(rng, scale)
		sum += x
		sumAbs += math.Abs(x)
	}
	mean := sum / n
	meanAbs := sumAbs / n // E|X| = scale for Laplace
	if math.Abs(mean) > 0.05 {
		t.Errorf("sample mean = %g, want ≈ 0", mean)
	}
	if math.Abs(meanAbs-scale) > 0.05 {
		t.Errorf("sample E|X| = %g, want ≈ %g", meanAbs, scale)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if x := Laplace(rng, 0); x != 0 {
		t.Errorf("Laplace(0 scale) = %g", x)
	}
}

func TestMechanismDeterministicWithSeed(t *testing.T) {
	s := Smoothed{S: 1, Beta: 0.1}
	m1 := NewMechanism(7)
	m2 := NewMechanism(7)
	for i := 0; i < 10; i++ {
		a := m1.Release(100, s, 0.5)
		b := m2.Release(100, s, 0.5)
		if a != b {
			t.Fatalf("same seed diverged: %g vs %g", a, b)
		}
	}
}

func TestForkDeterministicAndAsymmetric(t *testing.T) {
	s := Smoothed{S: 1, Beta: 0.1}
	// Same (seed, call) → identical stream.
	a := NewMechanism(7).Fork(3).Release(100, s, 0.5)
	b := NewMechanism(7).Fork(3).Release(100, s, 0.5)
	if a != b {
		t.Fatalf("same (seed, call) diverged: %g vs %g", a, b)
	}
	// Different calls from one seed → different streams.
	c := NewMechanism(7).Fork(4).Release(100, s, 0.5)
	if a == c {
		t.Error("calls 3 and 4 produced identical noise")
	}
	// (seed a, call b) must not equal (seed b, call a): the derivation is
	// chained, not a symmetric XOR of the two mixes.
	x := NewMechanism(3).Fork(9).Release(100, s, 0.5)
	y := NewMechanism(9).Fork(3).Release(100, s, 0.5)
	if x == y {
		t.Error("swapped (seed, call) pairs collapsed to one stream")
	}
}

func TestReleaseVec(t *testing.T) {
	m := NewMechanism(3)
	bounds := []Smoothed{{S: 1}, {S: 2}}
	out, err := m.ReleaseVec([]float64{10, 20}, bounds, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	if _, err := m.ReleaseVec([]float64{1}, bounds, 1.0); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestBudgetSequential(t *testing.T) {
	b := NewBudget(1.0, 1e-6)
	for i := 0; i < 10; i++ {
		if err := b.Spend(0.1, 1e-7); err != nil {
			t.Fatalf("spend %d failed: %v", i, err)
		}
	}
	if err := b.Spend(0.1, 0); err == nil {
		t.Error("11th spend should exhaust epsilon")
	}
	eps, delta := b.Spent()
	if math.Abs(eps-1.0) > 1e-9 || math.Abs(delta-1e-6) > 1e-15 {
		t.Errorf("spent = (%g, %g)", eps, delta)
	}
	if b.Queries() != 10 {
		t.Errorf("queries = %d", b.Queries())
	}
}

func TestBudgetDeltaExhaustion(t *testing.T) {
	b := NewBudget(10, 1e-9)
	if err := b.Spend(0.1, 1e-8); err == nil {
		t.Error("delta overdraw should fail")
	}
	eps, _ := b.Remaining()
	if eps != 10 {
		t.Errorf("failed spend must not consume budget: remaining eps = %g", eps)
	}
}

func TestStrongCompositionBeatsSequential(t *testing.T) {
	eps, delta := 0.1, 1e-9
	q := 1000
	seqEps, _ := SequentialComposition(eps, delta, q)
	strongEps, strongDelta := StrongComposition(eps, delta, q, 1e-6)
	if strongEps >= seqEps {
		t.Errorf("strong composition ε = %g not better than sequential %g", strongEps, seqEps)
	}
	if strongDelta <= float64(q)*delta {
		t.Errorf("strong composition δ = %g should include slack", strongDelta)
	}
	if e, d := StrongComposition(eps, delta, 0, 1e-6); e != 0 || d != 0 {
		t.Error("zero queries should cost nothing")
	}
}

func TestSparseVector(t *testing.T) {
	sv, err := NewSparseVector(11, 100, 1.0, 0.5, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Clearly-below probes should mostly return Above=false and never halt.
	belowHits := 0
	for i := 0; i < 50; i++ {
		r, err := sv.Probe(-1000)
		if err != nil {
			t.Fatal(err)
		}
		if r.Above {
			belowHits++
		}
	}
	if belowHits > 3 {
		t.Errorf("far-below probes returned above %d times", belowHits)
	}
	// Clearly-above probes release answers until the quota halts the vector.
	released := sv.Releases()
	for i := 0; released < 3; i++ {
		if i > 200 {
			t.Fatal("quota never reached")
		}
		r, err := sv.Probe(100000)
		if err != nil {
			t.Fatal(err)
		}
		if r.Above {
			released++
		}
	}
	if _, err := sv.Probe(100000); err != ErrSVTHalted {
		t.Errorf("expected halt, got %v", err)
	}
	if sv.TotalEpsilon() != 1.0 {
		t.Errorf("TotalEpsilon = %g", sv.TotalEpsilon())
	}
}

func TestSparseVectorValidation(t *testing.T) {
	if _, err := NewSparseVector(1, 0, 0, 0.1, 0.1, 1); err == nil {
		t.Error("zero sensitivity should fail")
	}
	if _, err := NewSparseVector(1, 0, 1, 0, 0.1, 1); err == nil {
		t.Error("zero eps1 should fail")
	}
	if _, err := NewSparseVector(1, 0, 1, 0.1, 0.1, 0); err == nil {
		t.Error("zero quota should fail")
	}
}
