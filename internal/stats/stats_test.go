package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std: %v", s.Std)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty: %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {105, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("P%v: got %v want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSlope(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	got, err := Slope(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("slope: %v want 2", got)
	}
	down, _ := Slope(x, []float64{8, 6, 4, 2})
	if down >= 0 {
		t.Fatalf("descending slope: %v", down)
	}
}

func TestSlopeErrors(t *testing.T) {
	if _, err := Slope([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Slope([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := Slope([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
}

func TestWelchT(t *testing.T) {
	a := []float64{1, 2, 3, 2, 1, 2, 3, 2}
	b := []float64{10, 11, 12, 11, 10, 11, 12, 11}
	tstat, dof, err := WelchT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tstat >= 0 {
		t.Fatalf("a << b should give negative t, got %v", tstat)
	}
	if dof <= 1 {
		t.Fatalf("dof: %v", dof)
	}
	// Symmetric: swapping sides flips the sign.
	tstat2, _, _ := WelchT(b, a)
	if math.Abs(tstat+tstat2) > 1e-12 {
		t.Fatalf("asymmetric: %v vs %v", tstat, tstat2)
	}
}

func TestWelchTErrors(t *testing.T) {
	if _, _, err := WelchT([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, _, err := WelchT([]float64{2, 2}, []float64{2, 2}); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(clean, pa) <= Percentile(clean, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
