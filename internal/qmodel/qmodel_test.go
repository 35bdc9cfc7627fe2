package qmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMM1Formulas(t *testing.T) {
	wq, err := MM1WaitQueue(0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wq-7.0/3) > 1e-12 {
		t.Fatalf("Wq: %v want 2.333", wq)
	}
	w, _ := MM1Response(0.7, 1)
	if math.Abs(w-wq-1) > 1e-12 {
		t.Fatalf("W − Wq should be the service time 1: %v", w-wq)
	}
}

func TestMD1HalvesMM1Wait(t *testing.T) {
	mm1, _ := MM1WaitQueue(0.6, 1)
	md1, _ := MD1WaitQueue(0.6, 1)
	if math.Abs(md1*2-mm1) > 1e-12 {
		t.Fatalf("M/D/1 (%v) should be half M/M/1 (%v)", md1, mm1)
	}
}

func TestErlangCSingleServerIsRho(t *testing.T) {
	// With one server, P(wait) = ρ.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		c, err := ErlangC(rho, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(c-rho) > 1e-12 {
			t.Fatalf("ErlangC(1 server, ρ=%v): %v", rho, c)
		}
	}
}

func TestMMcReducesToMM1(t *testing.T) {
	wq1, _ := MM1WaitQueue(0.7, 1)
	wqc, err := MMcWaitQueue(0.7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wq1-wqc) > 1e-12 {
		t.Fatalf("M/M/1 vs M/M/c(1): %v vs %v", wq1, wqc)
	}
}

func TestMMcKnownValue(t *testing.T) {
	// Classic textbook case: λ=2, μ=1, c=3 → a=2, ρ=2/3.
	// Erlang C = (a^c/c!)/( (1-ρ)Σ_{k<c} a^k/k! + a^c/c! )
	//          = (8/6) / ( (1/3)(1+2+2) + 8/6 ) = 1.3333/(1.6667+1.3333) = 0.4444
	pc, err := ErlangC(2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pc-4.0/9) > 1e-9 {
		t.Fatalf("ErlangC: %v want 0.4444", pc)
	}
	wq, _ := MMcWaitQueue(2, 1, 3)
	if math.Abs(wq-(4.0/9)/1) > 1e-9 {
		t.Fatalf("Wq: %v want 0.4444", wq)
	}
}

func TestValidation(t *testing.T) {
	if _, err := MM1WaitQueue(1, 1); err == nil {
		t.Fatal("ρ=1 accepted")
	}
	if _, err := MM1WaitQueue(-1, 1); err == nil {
		t.Fatal("negative λ accepted")
	}
	if _, err := ErlangC(1, 1, 0); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := MMcWaitQueue(5, 1, 3); err == nil {
		t.Fatal("unstable M/M/c accepted")
	}
}

func TestErlangCInUnitIntervalProperty(t *testing.T) {
	f := func(lRaw, cRaw uint8) bool {
		c := 1 + int(cRaw)%16
		lambda := 0.01 + float64(lRaw)/256*float64(c)*0.95 // keep ρ<0.96
		pc, err := ErlangC(lambda, 1, c)
		if err != nil {
			return true // unstable corner skipped
		}
		return pc >= 0 && pc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitGrowsWithLoadProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		la := 0.01 + float64(aRaw)/256*0.9
		lb := 0.01 + float64(bRaw)/256*0.9
		if la > lb {
			la, lb = lb, la
		}
		wa, err1 := MM1WaitQueue(la, 1)
		wb, err2 := MM1WaitQueue(lb, 1)
		if err1 != nil || err2 != nil {
			return true
		}
		return wa <= wb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(11, 10) != 0.1 {
		t.Fatalf("rel err: %v", RelativeError(11, 10))
	}
	if RelativeError(5, 0) != 5 {
		t.Fatalf("zero-expected guard: %v", RelativeError(5, 0))
	}
}

// TestRelativeErrorEdges pins the corner cases plan's qmodel-differential
// band checks depend on: a zero expected value falls back to absolute
// error (sign-insensitively), and NaN on either side must propagate — a
// NaN comparison silently passing a `rel ≤ tol` band would make a broken
// measurement look calibrated.
func TestRelativeErrorEdges(t *testing.T) {
	if got := RelativeError(0.25, 0); got != 0.25 {
		t.Errorf("RelativeError(0.25, 0) = %v, want 0.25", got)
	}
	if got := RelativeError(-0.25, 0); got != 0.25 {
		t.Errorf("RelativeError(-0.25, 0) = %v, want 0.25", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Errorf("RelativeError(0, 0) = %v, want 0", got)
	}
	if got := RelativeError(math.NaN(), 1); !math.IsNaN(got) {
		t.Errorf("RelativeError(NaN, 1) = %v, want NaN", got)
	}
	if got := RelativeError(1, math.NaN()); !math.IsNaN(got) {
		t.Errorf("RelativeError(1, NaN) = %v, want NaN", got)
	}
	if got := RelativeError(math.NaN(), 0); !math.IsNaN(got) {
		t.Errorf("RelativeError(NaN, 0) = %v, want NaN", got)
	}
	// ±Inf expected: error is NaN only for Inf-Inf; an infinite expected
	// with finite observation yields... |obs-∞|/∞ = NaN per IEEE — pin it
	// so a future "improvement" cannot make Inf bands pass silently.
	if got := RelativeError(1, math.Inf(1)); !math.IsNaN(got) {
		t.Errorf("RelativeError(1, +Inf) = %v, want NaN", got)
	}
}
