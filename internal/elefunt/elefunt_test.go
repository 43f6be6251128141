package elefunt

import (
	"math"
	"strings"
	"testing"

	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

func TestAllFunctionsAccurate(t *testing.T) {
	rs := RunAll()
	if len(rs) != 5 {
		t.Fatalf("RunAll returned %d results, want 5", len(rs))
	}
	if !AllPass(rs) {
		for _, r := range rs {
			if !r.Pass {
				t.Errorf("accuracy test failed: %s", r)
			}
		}
	}
	for i, name := range Functions {
		if rs[i].Function != name {
			t.Errorf("result %d is %s, want %s", i, rs[i].Function, name)
		}
		if rs[i].Samples < 1000 {
			t.Errorf("%s tested only %d samples", name, rs[i].Samples)
		}
		if rs[i].RMSULP > rs[i].MaxULP {
			t.Errorf("%s: RMS %v exceeds max %v", name, rs[i].RMSULP, rs[i].MaxULP)
		}
	}
}

func TestSqrtExactOnIEEE(t *testing.T) {
	// IEEE sqrt is correctly rounded; squaring an exactly-representable
	// product and rooting it must be exact.
	r := TestSqrt()
	if r.MaxULP != 0 {
		t.Errorf("SQRT max error %v ulp, want 0 on IEEE hosts", r.MaxULP)
	}
}

func TestULPError(t *testing.T) {
	if e := ulpError(1.0, 1.0); e != 0 {
		t.Errorf("ulpError(equal) = %v", e)
	}
	next := 1.0 + 2.220446049250313e-16
	if e := ulpError(next, 1.0); e < 0.5 || e > 2 {
		t.Errorf("one-ulp error measured as %v", e)
	}
}

func TestTruncateBits(t *testing.T) {
	x := truncateBits(1.23456789, 26)
	// The square of a 26-bit significand is exact in float64.
	if x <= 0 || x > 1.23456789 {
		t.Errorf("truncateBits moved value wrongly: %v", x)
	}
	y := x * x
	if y/x != x {
		t.Errorf("square of truncated value is not exact")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Function: "EXP", MaxULP: 1.5, Pass: true}
	if !strings.Contains(r.String(), "PASS") {
		t.Error("String missing PASS")
	}
	r.Pass = false
	if !strings.Contains(r.String(), "FAIL") {
		t.Error("String missing FAIL")
	}
}

func TestPerfTraceRates(t *testing.T) {
	// Table 3: single-processor 64-bit intrinsic rates in millions of
	// calls per second. Vectorized intrinsics on the SX-4/1 should run
	// at tens to a few hundred Mcalls/s, with SQRT fastest and PWR
	// slowest.
	m := sx4.New(sx4.BenchmarkedSingleCPU())
	n := 1 << 20
	rate := map[string]float64{}
	for _, fn := range Functions {
		r := m.Run(prog.MustCompile(PerfTrace(fn, n)), sx4.RunOpts{Procs: 1})
		rate[fn] = float64(PerfCalls(n)) / r.Seconds / 1e6
	}
	if !(rate["SQRT"] > rate["EXP"]) {
		t.Errorf("SQRT (%.0f) should outrun EXP (%.0f)", rate["SQRT"], rate["EXP"])
	}
	if !(rate["EXP"] > rate["PWR"]) {
		t.Errorf("EXP (%.0f) should outrun PWR (%.0f)", rate["EXP"], rate["PWR"])
	}
	for fn, v := range rate {
		if v < 10 || v > 400 {
			t.Errorf("%s rate = %.0f Mcalls/s, want within [10, 400]", fn, v)
		}
	}
}

// sloppyExp is a deliberately broken "optimized" exponential: a
// truncated Taylor series with crude power-of-two range reduction, the
// kind of shortcut a fast vector library might take.
func sloppyExp(x float64) float64 {
	n := 0
	for x > 0.5 {
		x /= 2
		n++
	}
	for x < -0.5 {
		x /= 2
		n++
	}
	// 4-term Taylor polynomial.
	p := 1 + x*(1+x*(0.5+x*(1.0/6)))
	for ; n > 0; n-- {
		p *= p
	}
	return p
}

func TestDetectsSloppyLibrary(t *testing.T) {
	// The accuracy category must reject a fast-but-wrong vendor EXP
	// while accepting the host's correct one.
	good := TestExpImpl(math.Exp)
	if !good.Pass {
		t.Fatalf("host EXP rejected: %v", good)
	}
	bad := TestExpImpl(sloppyExp)
	if bad.Pass {
		t.Errorf("sloppy EXP passed the identity test: max %.1f ulp <= bound %.1f", bad.MaxULP, bad.Bound)
	}
	if bad.MaxULP < 100 {
		t.Errorf("sloppy EXP error only %.1f ulp; the test should expose it clearly", bad.MaxULP)
	}
}

func TestIntrinsicOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown function did not panic")
		}
	}()
	intrinsicOf("TAN")
}
