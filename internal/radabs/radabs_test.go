package radabs

import (
	"testing"

	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

func TestColumnProfilePhysical(t *testing.T) {
	c := NewColumn(DefaultLevels)
	for k := 0; k < DefaultLevels; k++ {
		if c.Temp[k] < 180 || c.Temp[k] > 320 {
			t.Errorf("level %d temperature %v unphysical", k, c.Temp[k])
		}
		if c.H2O[k] < 0 || c.H2O[k] > 0.05 {
			t.Errorf("level %d moisture %v unphysical", k, c.H2O[k])
		}
		if k > 0 && c.Press[k] <= c.Press[k-1] {
			t.Errorf("pressure not increasing downward at level %d", k)
		}
	}
	if c.Press[DefaultLevels-1] > 102000 {
		t.Errorf("surface pressure %v too high", c.Press[DefaultLevels-1])
	}
}

func TestNewColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewColumn(1) did not panic")
		}
	}()
	NewColumn(1)
}

func TestAbsorptivityRange(t *testing.T) {
	a := Absorptivity(NewColumn(DefaultLevels))
	for k1 := range a {
		for k2 := range a[k1] {
			v := a[k1][k2]
			if k1 == k2 {
				if v != 0 {
					t.Errorf("diagonal abs[%d][%d] = %v, want 0", k1, k2, v)
				}
				continue
			}
			if v < 0 || v >= 1 {
				t.Errorf("abs[%d][%d] = %v out of [0,1)", k1, k2, v)
			}
			if v == 0 {
				t.Errorf("abs[%d][%d] = 0; distinct levels always absorb a little", k1, k2)
			}
		}
	}
}

func TestAbsorptivitySymmetricPath(t *testing.T) {
	a := Absorptivity(NewColumn(DefaultLevels))
	for k1 := range a {
		for k2 := range a[k1] {
			if a[k1][k2] != a[k2][k1] {
				t.Errorf("abs not symmetric at (%d,%d): %v vs %v", k1, k2, a[k1][k2], a[k2][k1])
			}
		}
	}
}

func TestAbsorptivityMonotoneInSeparation(t *testing.T) {
	// More intervening absorber means more absorption: moving the far
	// level further away must not decrease absorptivity.
	a := Absorptivity(NewColumn(DefaultLevels))
	for k2 := 2; k2 < DefaultLevels; k2++ {
		if a[0][k2] < a[0][k2-1]-1e-12 {
			t.Errorf("absorptivity decreased with separation: a[0][%d]=%v < a[0][%d]=%v",
				k2, a[0][k2], k2-1, a[0][k2-1])
		}
	}
}

func TestMoistColumnAbsorbsMore(t *testing.T) {
	dry := NewColumn(DefaultLevels)
	wet := NewColumn(DefaultLevels)
	for k := range wet.H2O {
		wet.H2O[k] *= 3
	}
	ad := Absorptivity(dry)
	aw := Absorptivity(wet)
	// Compare a mid-separation pair where the band is not saturated.
	k1, k2 := 0, DefaultLevels/2
	if ad[k1][k2] >= 0.99 {
		t.Fatalf("test pair already saturated: %v", ad[k1][k2])
	}
	if aw[k1][k2] <= ad[k1][k2] {
		t.Errorf("tripling moisture did not increase absorption: %v vs %v",
			aw[k1][k2], ad[k1][k2])
	}
}

func TestVectorMatchesScalar(t *testing.T) {
	// The vector-style implementation (vmath whole-array intrinsics)
	// must agree with the scalar one to library accuracy.
	c := NewColumn(DefaultLevels)
	scalar := Absorptivity(c)
	vector := AbsorptivityVector(c)
	for k1 := range scalar {
		for k2 := range scalar[k1] {
			d := scalar[k1][k2] - vector[k1][k2]
			if d < -1e-12 || d > 1e-12 {
				t.Fatalf("abs[%d][%d]: scalar %v vs vector %v", k1, k2,
					scalar[k1][k2], vector[k1][k2])
			}
		}
	}
}

func TestVectorSymmetricAndBounded(t *testing.T) {
	a := AbsorptivityVector(NewColumn(10))
	for k1 := range a {
		for k2 := range a[k1] {
			if a[k1][k2] != a[k2][k1] {
				t.Fatal("vector result not symmetric")
			}
			if a[k1][k2] < 0 || a[k1][k2] >= 1 {
				t.Fatalf("vector abs out of range: %v", a[k1][k2])
			}
		}
	}
}

func TestPairsAndFlops(t *testing.T) {
	if Pairs(18) != 18*17 {
		t.Errorf("Pairs(18) = %d", Pairs(18))
	}
	f := FlopsPerColumn(18)
	if f <= 0 {
		t.Fatalf("FlopsPerColumn = %d", f)
	}
	// Trace flop accounting must agree with the analytic count.
	p := Trace(100, 18)
	if got, want := p.Flops(), FlopsPerColumn(18)*100; got != want {
		t.Errorf("trace flops = %d, want %d", got, want)
	}
}

func TestSX4Calibration(t *testing.T) {
	// The paper: RADABS sustains 865.9 Cray Y-MP equivalent MFLOPS on
	// one CPU of the benchmarked SX-4. The model must land in band.
	m := sx4.New(sx4.BenchmarkedSingleCPU())
	p := Trace(BenchmarkColumns, DefaultLevels)
	r := m.Run(prog.MustCompile(p), sx4.RunOpts{Procs: 1})
	mf := r.MFLOPS()
	if mf < 780 || mf > 950 {
		t.Errorf("SX-4/1 RADABS = %.1f MFLOPS, want within [780, 950] (paper: 865.9)", mf)
	}
}

func TestEmbarrassinglyParallel(t *testing.T) {
	// RADABS is embarrassingly parallel in the horizontal: 32 CPUs
	// should speed it up nearly 32x.
	m := sx4.New(sx4.Benchmarked())
	p := Trace(BenchmarkColumns, DefaultLevels)
	t1 := m.Run(prog.MustCompile(p), sx4.RunOpts{Procs: 1}).Seconds
	t32 := m.Run(prog.MustCompile(p), sx4.RunOpts{Procs: 32}).Seconds
	if s := t1 / t32; s < 25 || s > 32.1 {
		t.Errorf("32-CPU RADABS speedup = %.1f, want within [25, 32]", s)
	}
}

func TestTracePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Trace(0,0) did not panic")
		}
	}()
	Trace(0, 0)
}

func TestIntrinsicMixMatchesAccounting(t *testing.T) {
	p := Trace(10, 4)
	counts := map[prog.Intrinsic]int{}
	for _, op := range p.Phases[0].Loops[0].Body {
		if op.Class == prog.VIntrinsic {
			counts[op.Intr]++
		}
	}
	if counts[prog.Exp] != expPerPair || counts[prog.Log] != logPerPair ||
		counts[prog.Pow] != powPerPair || counts[prog.Sqrt] != sqrtPerPair {
		t.Errorf("intrinsic mix %v does not match accounting", counts)
	}
}
