package pop

import (
	"math"
	"testing"

	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

// small returns a cheap host configuration.
func small() *Model {
	return New(Config{Name: "test", NLon: 48, NLat: 24, NLev: 3, DxDeg: 7.5})
}

func TestShiftXPeriodic(t *testing.T) {
	f := NewField(4, 2)
	for i := range f.V {
		f.V[i] = float64(i)
	}
	s := f.ShiftX(1)
	// out(i) = f(i+1 mod 4)
	want := []float64{1, 2, 3, 0, 5, 6, 7, 4}
	for i := range want {
		if s.V[i] != want[i] {
			t.Fatalf("ShiftX: V[%d] = %v, want %v", i, s.V[i], want[i])
		}
	}
	// Shifting forward then back is the identity.
	rt := f.ShiftX(3).ShiftX(-3)
	for i := range f.V {
		if rt.V[i] != f.V[i] {
			t.Fatal("ShiftX round trip failed")
		}
	}
}

func TestShiftYClamped(t *testing.T) {
	f := NewField(2, 3)
	for i := range f.V {
		f.V[i] = float64(i)
	}
	s := f.ShiftY(1)
	// Row j takes row j+1; top row clamps to itself.
	want := []float64{2, 3, 4, 5, 4, 5}
	for i := range want {
		if s.V[i] != want[i] {
			t.Fatalf("ShiftY: V[%d] = %v, want %v", i, s.V[i], want[i])
		}
	}
}

func TestCGSolvesHelmholtz(t *testing.T) {
	m := small()
	dt := 1800.0
	rhs := NewField(m.Cfg.NLon, m.Cfg.NLat)
	for i := range rhs.V {
		rhs.V[i] = math.Sin(float64(i))
	}
	x, iters := m.SolveFreeSurface(rhs, dt)
	if iters == 0 {
		t.Log("warm start converged immediately")
	}
	// Verify A x = rhs.
	ax := m.applyHelmholtz(x, dt)
	var num, den float64
	for i := range rhs.V {
		d := ax.V[i] - rhs.V[i]
		num += d * d
		den += rhs.V[i] * rhs.V[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-8 {
		t.Errorf("CG residual %g, want < 1e-8", rel)
	}
}

func TestVolumeConserved(t *testing.T) {
	m := small()
	v0 := m.MeanEta()
	dt := 2 * m.GravityWaveCFL() // implicit scheme exceeds explicit CFL
	for i := 0; i < 20; i++ {
		m.Step(dt)
	}
	if d := math.Abs(m.MeanEta() - v0); d > 1e-10+1e-6*math.Abs(v0) {
		t.Errorf("mean eta drifted from %v by %v", v0, d)
	}
}

func TestSurfaceBumpRadiates(t *testing.T) {
	m := small()
	peak0 := m.MaxAbsEta()
	dt := m.GravityWaveCFL()
	for i := 0; i < 30; i++ {
		m.Step(dt)
	}
	peak1 := m.MaxAbsEta()
	if peak1 >= peak0 {
		t.Errorf("surface bump did not radiate: %v -> %v", peak0, peak1)
	}
	if math.IsNaN(peak1) {
		t.Fatal("surface went NaN")
	}
}

func TestImplicitStableBeyondCFL(t *testing.T) {
	// The free-surface solve lets POP take steps far beyond the
	// explicit gravity-wave CFL without blowing up.
	m := small()
	dt := 10 * m.GravityWaveCFL()
	for i := 0; i < 20; i++ {
		m.Step(dt)
	}
	if a := m.MaxAbsEta(); math.IsNaN(a) || a > 10 {
		t.Errorf("long-step integration unstable: max|eta| = %v", a)
	}
}

func TestTracersBounded(t *testing.T) {
	m := small()
	var lo0, hi0 = math.Inf(1), math.Inf(-1)
	for _, tf := range m.Temp {
		for _, v := range tf.V {
			lo0 = math.Min(lo0, v)
			hi0 = math.Max(hi0, v)
		}
	}
	dt := m.GravityWaveCFL()
	for i := 0; i < 20; i++ {
		m.Step(dt)
	}
	for _, tf := range m.Temp {
		for _, v := range tf.V {
			if v < lo0-1 || v > hi0+1 || math.IsNaN(v) {
				t.Fatalf("tracer escaped [%v,%v]: %v", lo0, hi0, v)
			}
		}
	}
}

func TestCGIterationCountReasonable(t *testing.T) {
	m := small()
	m.Step(1800)
	if m.CGIters < 1 || m.CGIters > 400 {
		t.Errorf("CG used %d iterations", m.CGIters)
	}
}

// --- performance model ---

func TestPaper537MFLOPS(t *testing.T) {
	// Paper: "we observed 537 Mflops on the 2-degree POP benchmark on
	// one processor of the SX-4" with CSHIFT not vectorizing.
	m := sx4.New(sx4.Benchmarked())
	got := SustainedMFLOPS(m)
	if got < 430 || got > 650 {
		t.Errorf("POP 2-degree = %.0f MFLOPS, want within [430, 650] (paper: 537)", got)
	}
}

func TestCSHIFTDominatesStep(t *testing.T) {
	m := sx4.New(sx4.Benchmarked())
	r := m.Run(prog.MustCompile(StepTrace(TwoDegree)), sx4.RunOpts{Procs: 1})
	var cshift, arith float64
	for _, ph := range r.Phases {
		switch ph.Name {
		case "cshift":
			cshift = ph.Clocks
		case "arithmetic":
			arith = ph.Clocks
		}
	}
	if cshift <= arith {
		t.Errorf("scalar CSHIFT (%.3g) should dominate vector arithmetic (%.3g)", cshift, arith)
	}
}

func TestVectorizedCSHIFTWouldHelp(t *testing.T) {
	m := sx4.New(sx4.Benchmarked())
	s := VectorizedCSHIFTSpeedup(m)
	if s < 1.5 || s > 20 {
		t.Errorf("vectorizing CSHIFT gives %.1fx, want a substantial [1.5, 20] gain", s)
	}
}

func TestStepFlopsScale(t *testing.T) {
	if StepFlops(TwoDegree) <= StepFlops(Config{Name: "s", NLon: 48, NLat: 24, NLev: 3}) {
		t.Error("2-degree step should cost more than the test grid")
	}
}
