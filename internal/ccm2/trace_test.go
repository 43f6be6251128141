package ccm2

import (
	"testing"

	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

func bench() *sx4.Machine { return sx4.New(sx4.Benchmarked()) }

func TestFig8T170Anchor(t *testing.T) {
	// Paper: CCM2 at T170L18 sustains 24 GFLOPS on the 32-processor
	// 9.2 ns system.
	m := bench()
	res, _ := ResolutionByName("T170L18")
	gf := SustainedGFLOPS(m, res, 32)
	if gf < 20 || gf > 28 {
		t.Errorf("T170L18 on 32 CPUs = %.1f GFLOPS, want within [20, 28] (paper: 24)", gf)
	}
}

func TestFig8ResolutionOrdering(t *testing.T) {
	// Long-vector problems run most efficiently: at 32 CPUs the
	// sustained rate must increase with resolution.
	m := bench()
	prev := 0.0
	for _, name := range []string{"T42L18", "T106L18", "T170L18"} {
		res, _ := ResolutionByName(name)
		gf := SustainedGFLOPS(m, res, 32)
		if gf <= prev {
			t.Errorf("GFLOPS not increasing with resolution at %s: %.1f <= %.1f", name, gf, prev)
		}
		prev = gf
	}
}

func TestFig8ScalingShape(t *testing.T) {
	// Speedup from 1 to 32 CPUs: T170 scales well, T42 visibly worse
	// but still above half-efficiency at 8 CPUs.
	m := bench()
	speedup := func(name string) float64 {
		res, _ := ResolutionByName(name)
		return StepSeconds(m, res, 1, 1) / StepSeconds(m, res, 32, 32)
	}
	s42 := speedup("T42L18")
	s170 := speedup("T170L18")
	if s170 <= s42 {
		t.Errorf("T170 speedup (%.1f) should exceed T42 (%.1f)", s170, s42)
	}
	if s42 < 10 || s42 > 26 {
		t.Errorf("T42 32-CPU speedup = %.1f, want within [10, 26]", s42)
	}
	if s170 < 22 || s170 > 32 {
		t.Errorf("T170 32-CPU speedup = %.1f, want within [22, 32]", s170)
	}
}

func TestFig8MonotoneInProcs(t *testing.T) {
	m := bench()
	res, _ := ResolutionByName("T106L18")
	prev := 0.0
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		gf := SustainedGFLOPS(m, res, p)
		if gf <= prev {
			t.Errorf("GFLOPS not increasing at %d CPUs: %.2f <= %.2f", p, gf, prev)
		}
		prev = gf
	}
}

func TestTable5Anchors(t *testing.T) {
	// Paper Table 5: one simulated year takes 1327.53 s at T42L18 and
	// 3452.48 s at T63L18 on the SX-4/32 (with daily history writes).
	m := bench()
	cases := []struct {
		name  string
		paper float64
	}{
		{"T42L18", 1327.53},
		{"T63L18", 3452.48},
	}
	for _, c := range cases {
		res, _ := ResolutionByName(c.name)
		_, _, total := YearSim(m, res, 32)
		lo, hi := 0.8*c.paper, 1.2*c.paper
		if total < lo || total > hi {
			t.Errorf("%s year = %.0f s, want within [%.0f, %.0f] (paper %.2f)",
				c.name, total, lo, hi, c.paper)
		}
	}
}

func TestTable5T63Writes15GB(t *testing.T) {
	res, _ := ResolutionByName("T63L18")
	gb := float64(365*HistoryBytesPerDay(res)) / 1e9
	if gb < 12 || gb > 18 {
		t.Errorf("T63L18 yearly history = %.1f GB, want ~15 GB", gb)
	}
}

func TestTable6Ensemble(t *testing.T) {
	// Paper Table 6: running eight concurrent 4-CPU copies degrades
	// each by only 1.89% relative to a single copy on an idle node.
	m := bench()
	r := EnsembleTest(m)
	if r.MultipleSeconds <= r.SingleSeconds {
		t.Fatalf("loaded node (%.1f s) should be slower than idle (%.1f s)",
			r.MultipleSeconds, r.SingleSeconds)
	}
	if r.DegradationPct < 1.0 || r.DegradationPct > 3.0 {
		t.Errorf("ensemble degradation = %.2f%%, want within [1, 3] (paper: 1.89%%)", r.DegradationPct)
	}
}

func TestStepFlopsGrowWithResolution(t *testing.T) {
	prev := int64(0)
	for _, r := range Resolutions {
		f := StepFlops(r)
		if f <= prev {
			t.Errorf("%s step flops %d not increasing", r.Name, f)
		}
		prev = f
	}
}

func TestStepsPerDay(t *testing.T) {
	cases := map[string]int{
		"T42L18": 72, "T63L18": 120, "T85L18": 144, "T106L18": 192, "T170L18": 288,
	}
	for name, want := range cases {
		res, _ := ResolutionByName(name)
		if got := res.StepsPerDay(); got != want {
			t.Errorf("%s steps/day = %d, want %d", name, got, want)
		}
	}
}

func TestRadiationDominatesPhysicsBudget(t *testing.T) {
	// RADABS is "the single most time consuming subroutine": radiation
	// must be the largest single phase of the step on one CPU.
	m := bench()
	res, _ := ResolutionByName("T42L18")
	r := m.Run(prog.MustCompile(StepTrace(res)), sx4.RunOpts{Procs: 1})
	var radClocks, maxOther float64
	for _, ph := range r.Phases {
		if ph.Name == "radiation" {
			radClocks = ph.Clocks
		} else if ph.Clocks > maxOther {
			maxOther = ph.Clocks
		}
	}
	if radClocks <= maxOther {
		t.Errorf("radiation (%.3g clocks) should be the largest phase (max other %.3g)",
			radClocks, maxOther)
	}
}

func TestSimDaysScalesLinearly(t *testing.T) {
	m := bench()
	res, _ := ResolutionByName("T42L18")
	d1 := SimDays(m, res, 1, 4, 4)
	d10 := SimDays(m, res, 10, 4, 4)
	if ratio := d10 / d1; ratio < 9.99 || ratio > 10.01 {
		t.Errorf("10-day/1-day ratio = %v, want 10", ratio)
	}
}

func TestResolutionByNameErrors(t *testing.T) {
	if _, err := ResolutionByName("T31L18"); err == nil {
		t.Error("unknown resolution did not error")
	}
}
