package fftpack

import (
	"testing"

	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

func TestTraceFlopsMatchProgram(t *testing.T) {
	for _, n := range []int{4, 16, 48, 80, 256, 1280} {
		for _, m := range []int{1, 10} {
			r := RFFTTrace(n, m)
			if got, want := r.Flops(), TraceFlops(n, m); got != want {
				t.Errorf("RFFTTrace(%d,%d).Flops = %d, want %d", n, m, got, want)
			}
			v := VFFTTrace(n, m)
			if got, want := v.Flops(), TraceFlops(n, m); got != want {
				t.Errorf("VFFTTrace(%d,%d).Flops = %d, want %d", n, m, got, want)
			}
		}
	}
}

func TestExecutedEfficiency(t *testing.T) {
	// Pure powers of two execute close to the nominal count; mixed
	// radices execute more work per nominal flop.
	p2 := ExecutedEfficiency(1024)
	if p2 < 0.9 || p2 > 1.1 {
		t.Errorf("2^n efficiency = %v, want ~1", p2)
	}
	if f3 := ExecutedEfficiency(768); f3 <= p2 {
		t.Errorf("3*2^n efficiency %v should exceed 2^n %v", f3, p2)
	}
}

func TestVFFTMuchFasterThanRFFT(t *testing.T) {
	// The central claim of Figures 6-7: vector-style FFT is about an
	// order of magnitude faster than scalar-style on the SX-4.
	m := sx4.New(sx4.BenchmarkedSingleCPU())
	n := 256
	rm := RFFTInstances(n) // ~3900 instances
	rr := m.Run(prog.MustCompile(RFFTTrace(n, rm)), sx4.RunOpts{Procs: 1})
	rfftMF := NominalMFLOPS(n, rm, rr.Seconds)

	vm := 500
	vr := m.Run(prog.MustCompile(VFFTTrace(n, vm)), sx4.RunOpts{Procs: 1})
	vfftMF := NominalMFLOPS(n, vm, vr.Seconds)

	ratio := vfftMF / rfftMF
	if ratio < 5 || ratio > 30 {
		t.Errorf("VFFT/RFFT = %.0f/%.0f MFLOPS, ratio %.1f, want within [5,30] (paper: ~10x)",
			vfftMF, rfftMF, ratio)
	}
	// VFFT with long vectors should exceed 500 MFLOPS; RFFT should sit
	// an order of magnitude below peak.
	if vfftMF < 500 || vfftMF > 2000 {
		t.Errorf("VFFT = %.0f MFLOPS, want within [500, 2000]", vfftMF)
	}
	if rfftMF > 300 {
		t.Errorf("RFFT = %.0f MFLOPS, want < 300", rfftMF)
	}
}

func TestRFFTPerformanceGrowsWithN(t *testing.T) {
	m := sx4.New(sx4.BenchmarkedSingleCPU())
	prev := 0.0
	for _, n := range []int{8, 32, 128, 512, 1024} {
		inst := RFFTInstances(n)
		r := m.Run(prog.MustCompile(RFFTTrace(n, inst)), sx4.RunOpts{Procs: 1})
		mf := NominalMFLOPS(n, inst, r.Seconds)
		if mf < prev*0.8 {
			t.Errorf("RFFT MFLOPS dropped sharply at n=%d: %.1f < %.1f", n, mf, prev)
		}
		prev = mf
	}
}

func TestVFFTPerformanceGrowsWithM(t *testing.T) {
	m := sx4.New(sx4.BenchmarkedSingleCPU())
	n := 256
	prev := 0.0
	for _, inst := range VFFTInstanceCounts {
		r := m.Run(prog.MustCompile(VFFTTrace(n, inst)), sx4.RunOpts{Procs: 1})
		mf := NominalMFLOPS(n, inst, r.Seconds)
		if mf <= prev {
			t.Errorf("VFFT MFLOPS not increasing at M=%d: %.1f <= %.1f", inst, mf, prev)
		}
		prev = mf
	}
}

func TestMixedRadixSlowerPerNominalFlop(t *testing.T) {
	// At matched sizes the 3*2^n and 5*2^n families report lower
	// nominal MFLOPS than pure powers of two (the separate curve
	// families in Figures 6 and 7).
	m := sx4.New(sx4.BenchmarkedSingleCPU())
	mf := func(n int) float64 {
		r := m.Run(prog.MustCompile(VFFTTrace(n, 200)), sx4.RunOpts{Procs: 1})
		return NominalMFLOPS(n, 200, r.Seconds)
	}
	pow2 := mf(256)
	f3 := mf(192) // 3*2^6
	f5 := mf(320) // 5*2^6
	if f3 >= pow2 {
		t.Errorf("3*2^n family (%.0f) should be below 2^n (%.0f)", f3, pow2)
	}
	if f5 >= pow2 {
		t.Errorf("5*2^n family (%.0f) should be below 2^n (%.0f)", f5, pow2)
	}
}

func TestRFFTFamilySeparation(t *testing.T) {
	// In the RFFT figure the mixed-radix families track the 2^n curve
	// from slightly below: the radix-3 family pays its extra executed
	// work, and no family beats 2^n by more than measurement slack.
	m := sx4.New(sx4.BenchmarkedSingleCPU())
	mf := func(n int) float64 {
		inst := RFFTInstances(n)
		r := m.Run(prog.MustCompile(RFFTTrace(n, inst)), sx4.RunOpts{Procs: 1})
		return NominalMFLOPS(n, inst, r.Seconds)
	}
	p1024 := mf(1024)
	if f3 := mf(768); f3 >= mf(512)+0.9*(p1024-mf(512)) {
		t.Errorf("3*2^n at 768 (%.1f) should sit below the 2^n trend (512: %.1f, 1024: %.1f)",
			f3, mf(512), p1024)
	}
	if f5 := mf(1280); f5 > 1.1*p1024 {
		t.Errorf("5*2^n at 1280 (%.1f) runs ahead of 2^n at 1024 (%.1f)", f5, p1024)
	}
}

func TestPaperLengthFamilies(t *testing.T) {
	r := RFFTLengths()
	if got := r["2^n"]; len(got) != 10 || got[0] != 2 || got[9] != 1024 {
		t.Errorf("RFFT 2^n lengths = %v", got)
	}
	if got := r["3*2^n"]; got[0] != 3 || got[len(got)-1] != 768 {
		t.Errorf("RFFT 3*2^n lengths = %v", got)
	}
	if got := r["5*2^n"]; got[0] != 5 || got[len(got)-1] != 1280 {
		t.Errorf("RFFT 5*2^n lengths = %v", got)
	}
	v := VFFTLengths()
	if got := v["2^n"]; got[0] != 4 || got[len(got)-1] != 512 {
		t.Errorf("VFFT 2^n lengths = %v", got)
	}
	for fam, ns := range v {
		for _, n := range ns {
			if !Supported(n) {
				t.Errorf("family %s has unsupported length %d", fam, n)
			}
		}
	}
}

func TestRFFTInstancesRange(t *testing.T) {
	if got := RFFTInstances(2); got != 500_000 {
		t.Errorf("RFFTInstances(2) = %d, want 500000", got)
	}
	if got := RFFTInstances(1280); got != 800 {
		t.Errorf("RFFTInstances(1280) = %d, want 800", got)
	}
	if got := RFFTInstances(1000); got != 1000 {
		t.Errorf("RFFTInstances(1000) = %d, want 1000", got)
	}
}

func TestTracePanicsOnUnsupported(t *testing.T) {
	for _, f := range []func(){
		func() { RFFTTrace(7, 1) },
		func() { VFFTTrace(14, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unsupported length did not panic")
				}
			}()
			f()
		}()
	}
}
