package sx4

import (
	"math"
	"testing"

	"sx4bench/internal/sx4/prog"
)

func copyProgram(n, m int64) prog.Program {
	return prog.Simple("copy", m,
		prog.Op{Class: prog.VLoad, VL: int(n), Stride: 1},
		prog.Op{Class: prog.VStore, VL: int(n), Stride: 1},
	)
}

func TestConfigPresets(t *testing.T) {
	b := Benchmarked()
	if b.ClockNS != 9.2 {
		t.Errorf("benchmarked clock = %v, want 9.2", b.ClockNS)
	}
	if b.CPUs != 32 || b.Nodes != 1 {
		t.Errorf("benchmarked CPUs/Nodes = %d/%d, want 32/1", b.CPUs, b.Nodes)
	}
	p := NewConfig(32, 1)
	if got := p.PeakFlopsPerCPU(); math.Abs(got-2e9) > 1e6 {
		t.Errorf("production peak/CPU = %v, want 2 GFLOPS", got)
	}
	if got := p.PeakFlops(); math.Abs(got-64e9) > 1e8 {
		t.Errorf("SX-4/32 peak = %v, want 64 GFLOPS", got)
	}
	if got := p.PortBytesPerSec(); math.Abs(got-16e9) > 1e8 {
		t.Errorf("port bandwidth = %v, want 16 GB/s", got)
	}
	if got := p.NodeMemoryBytesPerSec(); math.Abs(got-512e9) > 1e9 {
		t.Errorf("node bandwidth = %v, want 512 GB/s", got)
	}
	full := NewConfig(32, 16)
	if full.TotalCPUs() != 512 {
		t.Errorf("full config CPUs = %d, want 512", full.TotalCPUs())
	}
	if full.Name != "SX-4/512M16" {
		t.Errorf("full config name = %q", full.Name)
	}
}

func TestConfigValidate(t *testing.T) {
	good := NewConfig(4, 2)
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good): %v", err)
	}
	bad := good
	bad.ClockNS = 0
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted zero clock")
	}
	bad = good
	bad.CPUs = 33
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted 33 CPUs")
	}
}

func TestNewConfigPanicsOutOfRange(t *testing.T) {
	for _, f := range []func(){
		func() { NewConfig(0, 1) },
		func() { NewConfig(33, 1) },
		func() { NewConfig(1, 0) },
		func() { NewConfig(1, 17) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("NewConfig out of range did not panic")
				}
			}()
			f()
		}()
	}
}

func TestCopyBandwidthApproachesPort(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	r := m.Run(prog.MustCompile(copyProgram(1_000_000, 1)), RunOpts{Procs: 1})
	// 8 words/clock of payload each way: the port moves 16 words/clock,
	// so traffic rate should be near the 16 GB/s port at 9.2 ns (13.9 GB/s).
	peak := m.Config().PortBytesPerSec() / 1e6
	if got := r.PortMBps(); got < 0.85*peak || got > peak {
		t.Errorf("long-vector COPY traffic = %.0f MB/s, want within [%.0f, %.0f]", got, 0.85*peak, peak)
	}
}

func TestCopyShortVectorsMuchSlower(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	long := m.Run(prog.MustCompile(copyProgram(1_000_000, 1)), RunOpts{Procs: 1})
	short := m.Run(prog.MustCompile(copyProgram(1, 1_000_000)), RunOpts{Procs: 1})
	if short.PortMBps() > long.PortMBps()/20 {
		t.Errorf("short-vector COPY %.1f MB/s vs long %.1f MB/s: startup should dominate",
			short.PortMBps(), long.PortMBps())
	}
}

func TestBandwidthMonotoneInVectorLength(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	total := int64(1 << 22)
	prev := 0.0
	for n := int64(1); n <= total; n *= 4 {
		r := m.Run(prog.MustCompile(copyProgram(n, total/n)), RunOpts{Procs: 1})
		bw := r.PortMBps()
		if bw+1e-9 < prev {
			t.Errorf("COPY bandwidth not monotone at N=%d: %.2f < %.2f", n, bw, prev)
		}
		prev = bw
	}
}

func TestGatherSlowerThanCopy(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	n := 1 << 20
	cp := m.Run(prog.MustCompile(copyProgram(int64(n), 1)), RunOpts{Procs: 1})
	ia := m.Run(prog.MustCompile(prog.Simple("ia", 1,
		prog.Op{Class: prog.VLoad, VL: n, Stride: 1}, // index vector
		prog.Op{Class: prog.VGather, VL: n},
		prog.Op{Class: prog.VStore, VL: n, Stride: 1},
	)), RunOpts{Procs: 1})
	if ia.Seconds <= cp.Seconds {
		t.Errorf("gather kernel (%.3gs) should be slower than copy (%.3gs)", ia.Seconds, cp.Seconds)
	}
	if ratio := ia.Seconds / cp.Seconds; ratio < 2 || ratio > 12 {
		t.Errorf("gather/copy time ratio = %.2f, want within [2, 12]", ratio)
	}
}

func TestStridedStoreConflicts(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	n := 1 << 18
	unit := m.Run(prog.MustCompile(prog.Simple("s1", 8,
		prog.Op{Class: prog.VLoad, VL: n, Stride: 1},
		prog.Op{Class: prog.VStore, VL: n, Stride: 1},
	)), RunOpts{Procs: 1})
	strided := m.Run(prog.MustCompile(prog.Simple("s512", 8,
		prog.Op{Class: prog.VLoad, VL: n, Stride: 1},
		prog.Op{Class: prog.VStore, VL: n, Stride: 512},
	)), RunOpts{Procs: 1})
	if strided.Seconds < 3*unit.Seconds {
		t.Errorf("stride-512 store (%.3gs) should be >=3x slower than unit (%.3gs)",
			strided.Seconds, unit.Seconds)
	}
}

func axpyProgram(n int64) prog.Program {
	return prog.Simple("axpy", 1,
		prog.Op{Class: prog.VLoad, VL: int(n), Stride: 1},
		prog.Op{Class: prog.VLoad, VL: int(n), Stride: 1},
		prog.Op{Class: prog.VMul, VL: int(n)},
		prog.Op{Class: prog.VAdd, VL: int(n)},
		prog.Op{Class: prog.VStore, VL: int(n), Stride: 1},
	)
}

func TestAxpyFlopsRate(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	r := m.Run(prog.MustCompile(axpyProgram(1<<20)), RunOpts{Procs: 1})
	if r.Flops != 2<<20 {
		t.Errorf("axpy flops = %d, want %d", r.Flops, 2<<20)
	}
	// AXPY moves 3 words per 2 flops: memory-bound at 16 words/clock
	// port -> ~10.7 flops/clock -> ~1.16 GFLOPS at 9.2 ns.
	gf := r.GFLOPS()
	if gf < 0.8 || gf > 1.25 {
		t.Errorf("axpy rate = %.2f GFLOPS, want within [0.8, 1.25]", gf)
	}
}

func TestComputeBoundKernelNearPeak(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	// 16 fused mul+add per loaded word: compute bound.
	n := 1 << 20
	ops := []prog.Op{{Class: prog.VLoad, VL: n, Stride: 1}}
	for i := 0; i < 16; i++ {
		ops = append(ops, prog.Op{Class: prog.VMul, VL: n}, prog.Op{Class: prog.VAdd, VL: n})
	}
	r := m.Run(prog.MustCompile(prog.Simple("dense", 1, ops...)), RunOpts{Procs: 1})
	peak := m.Config().PeakFlopsPerCPU() / 1e9
	if gf := r.GFLOPS(); gf < 0.85*peak || gf > peak*1.001 {
		t.Errorf("dense kernel = %.2f GFLOPS, want near peak %.2f", gf, peak)
	}
}

func TestDividePipeExceedsPeakRating(t *testing.T) {
	// Paper, Section 2.1: "With a vector add and vector multiply
	// operating concurrently, the pipes provide 2 GFLOPS peak
	// performance. If a vector divide is also operating at the same
	// time the processor can exceed its peak rating."
	m := New(BenchmarkedSingleCPU())
	n := 1 << 20
	p := prog.Simple("add+mul+div", 1,
		prog.Op{Class: prog.VAdd, VL: n},
		prog.Op{Class: prog.VMul, VL: n},
		prog.Op{Class: prog.VDiv, VL: n / 4}, // divide sustains 1/4 rate
	)
	r := m.Run(prog.MustCompile(p), RunOpts{Procs: 1})
	nominal := m.Config().PeakFlopsPerCPU()
	if rate := float64(r.Flops) / r.Seconds; rate <= nominal {
		t.Errorf("add+mul+div rate %.3g flops/s should exceed the nominal peak %.3g", rate, nominal)
	}
}

func TestParallelSpeedup(t *testing.T) {
	m := New(Benchmarked())
	p := prog.Program{
		Name: "par",
		Phases: []prog.Phase{{
			Name: "work", Parallel: true, Barriers: 1,
			Loops: []prog.Loop{{Trips: 4096, Body: []prog.Op{
				{Class: prog.VLoad, VL: 4096, Stride: 1},
				{Class: prog.VMul, VL: 4096},
				{Class: prog.VMul, VL: 4096},
				{Class: prog.VMul, VL: 4096},
				{Class: prog.VAdd, VL: 4096},
				{Class: prog.VAdd, VL: 4096},
				{Class: prog.VAdd, VL: 4096},
				{Class: prog.VStore, VL: 4096, Stride: 1},
			}}},
		}},
	}
	t1 := m.Run(prog.MustCompile(p), RunOpts{Procs: 1}).Seconds
	t32 := m.Run(prog.MustCompile(p), RunOpts{Procs: 32}).Seconds
	speedup := t1 / t32
	if speedup < 20 || speedup > 32.01 {
		t.Errorf("32-CPU speedup = %.1f, want within [20, 32]", speedup)
	}
}

func TestSerialPhaseNotParallelized(t *testing.T) {
	m := New(Benchmarked())
	p := prog.Program{
		Name: "amdahl",
		Phases: []prog.Phase{
			{Name: "serial", Parallel: false, Loops: []prog.Loop{{Trips: 1000, Body: []prog.Op{{Class: prog.VAdd, VL: 256}}}}},
		},
	}
	t1 := m.Run(prog.MustCompile(p), RunOpts{Procs: 1}).Seconds
	t32 := m.Run(prog.MustCompile(p), RunOpts{Procs: 32}).Seconds
	if math.Abs(t1-t32)/t1 > 0.01 {
		t.Errorf("serial phase time changed with CPUs: %.3g vs %.3g", t1, t32)
	}
}

func TestEnsembleInterference(t *testing.T) {
	m := New(Benchmarked())
	// A memory-intensive job on 4 CPUs, alone vs. with the node full.
	p := prog.Program{
		Name: "job",
		Phases: []prog.Phase{{
			Name: "step", Parallel: true,
			Loops: []prog.Loop{{Trips: 1 << 12, Body: []prog.Op{
				{Class: prog.VLoad, VL: 4096, Stride: 1},
				{Class: prog.VMul, VL: 4096},
				{Class: prog.VAdd, VL: 4096},
				{Class: prog.VStore, VL: 4096, Stride: 1},
			}}},
		}},
	}
	alone := m.Run(prog.MustCompile(p), RunOpts{Procs: 4}).Seconds
	crowded := m.Run(prog.MustCompile(p), RunOpts{Procs: 4, ActiveCPUs: 32}).Seconds
	degr := (crowded - alone) / alone * 100
	if degr <= 0.5 || degr > 4 {
		t.Errorf("ensemble degradation = %.2f%%, want within (0.5, 4] (paper: 1.89%%)", degr)
	}
}

func TestIntrinsicRatesOrdering(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	rate := func(in prog.Intrinsic) float64 {
		n := 1 << 20
		r := m.Run(prog.MustCompile(prog.Simple("intr", 1,
			prog.Op{Class: prog.VLoad, VL: n, Stride: 1},
			prog.Op{Class: prog.VIntrinsic, VL: n, Intr: in},
			prog.Op{Class: prog.VStore, VL: n, Stride: 1},
		)), RunOpts{Procs: 1})
		return float64(n) / r.Seconds / 1e6 // Mcalls/s
	}
	sqrt, exp, pw := rate(prog.Sqrt), rate(prog.Exp), rate(prog.Pow)
	if !(sqrt > exp && exp > pw) {
		t.Errorf("intrinsic rate ordering SQRT(%.0f) > EXP(%.0f) > PWR(%.0f) violated", sqrt, exp, pw)
	}
	// Vectorized intrinsics should run at tens of Mcalls/s.
	if exp < 20 || exp > 500 {
		t.Errorf("EXP rate = %.0f Mcalls/s, want within [20, 500]", exp)
	}
}

func TestRunClampsProcs(t *testing.T) {
	m := New(Benchmarked())
	r := m.Run(prog.MustCompile(copyProgram(1024, 16)), RunOpts{Procs: 64})
	if r.Procs != 32 {
		t.Errorf("procs clamped to %d, want 32", r.Procs)
	}
	r = m.Run(prog.MustCompile(copyProgram(1024, 16)), RunOpts{})
	if r.Procs != 1 {
		t.Errorf("default procs = %d, want 1", r.Procs)
	}
}

func TestResultAccounting(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	p := copyProgram(1000, 10)
	r := m.Run(prog.MustCompile(p), RunOpts{Procs: 1})
	if r.Words != p.Words() {
		t.Errorf("result words = %d, want %d", r.Words, p.Words())
	}
	if r.Seconds <= 0 || r.Clocks <= 0 {
		t.Errorf("non-positive time: %+v", r)
	}
	if len(r.Phases) != 1 || r.Phases[0].Name != "copy" {
		t.Errorf("phase breakdown missing: %+v", r.Phases)
	}
	if !r.Phases[0].MemBound {
		t.Error("copy phase should be memory bound")
	}
	if got := m.Seconds(r.Clocks); math.Abs(got-r.Seconds) > 1e-15 {
		t.Errorf("Seconds(clocks) = %v, want %v", got, r.Seconds)
	}
}

func TestMachineString(t *testing.T) {
	m := New(Benchmarked())
	s := m.String()
	if s == "" {
		t.Error("empty machine description")
	}
}

func TestZeroTripLoopFree(t *testing.T) {
	m := New(Benchmarked())
	p := prog.Program{Name: "empty", Phases: []prog.Phase{{Name: "x", Parallel: true,
		Loops: []prog.Loop{{Trips: 0, Body: []prog.Op{{Class: prog.VAdd, VL: 8}}}}}}}
	r := m.Run(prog.MustCompile(p), RunOpts{Procs: 1})
	if r.Clocks != 0 {
		t.Errorf("zero-trip loop cost %v clocks, want 0", r.Clocks)
	}
}

func TestScalarWorkCharged(t *testing.T) {
	m := New(Benchmarked())
	p := prog.Simple("scalar", 100, prog.Op{Class: prog.Scalar, Count: 200})
	r := m.Run(prog.MustCompile(p), RunOpts{Procs: 1})
	// 200 instructions / 2 per clock = 100 clocks/trip + overhead.
	if r.Clocks < 100*100 {
		t.Errorf("scalar clocks = %v, want >= 10000", r.Clocks)
	}
}
