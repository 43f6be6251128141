// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Each benchmark
// reports the headline metric of its experiment via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the paper's numbers alongside
// the harness cost. EXPERIMENTS.md records paper-versus-model values.
package sx4bench_test

import (
	"io"
	"testing"

	"sx4bench"
	"sx4bench/internal/ccm2"
	"sx4bench/internal/core"
	"sx4bench/internal/elefunt"
	"sx4bench/internal/fftpack"
	"sx4bench/internal/fp128"
	"sx4bench/internal/hint"
	"sx4bench/internal/kernels"
	"sx4bench/internal/linpack"
	"sx4bench/internal/machine"
	"sx4bench/internal/mom"
	"sx4bench/internal/ncar"
	"sx4bench/internal/paranoia"
	"sx4bench/internal/pop"
	"sx4bench/internal/prodload"
	"sx4bench/internal/radabs"
	"sx4bench/internal/spharm"
	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/vmath"
)

func mach() *sx4bench.Machine { return sx4bench.Benchmarked() }

// --- Table 1: HINT vs RADABS on the comparison machines ---

func BenchmarkTable1(b *testing.B) {
	var mq float64
	for i := 0; i < b.N; i++ {
		tab := ncar.Table1()
		_ = tab
		mq = hint.ModelMQUIPS(machine.CrayYMP().Scalar())
	}
	b.ReportMetric(mq, "YMP-MQUIPS")
}

// --- Table 2: configuration (trivially cheap; kept for completeness) ---

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ncar.Table2()
	}
}

// --- Table 3: ELEFUNT intrinsic rates ---

func BenchmarkTable3(b *testing.B) {
	m := mach()
	const n = 1 << 20
	var exp float64
	for i := 0; i < b.N; i++ {
		r := m.Run(prog.MustCompile(elefunt.PerfTrace("EXP", n)), sx4.RunOpts{Procs: 1})
		exp = float64(n) / r.Seconds / 1e6
	}
	b.ReportMetric(exp, "EXP-Mcalls/s")
}

// --- Table 4: resolutions ---

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ncar.Table4()
	}
}

// --- Table 5: one-year simulations ---

func BenchmarkTable5(b *testing.B) {
	m := mach()
	res, _ := ccm2.ResolutionByName("T42L18")
	var total float64
	for i := 0; i < b.N; i++ {
		_, _, total = ccm2.YearSim(m, res, 32)
	}
	b.ReportMetric(total, "T42-year-s(paper:1327.53)")
}

// --- Table 6: ensemble test ---

func BenchmarkTable6(b *testing.B) {
	m := mach()
	var degr float64
	for i := 0; i < b.N; i++ {
		degr = ccm2.EnsembleTest(m).DegradationPct
	}
	b.ReportMetric(degr, "degradation-%(paper:1.89)")
}

// --- Table 7: MOM scalability ---

func BenchmarkTable7(b *testing.B) {
	m := mach()
	var s32 float64
	for i := 0; i < b.N; i++ {
		s32 = mom.Benchmark350(m, 1) / mom.Benchmark350(m, 32)
	}
	b.ReportMetric(s32, "speedup@32(paper:9.06)")
}

// --- Figure 5: memory bandwidth sweeps ---

func BenchmarkFig5Copy(b *testing.B) {
	m := mach()
	k := kernels.Copy{N: 1 << 20, M: 1}
	var mbps float64
	for i := 0; i < b.N; i++ {
		meas := core.Run(m, prog.MustCompile(k.Trace()), sx4.RunOpts{Procs: 1}, 20, nil, k.PayloadBytes())
		mbps = meas.MBps()
	}
	b.ReportMetric(mbps, "MB/s")
}

func BenchmarkFig5IA(b *testing.B) {
	m := mach()
	k := kernels.IA{N: 1 << 20, M: 1}
	var mbps float64
	for i := 0; i < b.N; i++ {
		meas := core.Run(m, prog.MustCompile(k.Trace()), sx4.RunOpts{Procs: 1}, 20, nil, k.PayloadBytes())
		mbps = meas.MBps()
	}
	b.ReportMetric(mbps, "MB/s")
}

func BenchmarkFig5Xpose(b *testing.B) {
	m := mach()
	k := kernels.Xpose{N: 1000, M: 1}
	var mbps float64
	for i := 0; i < b.N; i++ {
		meas := core.Run(m, prog.MustCompile(k.Trace()), sx4.RunOpts{Procs: 1}, 20, nil, k.PayloadBytes())
		mbps = meas.MBps()
	}
	b.ReportMetric(mbps, "MB/s")
}

func BenchmarkFig5FullSweep(b *testing.B) {
	m := mach()
	for i := 0; i < b.N; i++ {
		_ = ncar.Fig5(m, 4)
	}
}

// --- Figures 6 and 7: RFFT and VFFT ---

func BenchmarkFig6RFFT(b *testing.B) {
	m := mach()
	n := 256
	inst := fftpack.RFFTInstances(n)
	var mf float64
	for i := 0; i < b.N; i++ {
		r := m.Run(prog.MustCompile(fftpack.RFFTTrace(n, inst)), sx4.RunOpts{Procs: 1})
		mf = fftpack.NominalMFLOPS(n, inst, r.Seconds)
	}
	b.ReportMetric(mf, "MFLOPS")
}

func BenchmarkFig7VFFT(b *testing.B) {
	m := mach()
	var mf float64
	for i := 0; i < b.N; i++ {
		r := m.Run(prog.MustCompile(fftpack.VFFTTrace(256, 500)), sx4.RunOpts{Procs: 1})
		mf = fftpack.NominalMFLOPS(256, 500, r.Seconds)
	}
	b.ReportMetric(mf, "MFLOPS")
}

// --- Figure 8: CCM2 scalability ---

func BenchmarkFig8T170(b *testing.B) {
	m := mach()
	res, _ := ccm2.ResolutionByName("T170L18")
	var gf float64
	for i := 0; i < b.N; i++ {
		gf = ccm2.SustainedGFLOPS(m, res, 32)
	}
	b.ReportMetric(gf, "GFLOPS(paper:24)")
}

func BenchmarkFig8AllCurves(b *testing.B) {
	m := mach()
	for i := 0; i < b.N; i++ {
		_ = ncar.Fig8(m)
	}
}

// --- Scalar anchors ---

func BenchmarkRADABS(b *testing.B) {
	m := mach()
	p := radabs.Trace(radabs.BenchmarkColumns, radabs.DefaultLevels)
	var mf float64
	for i := 0; i < b.N; i++ {
		mf = m.Run(prog.MustCompile(p), sx4.RunOpts{Procs: 1}).MFLOPS()
	}
	b.ReportMetric(mf, "MFLOPS(paper:865.9)")
}

func BenchmarkPOP(b *testing.B) {
	m := mach()
	var mf float64
	for i := 0; i < b.N; i++ {
		mf = pop.SustainedMFLOPS(m)
	}
	b.ReportMetric(mf, "MFLOPS(paper:537)")
}

func BenchmarkProdload(b *testing.B) {
	m := mach()
	var min float64
	for i := 0; i < b.N; i++ {
		min = prodload.Run(m).TotalMinutes()
	}
	b.ReportMetric(min, "minutes(paper:93.47)")
}

// --- Section 3 comparators ---

func BenchmarkLINPACK1000(b *testing.B) {
	m := mach()
	var mf float64
	for i := 0; i < b.N; i++ {
		mf = linpack.MFLOPS(m, 1000)
	}
	b.ReportMetric(mf, "MFLOPS")
}

func BenchmarkHINTHost(b *testing.B) {
	var q float64
	for i := 0; i < b.N; i++ {
		steps := hint.Run(5000)
		q = steps[len(steps)-1].Quality
	}
	b.ReportMetric(q, "quality@5000")
}

// --- Host numerical kernels (the real computations) ---

func BenchmarkHostRealFFT(b *testing.B) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i % 17)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fftpack.RealForward(x)
	}
}

func BenchmarkHostStockham(b *testing.B) {
	n, m := 256, 64
	re := make([]float64, n*m)
	im := make([]float64, n*m)
	for i := range re {
		re[i] = float64(i % 13)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fftpack.StockhamMulti(re, im, n, m, false)
	}
}

func BenchmarkHostSpharmTransform(b *testing.B) {
	tr := spharm.NewCanonical(42)
	grid := make([]float64, tr.GridLen())
	for i := range grid {
		grid[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := tr.Forward(grid)
		grid = tr.Inverse(spec)
	}
}

func BenchmarkHostRadabsColumn(b *testing.B) {
	col := radabs.NewColumn(radabs.DefaultLevels)
	for i := 0; i < b.N; i++ {
		_ = radabs.Absorptivity(col)
	}
}

func BenchmarkHostCCM2Step(b *testing.B) {
	res := ccm2.Resolution{Name: "T21L1", T: 21, NLat: 32, NLon: 64, NLev: 1, TimeStepMin: 10}
	model := ccm2.NewModel(res, 1)
	dt := model.StableTimeStep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Step(dt)
	}
}

func BenchmarkHostMOMStep(b *testing.B) {
	m := mom.New(mom.LowRes)
	dt := m.StableTimeStep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(dt)
	}
}

func BenchmarkHostPOPStep(b *testing.B) {
	p := pop.New(pop.Config{Name: "bench", NLon: 90, NLat: 44, NLev: 5, DxDeg: 4})
	dt := p.GravityWaveCFL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(dt)
	}
}

func BenchmarkHostVMathExp(b *testing.B) {
	src := make([]float64, 4096)
	dst := make([]float64, 4096)
	for i := range src {
		src[i] = -10 + float64(i)*0.005
	}
	b.SetBytes(8 * 4096)
	for i := 0; i < b.N; i++ {
		vmath.Exp(dst, src)
	}
}

func BenchmarkHostFP128Sum(b *testing.B) {
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = float64(i%997) * 1e-3
	}
	b.SetBytes(8 << 16)
	for i := 0; i < b.N; i++ {
		_ = fp128.Sum(xs)
	}
}

func BenchmarkHostSemiImplicitStep(b *testing.B) {
	res := ccm2.Resolution{Name: "T21L1", T: 21, NLat: 32, NLon: 64, NLev: 1, TimeStepMin: 10}
	model := ccm2.NewModel(res, 1)
	model.SemiImplicit = true
	dt := model.TimeStep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Step(dt)
	}
}

func BenchmarkHostRadabsVector(b *testing.B) {
	col := radabs.NewColumn(radabs.DefaultLevels)
	for i := 0; i < b.N; i++ {
		_ = radabs.AbsorptivityVector(col)
	}
}

func BenchmarkHostParanoia(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paranoia.Run()
		if !r.Pass() {
			b.Fatal("arithmetic broken")
		}
	}
}

// --- End-to-end: everything the paper reports ---

func BenchmarkAllExperiments(b *testing.B) {
	m := mach()
	for i := 0; i < b.N; i++ {
		if err := sx4bench.RunAll(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllSerial and BenchmarkRunAllParallel are the headline
// pair recorded in BENCH_BASELINE.json: the full experiment stream on
// one worker versus the scheduler's GOMAXPROCS fan-out (identical
// output either way).
func BenchmarkRunAllSerial(b *testing.B) {
	m := mach()
	for i := 0; i < b.N; i++ {
		if err := sx4bench.RunAllWorkers(io.Discard, m, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	m := mach()
	for i := 0; i < b.N; i++ {
		if err := sx4bench.RunAllWorkers(io.Discard, m, 0); err != nil {
			b.Fatal(err)
		}
	}
}
