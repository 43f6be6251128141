// Ablation benchmarks for the design choices DESIGN.md calls out: the
// KTRIES best-of-k rule, the memory system's stride behaviour, POP's
// CSHIFT vectorization headroom, SFS write policies, the 8.0 ns
// production clock, and the multinode IXS projection.
package sx4bench_test

import (
	"math"
	"testing"

	"sx4bench"
	"sx4bench/internal/ccm2"
	"sx4bench/internal/core"
	"sx4bench/internal/kernels"
	"sx4bench/internal/pop"
	"sx4bench/internal/superux"
	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/iop"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/sx4/xmu"
)

// roughness quantifies curve noise: mean |second difference| relative
// to the mean level of the series.
func roughness(ys []float64) float64 {
	if len(ys) < 3 {
		return 0
	}
	var sum, level float64
	for i := 1; i < len(ys)-1; i++ {
		sum += math.Abs(ys[i+1] - 2*ys[i] + ys[i-1])
	}
	for _, y := range ys {
		level += y
	}
	level /= float64(len(ys))
	return sum / float64(len(ys)-2) / level
}

// copyCurve measures the COPY sweep at a given KTRIES under jitter.
func copyCurve(m *sx4bench.Machine, ktries int, seed int64) []float64 {
	noise := core.NewNoise(0.15, seed)
	var ys []float64
	for _, k := range kernels.CopySweep(4) {
		meas := core.Run(m, prog.MustCompile(k.Trace()), sx4.RunOpts{Procs: 1}, ktries, noise, k.PayloadBytes())
		ys = append(ys, meas.MBps())
	}
	return ys
}

// quietCopyCurve is the COPY sweep with jitter disabled: the intrinsic
// shape of the curve.
func quietCopyCurve(m *sx4bench.Machine) []float64 {
	var ys []float64
	for _, k := range kernels.CopySweep(4) {
		meas := core.Run(m, prog.MustCompile(k.Trace()), sx4.RunOpts{Procs: 1}, 1, nil, k.PayloadBytes())
		ys = append(ys, meas.MBps())
	}
	return ys
}

func TestKTriesSmoothsCurves(t *testing.T) {
	// The paper: "performance curves produced are relatively smooth
	// when KTRIES is set to 5 or greater". The COPY curve has intrinsic
	// (noise-free) structure, so what KTRIES smooths is the roughness
	// in EXCESS of that floor — compare against the amp=0 curve.
	m := sx4bench.Benchmarked()
	r0 := roughness(quietCopyCurve(m))
	r1 := roughness(copyCurve(m, 1, 7)) - r0
	r5 := roughness(copyCurve(m, 5, 7)) - r0
	r20 := roughness(copyCurve(m, 20, 7)) - r0
	if !(r5 < r1 && r20 <= r5) {
		t.Errorf("KTRIES does not smooth: excess roughness k=1 %.4f, k=5 %.4f, k=20 %.4f", r1, r5, r20)
	}
	if r5 > 0.5*r1 {
		t.Errorf("KTRIES=5 excess roughness %.4f not well below single-shot %.4f", r5, r1)
	}
}

func BenchmarkAblationKTries(b *testing.B) {
	m := sx4bench.Benchmarked()
	var r5 float64
	for i := 0; i < b.N; i++ {
		r5 = roughness(copyCurve(m, 5, 7))
	}
	b.ReportMetric(r5, "roughness@k=5")
}

func BenchmarkAblationStrideSweep(b *testing.B) {
	// Bandwidth versus power-of-two stride: the bank-conflict cliff.
	m := sx4bench.Benchmarked()
	var worst float64
	for i := 0; i < b.N; i++ {
		for _, stride := range []int{1, 2, 4, 64, 256, 512, 1024} {
			p := prog.Simple("stride", 4,
				prog.Op{Class: prog.VLoad, VL: 1 << 18, Stride: stride},
				prog.Op{Class: prog.VStore, VL: 1 << 18, Stride: 1},
			)
			r := m.Run(prog.MustCompile(p), sx4.RunOpts{Procs: 1})
			worst = r.PortMBps()
		}
	}
	b.ReportMetric(worst, "stride1024-MB/s")
}

func BenchmarkAblationCSHIFTVectorized(b *testing.B) {
	m := sx4bench.Benchmarked()
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = pop.VectorizedCSHIFTSpeedup(m)
	}
	b.ReportMetric(speedup, "speedup-if-vectorized")
}

func BenchmarkAblationProductionClock(b *testing.B) {
	bench := sx4bench.Benchmarked()
	prod := sx4bench.Production(32, 1)
	res, _ := ccm2.ResolutionByName("T170L18")
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = ccm2.SustainedGFLOPS(prod, res, 32)/ccm2.SustainedGFLOPS(bench, res, 32) - 1
	}
	b.ReportMetric(gain*100, "pct-gain(paper:~15)")
}

func BenchmarkAblationMultiNode(b *testing.B) {
	m := sx4bench.Benchmarked()
	res, _ := ccm2.ResolutionByName("T170L18")
	var gf float64
	for i := 0; i < b.N; i++ {
		gf = ccm2.MultiNodeProjection(m, res, 16).GFLOPS
	}
	b.ReportMetric(gf, "GFLOPS@512cpu")
}

func BenchmarkAblationSFSWritePolicy(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		wb := superux.NewSFS(xmu.New(4), iop.NewDisk(), 1<<20, 64, 4, true)
		wt := superux.NewSFS(xmu.New(4), iop.NewDisk(), 1<<20, 64, 4, false)
		tw := wb.Write(0, 32<<20)
		tt := wt.Write(0, 32<<20)
		ratio = tt / tw
	}
	b.ReportMetric(ratio, "writethrough/writeback")
}

func BenchmarkAblationEnsembleInterference(b *testing.B) {
	// Table 6's knob: how the interference model responds to node load.
	m := sx4bench.Benchmarked()
	res, _ := ccm2.ResolutionByName("T42L18")
	var degr float64
	for i := 0; i < b.N; i++ {
		alone := ccm2.StepSeconds(m, res, 4, 4)
		crowded := ccm2.StepSeconds(m, res, 4, 32)
		degr = (crowded/alone - 1) * 100
	}
	b.ReportMetric(degr, "pct(paper:1.89)")
}
