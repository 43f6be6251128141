// Package nas provides compact stand-ins for two NAS Parallel
// Benchmark kernels — EP (embarrassingly parallel Gaussian-pair
// generation) and a multigrid-flavored smoothing kernel — for the
// paper's Section 3.2 contrast: the NAS suite characterizes large-scale
// CFD, which overlaps with but does not represent NCAR's climate load.
// The NAS benchmarks are specified algorithmically rather than as code;
// these follow the specification shapes at reduced default sizes.
package nas

import (
	"math"

	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// lcg is the NAS linear congruential generator a=5^13, m=2^46.
type lcg struct{ seed uint64 }

const (
	lcgA = 1220703125      // 5^13
	lcgM = uint64(1) << 46 // modulus
)

func (l *lcg) next() float64 {
	l.seed = (l.seed * lcgA) & (lcgM - 1)
	return float64(l.seed) / float64(lcgM)
}

// EPResult reports the EP kernel outcome: counts of Gaussian pairs by
// annulus, plus the sums the specification checks.
type EPResult struct {
	Pairs  int
	Counts [10]int64
	SumX   float64
	SumY   float64
}

// EP generates n uniform pairs, accepts those inside the unit circle,
// converts them to Gaussian deviates by the Box-Muller/Marsaglia polar
// method, and bins them by max(|x|,|y|) — the NAS EP kernel.
func EP(n int, seed uint64) EPResult {
	g := lcg{seed: seed}
	var res EPResult
	for i := 0; i < n; i++ {
		x := 2*g.next() - 1
		y := 2*g.next() - 1
		t := x*x + y*y
		if t > 1 || t == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		gx, gy := x*f, y*f
		res.Pairs++
		res.SumX += gx
		res.SumY += gy
		bin := int(math.Max(math.Abs(gx), math.Abs(gy)))
		if bin > 9 {
			bin = 9
		}
		res.Counts[bin]++
	}
	return res
}

// EPTrace is the machine trace of EP: vectorizable pair generation and
// an intrinsic-heavy transform, with essentially no memory traffic.
func EPTrace(n int) prog.Program {
	return prog.Simple("NAS-EP", int64(n)/1024,
		prog.Op{Class: prog.VMul, VL: 1024, FlopsPerElem: 6},
		prog.Op{Class: prog.VAdd, VL: 1024, FlopsPerElem: 3},
		prog.Op{Class: prog.VIntrinsic, VL: 1024, Intr: prog.Log},
		prog.Op{Class: prog.VIntrinsic, VL: 1024, Intr: prog.Sqrt},
		prog.Op{Class: prog.VLogical, VL: 1024},
	)
}

// EPMFLOPS models the EP kernel's rate on a machine.
func EPMFLOPS(m target.Target, n int) float64 {
	r := m.Run(prog.MustCompile(EPTrace(n)), target.RunOpts{Procs: 1})
	return r.MFLOPS()
}

// MGSmooth applies one 3-point damped-Jacobi smoothing sweep per
// dimension of a cubic grid — the MG kernel's inner operation.
func MGSmooth(u, f []float64, n int, omega float64) []float64 {
	out := make([]float64, len(u))
	copy(out, u)
	idx := func(i, j, k int) int { return (i*n+j)*n + k }
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			for k := 1; k < n-1; k++ {
				lap := u[idx(i-1, j, k)] + u[idx(i+1, j, k)] +
					u[idx(i, j-1, k)] + u[idx(i, j+1, k)] +
					u[idx(i, j, k-1)] + u[idx(i, j, k+1)] - 6*u[idx(i, j, k)]
				out[idx(i, j, k)] = u[idx(i, j, k)] + omega*(lap-f[idx(i, j, k)])
			}
		}
	}
	return out
}

// MGTrace is the machine trace of one smoothing sweep on an n³ grid.
func MGTrace(n int) prog.Program {
	return prog.Simple("NAS-MG-smooth", int64(n)*int64(n),
		prog.Op{Class: prog.VLoad, VL: 7 * n, Stride: 1},
		prog.Op{Class: prog.VAdd, VL: n, FlopsPerElem: 7},
		prog.Op{Class: prog.VMul, VL: n, FlopsPerElem: 2},
		prog.Op{Class: prog.VStore, VL: n, Stride: 1},
	)
}

// EPMFLOPS and MGMFLOPS model the kernels' rates on a machine.
func MGMFLOPS(m target.Target, n int) float64 {
	r := m.Run(prog.MustCompile(MGTrace(n)), target.RunOpts{Procs: 1})
	return r.MFLOPS()
}
