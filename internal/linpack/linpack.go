// Package linpack implements the LINPACK benchmark: factor and solve a
// dense system by Gaussian elimination with partial pivoting (the
// DGEFA/DGESL pair), at the benchmark orders n=100 and n=1000. Section
// 3.1 of the paper explains why this "tends to measure peak
// performance" and was therefore insufficient for the NCAR procurement;
// the trace here reproduces that: on the SX-4 model LINPACK 1000 runs
// far closer to peak than any climate code.
package linpack

import (
	"fmt"
	"math"
	"math/rand"

	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// Matrix is a dense column-major n x n matrix.
type Matrix struct {
	N int
	A []float64
}

// NewRandom returns the benchmark's random matrix and right-hand side
// with the solution vector of all ones.
func NewRandom(n int, seed int64) (*Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	m := &Matrix{N: n, A: make([]float64, n*n)}
	for i := range m.A {
		m.A[i] = rng.Float64() - 0.5
	}
	// b = A * ones.
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += m.at(i, j)
		}
		b[i] = s
	}
	return m, b
}

func (m *Matrix) at(i, j int) float64 { return m.A[j*m.N+i] }

// Factor performs in-place LU factorization with partial pivoting
// (DGEFA), returning the pivot vector, or an error on singularity.
func (m *Matrix) Factor() ([]int, error) {
	n := m.N
	ipvt := make([]int, n)
	for k := 0; k < n-1; k++ {
		// Pivot search in column k.
		p := k
		maxv := math.Abs(m.A[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m.A[k*n+i]); v > maxv {
				maxv, p = v, i
			}
		}
		ipvt[k] = p
		if maxv == 0 {
			return nil, fmt.Errorf("linpack: singular at column %d", k)
		}
		if p != k {
			for j := k; j < n; j++ {
				m.A[j*n+p], m.A[j*n+k] = m.A[j*n+k], m.A[j*n+p]
			}
		}
		// Compute multipliers and eliminate (daxpy on columns).
		pivInv := 1 / m.A[k*n+k]
		for i := k + 1; i < n; i++ {
			m.A[k*n+i] *= pivInv
		}
		for j := k + 1; j < n; j++ {
			t := m.A[j*n+k]
			if t == 0 {
				continue
			}
			col := m.A[j*n:]
			mul := m.A[k*n:]
			for i := k + 1; i < n; i++ {
				col[i] -= t * mul[i]
			}
		}
	}
	ipvt[n-1] = n - 1
	if m.A[(n-1)*n+n-1] == 0 {
		return nil, fmt.Errorf("linpack: singular at last column")
	}
	return ipvt, nil
}

// Solve back-substitutes (DGESL) using the factorization in place.
func (m *Matrix) Solve(ipvt []int, b []float64) {
	n := m.N
	// Forward elimination: apply L and pivots.
	for k := 0; k < n-1; k++ {
		p := ipvt[k]
		t := b[p]
		if p != k {
			b[p], b[k] = b[k], t
		}
		for i := k + 1; i < n; i++ {
			b[i] -= t * m.A[k*n+i]
		}
	}
	// Back substitution with U.
	for k := n - 1; k >= 0; k-- {
		b[k] /= m.A[k*n+k]
		t := b[k]
		for i := 0; i < k; i++ {
			b[i] -= t * m.A[k*n+i]
		}
	}
}

// Residual returns the normalized residual ||Ax-b|| / (||A|| ||x|| n eps)
// the benchmark uses as its correctness check.
func Residual(orig *Matrix, x, b []float64) float64 {
	n := orig.N
	var normA, normX, maxR float64
	for _, v := range orig.A {
		if a := math.Abs(v); a > normA {
			normA = a
		}
	}
	for _, v := range x {
		if a := math.Abs(v); a > normX {
			normX = a
		}
	}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += orig.at(i, j) * x[j]
		}
		if r := math.Abs(s - b[i]); r > maxR {
			maxR = r
		}
	}
	eps := 2.220446049250313e-16
	return maxR / (normA * normX * float64(n) * eps)
}

// Flops returns the nominal LINPACK operation count 2n³/3 + 2n².
func Flops(n int) float64 { return 2.0*float64(n)*float64(n)*float64(n)/3 + 2*float64(n)*float64(n) }

// Trace builds the machine trace of the factorization: for each column
// k, a pivot search (scalar-ish reduction), a scale, and n-k-1 daxpy
// updates of vector length n-k-1.
func Trace(n int) prog.Program {
	var loops []prog.Loop
	// Group columns into bands so the trace stays compact while
	// preserving the shrinking vector lengths.
	const bands = 32
	for b := 0; b < bands; b++ {
		kLo := n * b / bands
		kHi := n * (b + 1) / bands
		cols := kHi - kLo
		if cols <= 0 {
			continue
		}
		vl := n - (kLo+kHi)/2 // representative remaining length
		if vl < 1 {
			vl = 1
		}
		loops = append(loops,
			prog.Loop{ // pivot search + scale per column
				Trips: int64(cols),
				Body: []prog.Op{
					{Class: prog.VLoad, VL: vl, Stride: 1},
					{Class: prog.VLogical, VL: vl}, // max reduction
					{Class: prog.VMul, VL: vl},
				},
			},
			prog.Loop{ // rank-1 updates, unrolled 4 columns per trip:
				// the multiplier vector stays in registers, so 4
				// column loads + 4 stores carry 8 flops per element.
				Trips: int64(cols) * int64((vl+3)/4),
				Body: []prog.Op{
					{Class: prog.VLoad, VL: vl, Stride: 1}, // multipliers (reused)
					{Class: prog.VLoad, VL: 4 * vl, Stride: 1},
					{Class: prog.VMul, VL: vl, FlopsPerElem: 4},
					{Class: prog.VAdd, VL: vl, FlopsPerElem: 4},
					{Class: prog.VStore, VL: 4 * vl, Stride: 1},
				},
			},
		)
	}
	return prog.Program{
		Name:   fmt.Sprintf("LINPACK-%d", n),
		Phases: []prog.Phase{{Name: "dgefa", Parallel: true, Loops: loops}},
	}
}

// traces caches the compiled factorization trace per order: the
// comparison tables re-time the same orders on every machine.
var traces target.TraceCache[int]

// MFLOPS models the benchmark rate on a machine at order n.
func MFLOPS(m target.Target, n int) float64 {
	r := m.Run(traces.Get(n, func() prog.Program { return Trace(n) }), target.RunOpts{Procs: 1})
	return Flops(n) / r.Seconds / 1e6
}
