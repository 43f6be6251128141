// Package stream implements McCalpin's STREAM benchmark (COPY, SCALE,
// ADD, TRIAD): four long-vector, unit-stride operations sized to defeat
// data reuse, each measured at a single fixed array size. Section 3.4
// of the paper contrasts this with the NCAR memory kernels, which sweep
// array sizes at constant data volume and also probe irregular access;
// this package provides both the host reference loops and the machine
// traces so that contrast can be reproduced.
package stream

import (
	"fmt"

	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// Kernel names, in benchmark order.
var Kernels = []string{"COPY", "SCALE", "ADD", "TRIAD"}

// DefaultN is the classic STREAM array length (big enough to exceed
// any 1996 cache).
const DefaultN = 2_000_000

// bytesMoved returns the STREAM byte-counting convention per kernel.
func bytesMoved(kernel string, n int) int64 {
	switch kernel {
	case "COPY", "SCALE":
		return 16 * int64(n)
	case "ADD", "TRIAD":
		return 24 * int64(n)
	}
	panic(fmt.Sprintf("stream: unknown kernel %q", kernel))
}

// Host executes a kernel on real arrays and returns the result slice.
func Host(kernel string, a, b, c []float64, scalar float64) []float64 {
	n := len(a)
	switch kernel {
	case "COPY":
		for i := 0; i < n; i++ {
			c[i] = a[i]
		}
		return c
	case "SCALE":
		for i := 0; i < n; i++ {
			b[i] = scalar * c[i]
		}
		return b
	case "ADD":
		for i := 0; i < n; i++ {
			c[i] = a[i] + b[i]
		}
		return c
	case "TRIAD":
		for i := 0; i < n; i++ {
			a[i] = b[i] + scalar*c[i]
		}
		return a
	}
	panic(fmt.Sprintf("stream: unknown kernel %q", kernel))
}

// Trace returns the machine trace of a kernel at length n.
func Trace(kernel string, n int) prog.Program {
	var body []prog.Op
	switch kernel {
	case "COPY":
		body = []prog.Op{
			{Class: prog.VLoad, VL: n, Stride: 1},
			{Class: prog.VStore, VL: n, Stride: 1},
		}
	case "SCALE":
		body = []prog.Op{
			{Class: prog.VLoad, VL: n, Stride: 1},
			{Class: prog.VMul, VL: n},
			{Class: prog.VStore, VL: n, Stride: 1},
		}
	case "ADD":
		body = []prog.Op{
			{Class: prog.VLoad, VL: n, Stride: 1},
			{Class: prog.VLoad, VL: n, Stride: 1},
			{Class: prog.VAdd, VL: n},
			{Class: prog.VStore, VL: n, Stride: 1},
		}
	case "TRIAD":
		body = []prog.Op{
			{Class: prog.VLoad, VL: n, Stride: 1},
			{Class: prog.VLoad, VL: n, Stride: 1},
			{Class: prog.VMul, VL: n},
			{Class: prog.VAdd, VL: n},
			{Class: prog.VStore, VL: n, Stride: 1},
		}
	default:
		panic(fmt.Sprintf("stream: unknown kernel %q", kernel))
	}
	return prog.Simple("STREAM-"+kernel, 1, body...)
}

// Result is one kernel's measurement.
type Result struct {
	Kernel string
	MBps   float64
}

// Run measures all four kernels on a machine at the default size.
func Run(m target.Target) []Result {
	out := make([]Result, 0, 4)
	for _, k := range Kernels {
		r := m.Run(prog.MustCompile(Trace(k, DefaultN)), target.RunOpts{Procs: 1})
		out = append(out, Result{Kernel: k, MBps: float64(bytesMoved(k, DefaultN)) / r.Seconds / 1e6})
	}
	return out
}
