// Quickstart: build the benchmarked SX-4/32, probe its memory system
// with the COPY kernel, and measure the RADABS radiation kernel — the
// two numbers the paper leads with (memory bandwidth and sustained
// Y-MP-equivalent MFLOPS).
package main

import (
	"fmt"

	"sx4bench"
	"sx4bench/internal/core"
	"sx4bench/internal/kernels"
	"sx4bench/internal/ncar"
	"sx4bench/internal/radabs"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

func main() {
	m := sx4bench.Benchmarked()
	fmt.Println("machine:", m)

	// COPY at three points of the constant-volume sweep: many short
	// vectors, the midpoint, and one long vector.
	fmt.Println("\nCOPY memory bandwidth (KTRIES=20, best time reported):")
	noise := ncar.DefaultNoise()
	for _, k := range []kernels.Copy{
		{N: 10, M: 100_000},
		{N: 1_000, M: 1_000},
		{N: 1_000_000, M: 1},
	} {
		meas := core.Run(m, prog.MustCompile(k.Trace()), target.RunOpts{Procs: 1}, 20, noise, k.PayloadBytes())
		fmt.Printf("  N=%-9d M=%-8d -> %8.0f MB/s\n", k.N, k.M, meas.MBps())
	}

	// RADABS: the raw-performance kernel.
	p := prog.MustCompile(radabs.Trace(radabs.BenchmarkColumns, radabs.DefaultLevels))
	r := m.Run(p, target.RunOpts{Procs: 1})
	fmt.Printf("\nRADABS on one CPU: %.1f Y-MP-equivalent MFLOPS (paper: 865.9)\n", r.MFLOPS())

	// And the same kernel across the whole node.
	r32 := m.Run(p, target.RunOpts{Procs: 32})
	fmt.Printf("RADABS on 32 CPUs: %.1f MFLOPS (embarrassingly parallel: %.1fx speedup)\n",
		r32.MFLOPS(), r.Seconds/r32.Seconds)
}
