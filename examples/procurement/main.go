// Procurement: the Section 3 story — why LINPACK, HINT, STREAM and the
// NAS kernels were inappropriate for the NCAR procurement. Each
// comparator is run next to the suite's own RADABS kernel across the
// modeled machines, reproducing Table 1's inversion and the
// peak-versus-application gap.
package main

import (
	"fmt"
	"os"

	"sx4bench"
	"sx4bench/internal/core"
	"sx4bench/internal/hint"
	"sx4bench/internal/linpack"
	"sx4bench/internal/nas"
	"sx4bench/internal/ncar"
	"sx4bench/internal/radabs"
	"sx4bench/internal/stream"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

func main() {
	m := sx4bench.Benchmarked()

	// Table 1: HINT vs RADABS across the comparison systems.
	if err := core.WriteTable(os.Stdout, ncar.Table1()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// The real HINT algorithm, for the record.
	steps := hint.Run(20000)
	last := steps[len(steps)-1]
	fmt.Printf("\nHINT (host run): bounds [%.6f, %.6f] bracket 2ln2-1 = %.6f after %d subdivisions\n",
		last.Lower, last.Upper, hint.TrueArea, last.Iteration)

	// LINPACK on the SX-4: near peak, unlike any climate code.
	fmt.Printf("\nLINPACK on the SX-4/1 model (peak %.0f MFLOPS):\n", m.Config().PeakFlopsPerCPU()/1e6)
	for _, n := range []int{100, 1000} {
		fmt.Printf("  n=%-5d %7.0f MFLOPS\n", n, linpack.MFLOPS(m, n))
	}
	p := prog.MustCompile(radabs.Trace(radabs.BenchmarkColumns, radabs.DefaultLevels))
	fmt.Printf("  RADABS  %7.1f MFLOPS  <- the suite's own ceiling for climate codes\n",
		m.Run(p, target.RunOpts{Procs: 1}).MFLOPS())

	// STREAM: a single fixed-size point per kernel.
	fmt.Println("\nSTREAM on the SX-4/1 model (single fixed size; the NCAR kernels sweep sizes):")
	for _, r := range stream.Run(m) {
		fmt.Printf("  %-6s %8.0f MB/s\n", r.Kernel, r.MBps)
	}

	// NAS-style kernels.
	fmt.Println("\nNAS-kernel stand-ins on the SX-4/1 model:")
	fmt.Printf("  EP %7.0f MFLOPS   MG-smooth %7.0f MFLOPS\n",
		nas.EPMFLOPS(m, 1<<22), nas.MGMFLOPS(m, 128))
	ep := nas.EP(100000, 271828183)
	fmt.Printf("  EP host check: %d Gaussian pairs (%.1f%% acceptance)\n",
		ep.Pairs, 100*float64(ep.Pairs)/100000)

	// The punchline.
	sparc := target.MustLookup("sparc20")
	ymp := target.MustLookup("ymp")
	fmt.Printf("\nconclusion: HINT rates the %s above the %s, RADABS says the opposite by %.0fx —\n",
		sparc.Name(), ymp.Name(),
		ymp.Run(p, target.RunOpts{Procs: 1}).MFLOPS()/sparc.Run(p, target.RunOpts{Procs: 1}).MFLOPS())
	fmt.Println("a procurement for climate modeling needs workload-derived benchmarks.")
}
