// The cold-sweep scaling benchmark: a memo-cold 10 000-scenario sweep
// across every registered machine, the workload the compiled-trace
// path and the sharded timing memo exist for. Sub-benchmarks sweep the
// worker count (1/4/8) and include the interpreted-engine ablation at
// 8 workers (ncar.Sweep with compiled false: every scenario walked by
// its engine's Interpret oracle, with no timing memo), so
// `make bench-sweep` pins both the scaling curve and what compilation
// buys in BENCH_SWEEP.json. Every variant cross-checks the sweep
// checksum: parallelism and compilation must not change a single bit.
package sx4bench_test

import (
	"testing"

	"sx4bench/internal/ncar"
)

func BenchmarkColdSweep10k(b *testing.B) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	scenarios := ncar.SweepScenarios(n)
	var want ncar.SweepResult
	variants := []struct {
		name     string
		workers  int
		compiled bool
	}{
		{"workers=1", 1, true},
		{"workers=4", 4, true},
		{"workers=8", 8, true},
		{"uncompiled/workers=8", 8, false},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := ncar.Sweep(scenarios, v.workers, v.compiled)
				if err != nil {
					b.Fatal(err)
				}
				if want.Scenarios == 0 {
					want = got
				} else if got != want {
					b.Fatalf("sweep summary diverged: %+v != %+v", got, want)
				}
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N), "scenarios/s")
		})
	}
}
