package sx4

import (
	"fmt"
	"testing"

	"sx4bench/internal/sx4/prog"
)

// TestShortVectorBoundary sweeps vector lengths 1, 255, 256 and 257 —
// around the 256-element vector register — through Machine.Run and pins
// the startup-cost behaviour the paper describes: at VL=1 the fixed
// vector/memory startup dwarfs the streaming time (the short-vector
// cliff of Figure 5), amortization improves monotonically up to the
// register length, and crossing it strip-mines the loop into a second
// vector instruction.
func TestShortVectorBoundary(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	body := func(vl int) []prog.Op {
		return []prog.Op{
			{Class: prog.VLoad, VL: vl, Stride: 1},
			{Class: prog.VAdd, VL: vl},
			{Class: prog.VStore, VL: vl, Stride: 1},
		}
	}
	run := func(vl int) Result {
		return m.Run(prog.MustCompile(prog.Simple(fmt.Sprintf("sv%d", vl), 1, body(vl)...)), RunOpts{Procs: 1})
	}

	sweep := []int{1, 255, 256, 257}
	total := make(map[int]float64)  // clocks per trip
	perEl := make(map[int]float64)  // clocks per element
	strips := make(map[int]float64) // issue clocks, 2 per strip
	for _, vl := range sweep {
		r := run(vl)
		total[vl] = r.Clocks
		perEl[vl] = r.Clocks / float64(vl)
		c := m.tripClocks(body(vl))
		strips[vl] = c.issue
	}

	// Total time never decreases with vector length...
	for i := 1; i < len(sweep); i++ {
		lo, hi := sweep[i-1], sweep[i]
		if total[hi] < total[lo] {
			t.Errorf("total clocks decreased: VL=%d %.3f < VL=%d %.3f", hi, total[hi], lo, total[lo])
		}
	}
	// ...while per-element cost falls steeply as startup amortizes.
	if perEl[1] < 100*perEl[255] {
		t.Errorf("VL=1 per-element cost %.3f not >= 100x VL=255 cost %.3f: startup should dominate",
			perEl[1], perEl[255])
	}
	if !(perEl[255] > perEl[256]) {
		t.Errorf("per-element cost not improving toward the register length: VL=255 %.5f, VL=256 %.5f",
			perEl[255], perEl[256])
	}

	// The discontinuity: VL=255 and 256 fit one vector register, VL=257
	// strip-mines into a second vector instruction with its own issue
	// slot. This is the accounting a refactor of the strip-mining loop
	// could silently drop.
	if strips[255] != strips[256] {
		t.Errorf("issue cost differs inside one strip: VL=255 %.1f, VL=256 %.1f", strips[255], strips[256])
	}
	if strips[257] != 2*strips[256] {
		t.Errorf("VL=257 issue cost = %.1f, want exactly double VL=256's %.1f (second strip)",
			strips[257], strips[256])
	}
	if d256, d257 := total[256]-total[255], total[257]-total[256]; d257 < d256 {
		t.Errorf("marginal cost of element 257 (%.4f) below element 256's (%.4f): strip boundary lost",
			d257, d256)
	}

	// One full register is the sweet spot of the sawtooth: the paper's
	// codes (and the VFFT instance sweep) batch work at VL=256 because a
	// 257th element costs a whole extra instruction for one element of
	// work. Pin the per-element optimum ordering.
	if !(perEl[256] <= perEl[255] && perEl[256] <= perEl[1]) {
		t.Errorf("VL=256 is not the per-element optimum of the sweep: %v", perEl)
	}
}

// TestShortVectorStartupCharges pins the absolute startup accounting at
// the boundary lengths: one trip of a VL=1 memory op costs at least the
// configured memory-startup latency, and the VL=256 trip is within a
// small factor of the pure streaming time.
func TestShortVectorStartupCharges(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	cfg := m.Config()
	one := m.Run(prog.MustCompile(prog.Simple("sv1", 1, prog.Op{Class: prog.VLoad, VL: 1, Stride: 1})), RunOpts{Procs: 1})
	if one.Clocks < float64(cfg.MemStartupClocks) {
		t.Errorf("VL=1 load took %.1f clocks, less than the %d-clock memory startup",
			one.Clocks, cfg.MemStartupClocks)
	}
	full := m.Run(prog.MustCompile(prog.Simple("sv256", 1, prog.Op{Class: prog.VLoad, VL: 256, Stride: 1})), RunOpts{Procs: 1})
	stream := 256.0 / float64(cfg.VectorPipes)
	if full.Clocks < stream {
		t.Errorf("VL=256 load took %.1f clocks, below the %.1f-clock streaming floor", full.Clocks, stream)
	}
	if full.Clocks > 4*stream {
		t.Errorf("VL=256 load took %.1f clocks; startup should be mostly amortized by one register (floor %.1f)",
			full.Clocks, stream)
	}
}
