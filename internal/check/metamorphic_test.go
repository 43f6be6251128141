package check

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"sx4bench"
	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

// randCases returns n deterministic pseudo-random fuzz-input slices;
// each decodes to a valid (config, program, opts) case via DecodeCase.
func randCases(n int) [][]byte {
	rng := rand.New(rand.NewSource(961996)) // SC'96
	out := make([][]byte, n)
	for i := range out {
		buf := make([]byte, 16+rng.Intn(128))
		rng.Read(buf)
		out[i] = buf
	}
	return out
}

// TestMetamorphicClockInverse: simulated Clocks are a pure function of
// program structure and machine geometry — the cycle time only converts
// them to Seconds. Halving ClockNS must leave Clocks bit-identical and
// halve Seconds.
func TestMetamorphicClockInverse(t *testing.T) {
	for i, data := range randCases(40) {
		cfg, p, opts := DecodeCase(data)
		fast := cfg
		fast.ClockNS = cfg.ClockNS / 2
		r1 := sx4.New(cfg).Run(prog.MustCompile(p), opts)
		r2 := sx4.New(fast).Run(prog.MustCompile(p), opts)
		if r1.Clocks != r2.Clocks {
			t.Errorf("case %d: Clocks moved with clock frequency: %v vs %v", i, r1.Clocks, r2.Clocks)
		}
		if r1.Seconds != 2*r2.Seconds {
			t.Errorf("case %d: Seconds %v at %vns, %v at %vns; want exact 2x",
				i, r1.Seconds, cfg.ClockNS, r2.Seconds, fast.ClockNS)
		}
	}
}

// TestMetamorphicCacheTransparent: a memo-cold run, a warm memoized
// run, and the interpreter (no memo at all) must agree exactly — the
// memo may never change results, only skip work.
func TestMetamorphicCacheTransparent(t *testing.T) {
	for i, data := range randCases(40) {
		cfg, p, opts := DecodeCase(data)
		m := sx4.New(cfg)
		c := prog.MustCompile(p)
		cold := m.Run(c, opts)
		warm := m.Run(c, opts)
		direct := m.Interpret(p, opts)
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("case %d: warm run differs from cold run", i)
		}
		if !reflect.DeepEqual(cold, direct) {
			t.Errorf("case %d: cached result differs from interpreted: %+v vs %+v", i, cold, direct)
		}
	}
}

// TestMetamorphicCloneCoherent: a deep-copied program must fingerprint
// and execute identically to the original.
func TestMetamorphicCloneCoherent(t *testing.T) {
	for i, data := range randCases(40) {
		cfg, p, opts := DecodeCase(data)
		q := p.Clone()
		if p.Fingerprint() != q.Fingerprint() {
			t.Errorf("case %d: clone fingerprint differs", i)
		}
		m := sx4.New(cfg)
		if !reflect.DeepEqual(m.Run(prog.MustCompile(p), opts), m.Run(prog.MustCompile(q), opts)) {
			t.Errorf("case %d: clone runs differently", i)
		}
	}
}

// TestMetamorphicStrideOneOptimal: rewriting every strided memory
// access to stride 1 can only help — unit stride is the paper's
// conflict-free guarantee, and every conflict factor is >= 1.
func TestMetamorphicStrideOneOptimal(t *testing.T) {
	for i, data := range randCases(60) {
		cfg, p, opts := DecodeCase(data)
		q := p.Clone()
		touched := false
		for pi := range q.Phases {
			for li := range q.Phases[pi].Loops {
				body := q.Phases[pi].Loops[li].Body
				for oi := range body {
					if body[oi].Class == prog.VLoad || body[oi].Class == prog.VStore {
						if body[oi].Stride != 1 {
							touched = true
						}
						body[oi].Stride = 1
					}
				}
			}
		}
		if !touched {
			continue
		}
		m := sx4.New(cfg)
		orig := m.Run(prog.MustCompile(p), opts)
		unit := m.Run(prog.MustCompile(q), opts)
		if unit.Clocks > orig.Clocks {
			t.Errorf("case %d: stride-1 rewrite slowed the run: %v > %v clocks",
				i, unit.Clocks, orig.Clocks)
		}
	}
}

// TestMetamorphicActiveCPUsMonotone: more busy CPUs on the node can
// only add contention and interference; Clocks must be non-decreasing
// in ActiveCPUs for a fixed program and allocation.
func TestMetamorphicActiveCPUsMonotone(t *testing.T) {
	for i, data := range randCases(40) {
		cfg, p, opts := DecodeCase(data)
		m := sx4.New(cfg)
		prev := -1.0
		for _, active := range []int{opts.Procs, 8, 16, 32} {
			o := opts
			o.ActiveCPUs = active
			r := m.Run(prog.MustCompile(p), o)
			if prev >= 0 && r.Clocks < prev {
				t.Errorf("case %d: Clocks dropped from %v to %v when ActiveCPUs rose to %d",
					i, prev, r.Clocks, active)
			}
			if r.Clocks > prev {
				prev = r.Clocks
			}
		}
	}
}

// TestMetamorphicVectorLengthMonotone: for fixed total work (VL x trips
// constant), longer vectors amortize startup and loop overhead, so
// total clocks are monotone non-increasing in VL. This is the
// long-vector advantage the paper's Figure 5 sweep measures.
func TestMetamorphicVectorLengthMonotone(t *testing.T) {
	m := sx4.New(sx4.Benchmarked())
	const totalElems = 1 << 16
	bodies := []struct {
		name string
		ops  func(vl int) []prog.Op
	}{
		{"axpy", func(vl int) []prog.Op {
			return []prog.Op{
				{Class: prog.VLoad, VL: vl, Stride: 1},
				{Class: prog.VLoad, VL: vl, Stride: 1},
				{Class: prog.VMul, VL: vl},
				{Class: prog.VAdd, VL: vl},
				{Class: prog.VStore, VL: vl, Stride: 1},
			}
		}},
		{"strided-div", func(vl int) []prog.Op {
			return []prog.Op{
				{Class: prog.VLoad, VL: vl, Stride: 5},
				{Class: prog.VDiv, VL: vl},
				{Class: prog.VStore, VL: vl, Stride: 5},
			}
		}},
		{"intrinsic", func(vl int) []prog.Op {
			return []prog.Op{
				{Class: prog.VLoad, VL: vl, Stride: 1},
				{Class: prog.VIntrinsic, VL: vl, Intr: prog.Exp},
				{Class: prog.VStore, VL: vl, Stride: 1},
			}
		}},
	}
	for _, b := range bodies {
		prev := -1.0
		prevVL := 0
		for vl := 4; vl <= totalElems; vl *= 4 {
			p := prog.Simple(b.name, int64(totalElems/vl), b.ops(vl)...)
			r := m.Run(prog.MustCompile(p), sx4.RunOpts{Procs: 1})
			if prev >= 0 && r.Clocks > prev {
				t.Errorf("%s: clocks rose from %v (VL=%d) to %v (VL=%d) at fixed work",
					b.name, prev, prevVL, r.Clocks, vl)
			}
			prev = r.Clocks
			prevVL = vl
		}
	}
}

// TestMetamorphicWorkersInvariant: the experiment engine's worker count
// is an execution detail; RunAll output must be byte-identical whether
// the suite runs serially, on GOMAXPROCS workers, or on an awkward
// worker count.
func TestMetamorphicWorkersInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite three times")
	}
	var serial bytes.Buffer
	if err := sx4bench.RunAllWorkers(&serial, sx4bench.Benchmarked(), 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 7} {
		var out bytes.Buffer
		if err := sx4bench.RunAllWorkers(&out, sx4bench.Benchmarked(), workers); err != nil {
			t.Fatal(err)
		}
		if out.String() != serial.String() {
			t.Errorf("workers=%d output differs from serial at %s",
				workers, FirstDiff(serial.String(), out.String()))
		}
	}
}
