package sx4

import (
	"testing"
	"testing/quick"

	"sx4bench/internal/sx4/prog"
)

// Property-based tests of the machine model's structural invariants.

func TestMoreTripsNeverFaster(t *testing.T) {
	m := New(Benchmarked())
	f := func(vl uint8, trips uint8) bool {
		n := int(vl)%1024 + 1
		tr := int64(trips) + 1
		p1 := prog.Simple("a", tr,
			prog.Op{Class: prog.VLoad, VL: n, Stride: 1},
			prog.Op{Class: prog.VMul, VL: n})
		p2 := prog.Simple("b", tr+1,
			prog.Op{Class: prog.VLoad, VL: n, Stride: 1},
			prog.Op{Class: prog.VMul, VL: n})
		return m.Run(prog.MustCompile(p2), RunOpts{Procs: 1}).Seconds >= m.Run(prog.MustCompile(p1), RunOpts{Procs: 1}).Seconds
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoreProcsNeverSlowerOnParallelWork(t *testing.T) {
	m := New(Benchmarked())
	f := func(seed uint8) bool {
		trips := int64(seed)*8 + 64
		p := prog.Simple("w", trips,
			prog.Op{Class: prog.VLoad, VL: 512, Stride: 1},
			prog.Op{Class: prog.VMul, VL: 512},
			prog.Op{Class: prog.VAdd, VL: 512},
			prog.Op{Class: prog.VStore, VL: 512, Stride: 1})
		prev := m.Run(prog.MustCompile(p), RunOpts{Procs: 1}).Seconds
		for _, procs := range []int{2, 4, 8, 16, 32} {
			cur := m.Run(prog.MustCompile(p), RunOpts{Procs: procs}).Seconds
			if cur > prev*1.0001 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLongerVectorsMoreEfficient(t *testing.T) {
	// Rate (flops/s) never decreases when the same total work is
	// reorganized into longer vectors.
	m := New(BenchmarkedSingleCPU())
	f := func(k uint8) bool {
		total := 1 << 16
		short := int(k)%64 + 1
		long := short * 4
		mkProg := func(vl int) prog.Program {
			return prog.Simple("v", int64(total/vl),
				prog.Op{Class: prog.VLoad, VL: vl, Stride: 1},
				prog.Op{Class: prog.VMul, VL: vl})
		}
		tShort := m.Run(prog.MustCompile(mkProg(short)), RunOpts{Procs: 1}).Seconds
		tLong := m.Run(prog.MustCompile(mkProg(long)), RunOpts{Procs: 1}).Seconds
		return tLong <= tShort*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInterferenceNeverSpeedsUp(t *testing.T) {
	m := New(Benchmarked())
	p := prog.Simple("w", 256,
		prog.Op{Class: prog.VLoad, VL: 4096, Stride: 1},
		prog.Op{Class: prog.VAdd, VL: 4096},
		prog.Op{Class: prog.VStore, VL: 4096, Stride: 1})
	f := func(active uint8) bool {
		a := int(active)%29 + 4
		alone := m.Run(prog.MustCompile(p), RunOpts{Procs: 4, ActiveCPUs: 4}).Seconds
		loaded := m.Run(prog.MustCompile(p), RunOpts{Procs: 4, ActiveCPUs: a}).Seconds
		return loaded >= alone*0.9999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlopsIndependentOfProcs(t *testing.T) {
	// Parallelization changes time, never the operation count.
	m := New(Benchmarked())
	f := func(trips uint8, procs uint8) bool {
		p := prog.Simple("w", int64(trips)+1,
			prog.Op{Class: prog.VMul, VL: 100, FlopsPerElem: 3})
		r1 := m.Run(prog.MustCompile(p), RunOpts{Procs: 1})
		r2 := m.Run(prog.MustCompile(p), RunOpts{Procs: int(procs)%32 + 1})
		return r1.Flops == r2.Flops && r1.Words == r2.Words
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockScalesLinearly(t *testing.T) {
	// The same trace on an 8.0 ns machine runs exactly 9.2/8.0 faster.
	fast := NewConfig(32, 1)
	slow := Benchmarked()
	mf := New(fast)
	ms := New(slow)
	p := prog.Simple("w", 100,
		prog.Op{Class: prog.VLoad, VL: 777, Stride: 1},
		prog.Op{Class: prog.VMul, VL: 777})
	rf := mf.Run(prog.MustCompile(p), RunOpts{Procs: 8})
	rs := ms.Run(prog.MustCompile(p), RunOpts{Procs: 8})
	ratio := rs.Seconds / rf.Seconds
	if ratio < 1.1499 || ratio > 1.1501 {
		t.Errorf("clock ratio = %v, want exactly 1.15", ratio)
	}
	if rf.Clocks != rs.Clocks {
		t.Error("clock count should not depend on cycle time")
	}
}
