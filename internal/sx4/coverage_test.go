package sx4

import (
	"testing"

	"sx4bench/internal/sx4/prog"
)

// Tests for edges the main suites do not reach.

func TestMachineName(t *testing.T) {
	m := New(Benchmarked())
	if m.Name() != "SX-4/32" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestZeroResultRates(t *testing.T) {
	var r Result
	if r.MFLOPS() != 0 || r.GFLOPS() != 0 || r.PortMBps() != 0 {
		t.Error("zero-duration result should report zero rates")
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	bad := Benchmarked()
	bad.VectorPipes = 0
	defer func() {
		if recover() == nil {
			t.Error("New accepted an invalid config")
		}
	}()
	New(bad)
}

func TestRunPanicsOnInvalidProgram(t *testing.T) {
	m := New(Benchmarked())
	bad := prog.Program{Name: "bad", Phases: []prog.Phase{{
		Loops: []prog.Loop{{Trips: 1, Body: []prog.Op{{Class: prog.VAdd, VL: 0}}}},
	}}}
	defer func() {
		if recover() == nil {
			t.Error("Run accepted an invalid program")
		}
	}()
	m.Run(prog.MustCompile(bad), RunOpts{Procs: 1})
}

func TestIntrinsicScaleApplied(t *testing.T) {
	slow := Benchmarked()
	slow.IntrinsicScale = 2
	mSlow := New(slow)
	mFast := New(Benchmarked())
	p := prog.Simple("intr", 1, prog.Op{Class: prog.VIntrinsic, VL: 1 << 16, Intr: prog.Exp})
	if mSlow.Run(prog.MustCompile(p), RunOpts{Procs: 1}).Seconds <= mFast.Run(prog.MustCompile(p), RunOpts{Procs: 1}).Seconds {
		t.Error("IntrinsicScale=2 not slower")
	}
}

func TestLogicalPipeCharged(t *testing.T) {
	m := New(BenchmarkedSingleCPU())
	n := 1 << 18
	base := m.Run(prog.MustCompile(prog.Simple("l", 8, prog.Op{Class: prog.VLogical, VL: n})), RunOpts{Procs: 1})
	if base.Clocks <= 0 {
		t.Error("logical ops free")
	}
	if base.Flops != 0 {
		t.Error("logical ops counted as flops")
	}
}

func TestValidateMoreBranches(t *testing.T) {
	cases := []func(c *Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.VectorRegElems = 0 },
		func(c *Config) { c.MemoryBanks = 0 },
		func(c *Config) { c.BankBusyClocks = 0 },
		func(c *Config) { c.PortWordsPerClock = 0 },
		func(c *Config) { c.NodeWordsPerClock = 0 },
	}
	for i, mutate := range cases {
		c := Benchmarked()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStride2ConflictFreeEndToEnd(t *testing.T) {
	// The paper's guarantee surfaces at machine level: stride 2 runs
	// at the unit-stride rate.
	m := New(BenchmarkedSingleCPU())
	n := 1 << 18
	mk := func(stride int) float64 {
		return m.Run(prog.MustCompile(prog.Simple("s", 8,
			prog.Op{Class: prog.VLoad, VL: n, Stride: stride})), RunOpts{Procs: 1}).Seconds
	}
	if mk(2) > mk(1)*1.0001 {
		t.Error("stride-2 load slower than unit stride; guarantee broken")
	}
	if mk(3) <= mk(1)*1.0001 {
		t.Error("stride-3 load should pay the strided penalty")
	}
}
