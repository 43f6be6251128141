package sx4

import (
	"reflect"
	"testing"

	"sx4bench/internal/sx4/prog"
)

// TestSetConfigInvalidatesMemo is the cache-coherence regression test:
// mutating the configuration between runs must never let a memoized
// timing from the old configuration leak into the new one.
func TestSetConfigInvalidatesMemo(t *testing.T) {
	m := New(Benchmarked())
	p := prog.MustCompile(cacheTestProgram(256))
	warm := m.Run(p, RunOpts{Procs: 1}) // miss: simulate + store
	m.Run(p, RunOpts{Procs: 1})         // hit: cache is warm
	if s := m.CacheStats(); s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("warm-up stats = %+v, want 1 hit, 1 entry", s)
	}

	fast := Benchmarked()
	fast.ClockNS = 4.0
	if err := m.SetConfig(fast); err != nil {
		t.Fatalf("SetConfig: %v", err)
	}
	if s := m.CacheStats(); s.Entries != 0 {
		t.Fatalf("stale entries survived SetConfig: %+v", s)
	}

	got := m.Run(p, RunOpts{Procs: 1})
	want := New(fast).Interpret(cacheTestProgram(256), RunOpts{Procs: 1})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-SetConfig run = %+v, want interpreted simulation %+v", got, want)
	}
	if got.Seconds >= warm.Seconds {
		t.Errorf("4.0 ns run (%.3g s) not faster than 9.2 ns run (%.3g s): stale timing served",
			got.Seconds, warm.Seconds)
	}
	if got.Clocks != warm.Clocks {
		t.Errorf("clock count changed with ClockNS: %v vs %v", got.Clocks, warm.Clocks)
	}
}

// TestSetConfigSameConfigKeepsMemo: reasserting the current
// configuration must not throw the warm cache away.
func TestSetConfigSameConfigKeepsMemo(t *testing.T) {
	m := New(Benchmarked())
	m.Run(prog.MustCompile(cacheTestProgram(128)), RunOpts{Procs: 1})
	if err := m.SetConfig(Benchmarked()); err != nil {
		t.Fatalf("SetConfig: %v", err)
	}
	if s := m.CacheStats(); s.Entries != 1 {
		t.Errorf("identical reconfiguration dropped the memo: %+v", s)
	}
}

// TestSetConfigInvalidLeavesMachineUsable: a rejected configuration
// must not corrupt the machine.
func TestSetConfigInvalidLeavesMachineUsable(t *testing.T) {
	m := New(Benchmarked())
	before := m.Run(prog.MustCompile(cacheTestProgram(64)), RunOpts{Procs: 1})
	bad := Benchmarked()
	bad.ClockNS = -1
	if err := m.SetConfig(bad); err == nil {
		t.Fatal("SetConfig accepted an invalid configuration")
	}
	if m.Config().ClockNS != 9.2 {
		t.Errorf("failed SetConfig mutated the config: %+v", m.Config())
	}
	after := m.Run(prog.MustCompile(cacheTestProgram(64)), RunOpts{Procs: 1})
	if !reflect.DeepEqual(before, after) {
		t.Error("failed SetConfig changed simulation results")
	}
}
