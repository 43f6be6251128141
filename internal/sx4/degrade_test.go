package sx4

import (
	"errors"
	"testing"

	"sx4bench/internal/fault"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

func TestDegradeZeroIsIdentity(t *testing.T) {
	m := New(Benchmarked())
	got, err := target.Degrade(m, fault.Degradation{})
	if err != nil {
		t.Fatalf("zero degradation: %v", err)
	}
	if got != target.Target(m) {
		t.Error("zero degradation did not return the machine itself")
	}
}

func TestDegradedConfig(t *testing.T) {
	m := New(Benchmarked())
	d := fault.Degradation{CPUsLost: 8, BankHalvings: 1, PortHalvings: 1, IOPsStalled: 2}
	dt, err := m.Degraded(d)
	if err != nil {
		t.Fatal(err)
	}
	dm := dt.(*Machine)
	healthy, degraded := m.Config(), dm.Config()
	if degraded.CPUs != healthy.CPUs-8 {
		t.Errorf("degraded CPUs = %d, want %d", degraded.CPUs, healthy.CPUs-8)
	}
	if degraded.MemoryBanks != healthy.MemoryBanks/2 {
		t.Errorf("degraded banks = %d, want %d", degraded.MemoryBanks, healthy.MemoryBanks/2)
	}
	if degraded.NodeWordsPerClock != healthy.NodeWordsPerClock/2 {
		t.Errorf("degraded node width = %d, want %d", degraded.NodeWordsPerClock, healthy.NodeWordsPerClock/2)
	}
	if degraded.PortWordsPerClock != healthy.PortWordsPerClock/2 {
		t.Errorf("degraded port width = %d, want %d", degraded.PortWordsPerClock, healthy.PortWordsPerClock/2)
	}
	if degraded.IOPs != healthy.IOPs-2 {
		t.Errorf("degraded IOPs = %d, want %d", degraded.IOPs, healthy.IOPs-2)
	}
	if dm.Fingerprint() == m.Fingerprint() {
		t.Error("degraded machine fingerprints identically to healthy (memo would serve stale timings)")
	}
	// The original is untouched.
	if m.Config() != Benchmarked() {
		t.Error("Degraded mutated the healthy machine's configuration")
	}
}

func TestDegradedNeverFaster(t *testing.T) {
	// Enough trips that losing CPUs changes the per-processor share.
	trace := prog.MustCompile(copyProgram(1<<16, 960))
	m := New(Benchmarked())
	for _, tc := range []struct {
		name string
		d    fault.Degradation
	}{
		{"cpu loss", fault.Degradation{CPUsLost: 8}},
		{"bank halving", fault.Degradation{BankHalvings: 1, PortHalvings: 1}},
		{"port halving", fault.Degradation{PortHalvings: 1}},
		{"iop stall", fault.Degradation{IOPsStalled: 1}},
		{"everything", fault.Degradation{CPUsLost: 16, BankHalvings: 2, PortHalvings: 2, IOPsStalled: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dt, err := m.Degraded(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			// Ask both machines for full parallelism; Run clamps Procs
			// to the surviving CPU count, so the degraded machine runs
			// the same work on fewer, slower resources.
			opts := RunOpts{Procs: m.Config().CPUs}
			healthy := m.Run(trace, opts).Seconds
			degraded := dt.Run(trace, opts).Seconds
			if degraded < healthy {
				t.Errorf("degraded %gs faster than healthy %gs", degraded, healthy)
			}
			if tc.d.CPUsLost > 0 || tc.d.BankHalvings > 0 || tc.d.PortHalvings > 0 {
				if degraded <= healthy {
					t.Errorf("compute degradation had no timing impact: healthy %gs, degraded %gs", healthy, degraded)
				}
			}
		})
	}
}

func TestDegradedMachineDown(t *testing.T) {
	m := New(NewConfig(4, 1))
	for _, lost := range []int{4, 5, 100} {
		_, err := m.Degraded(fault.Degradation{CPUsLost: lost})
		if !errors.Is(err, target.ErrMachineDown) {
			t.Errorf("CPUsLost=%d: err = %v, want ErrMachineDown", lost, err)
		}
	}
	// One surviving CPU is still a machine.
	dt, err := m.Degraded(fault.Degradation{CPUsLost: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := dt.(*Machine).Config().CPUs; got != 1 {
		t.Errorf("surviving CPUs = %d, want 1", got)
	}
}

func TestDegradedFloorsAtOne(t *testing.T) {
	cfg := NewConfig(2, 1)
	m := New(cfg)
	dt, err := m.Degraded(fault.Degradation{BankHalvings: 40, PortHalvings: 40, IOPsStalled: 40})
	if err != nil {
		t.Fatal(err)
	}
	got := dt.(*Machine).Config()
	if got.MemoryBanks != 1 || got.PortWordsPerClock != 1 || got.NodeWordsPerClock != 1 || got.IOPs != 1 {
		t.Errorf("repeated degradation did not floor at 1: banks=%d port=%d node=%d iops=%d",
			got.MemoryBanks, got.PortWordsPerClock, got.NodeWordsPerClock, got.IOPs)
	}
}
