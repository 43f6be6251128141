package ncar

import (
	"context"
	"math"
	"testing"

	"sx4bench/internal/target"
)

// TestMeasureSecondsMatchAttemptSeconds pins the single evaluation per
// member: the duration Measure reports and the one the resilient
// runner schedules with are the same number, bit for bit, for every
// member on every registry machine, at a fixed allocation and at the
// machine's default.
func TestMeasureSecondsMatchAttemptSeconds(t *testing.T) {
	ctx := context.Background()
	machines := target.All()
	if len(machines) == 0 {
		t.Fatal("no registry machines linked")
	}
	for _, name := range machines {
		m, err := target.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range Suite() {
			for _, cpus := range []int{1, 4, 0} {
				got, err := Measure(ctx, m, b.Name, cpus)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, b.Name, cpus, err)
				}
				want := AttemptSeconds(m, b.Name, cpus)
				if math.Float64bits(got.Seconds) != math.Float64bits(want) {
					t.Errorf("%s/%s/%d: Measure seconds %v, AttemptSeconds %v", name, b.Name, cpus, got.Seconds, want)
				}
			}
		}
	}
}

// TestByNameDoesNotAllocate pins the package-level suite table: a
// lookup runs per member of every decoded query and measurement.
func TestByNameDoesNotAllocate(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ByName("POP"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ByName allocates %v times per call, want 0", allocs)
	}
}

// TestSuiteReturnsCopy pins that Suite hands out a copy: a caller that
// edits its slice must not change the table ByName reads.
func TestSuiteReturnsCopy(t *testing.T) {
	s := Suite()
	s[0].Name = "EDITED"
	if _, err := ByName("PARANOIA"); err != nil {
		t.Fatalf("editing Suite's result changed the table: %v", err)
	}
}
