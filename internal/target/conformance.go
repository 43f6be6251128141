package target

import (
	"math"
	"reflect"
	"testing"

	"sx4bench/internal/sx4/prog"
)

// Conformance pins the contract every Target implementation must keep:
//
//   - determinism: two identical Run calls produce identical Results;
//   - clone transparency: a Clone carries the same name, fingerprint,
//     scalar profile and spec, and its runs are result-identical;
//   - sane accounting: times are finite and non-negative, flop/word
//     totals are non-negative and match the trace's own counts;
//   - a sane spec: positive CPU count, clock and peak rate.
//
// The machine packages run it over every registered backend, so a model
// change that breaks the contract — a data race through a shared memo, a
// Clone that drops part of the configuration, a phase model that emits
// NaN — fails loudly in the conformance test rather than as drifting
// goldens three layers up.
func Conformance(t testing.TB, tgt Target) {
	t.Helper()
	if tgt == nil {
		t.Fatal("conformance: nil target")
	}
	if tgt.Name() == "" {
		t.Error("conformance: empty Name()")
	}

	spec := tgt.Spec()
	if spec.CPUs <= 0 {
		t.Errorf("%s: Spec().CPUs = %d, want > 0", tgt.Name(), spec.CPUs)
	}
	if spec.Nodes <= 0 {
		t.Errorf("%s: Spec().Nodes = %d, want > 0", tgt.Name(), spec.Nodes)
	}
	if spec.ClockNS <= 0 || math.IsInf(spec.ClockNS, 0) || math.IsNaN(spec.ClockNS) {
		t.Errorf("%s: Spec().ClockNS = %v, want finite > 0", tgt.Name(), spec.ClockNS)
	}
	if spec.PeakMFLOPSPerCPU <= 0 {
		t.Errorf("%s: Spec().PeakMFLOPSPerCPU = %v, want > 0", tgt.Name(), spec.PeakMFLOPSPerCPU)
	}
	if spec.DiskBytesPerSec < 0 {
		t.Errorf("%s: Spec().DiskBytesPerSec = %v, want >= 0", tgt.Name(), spec.DiskBytesPerSec)
	}

	sp := tgt.Scalar()
	if sp.ClockNS <= 0 || sp.IssuePerClock <= 0 {
		t.Errorf("%s: Scalar() = %+v, want positive clock and issue width", tgt.Name(), sp)
	}

	if tgt.Fingerprint() != tgt.Fingerprint() {
		t.Errorf("%s: Fingerprint() not stable across calls", tgt.Name())
	}

	cl := tgt.Clone()
	if cl == nil {
		t.Fatalf("%s: Clone() returned nil", tgt.Name())
	}
	if cl.Name() != tgt.Name() {
		t.Errorf("%s: Clone().Name() = %q", tgt.Name(), cl.Name())
	}
	if cl.Fingerprint() != tgt.Fingerprint() {
		t.Errorf("%s: Clone().Fingerprint() = %#x, want %#x",
			tgt.Name(), cl.Fingerprint(), tgt.Fingerprint())
	}
	if cl.Scalar() != sp {
		t.Errorf("%s: Clone().Scalar() = %+v, want %+v", tgt.Name(), cl.Scalar(), sp)
	}
	if cl.Spec() != spec {
		t.Errorf("%s: Clone().Spec() = %+v, want %+v", tgt.Name(), cl.Spec(), spec)
	}

	for _, p := range probePrograms() {
		c := prog.MustCompile(p)
		for _, opts := range probeOpts(spec.CPUs) {
			r1 := tgt.Run(c, opts)
			r2 := tgt.Run(c, opts)
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("%s: %s %+v: Run not deterministic:\n  %+v\n  %+v",
					tgt.Name(), p.Name, opts, r1, r2)
			}
			rc := cl.Run(prog.MustCompile(p.Clone()), opts)
			if !reflect.DeepEqual(r1, rc) {
				t.Errorf("%s: %s %+v: Clone run differs:\n  orig  %+v\n  clone %+v",
					tgt.Name(), p.Name, opts, r1, rc)
			}
			checkResult(t, tgt.Name(), p, r1)
		}
	}
}

func checkResult(t testing.TB, name string, p prog.Program, r Result) {
	t.Helper()
	if math.IsNaN(r.Clocks) || math.IsInf(r.Clocks, 0) || r.Clocks < 0 {
		t.Errorf("%s: %s: Clocks = %v, want finite >= 0", name, p.Name, r.Clocks)
	}
	if math.IsNaN(r.Seconds) || math.IsInf(r.Seconds, 0) || r.Seconds < 0 {
		t.Errorf("%s: %s: Seconds = %v, want finite >= 0", name, p.Name, r.Seconds)
	}
	if r.Flops < 0 || r.Words < 0 {
		t.Errorf("%s: %s: negative totals: flops %d words %d", name, p.Name, r.Flops, r.Words)
	}
	if r.Flops != p.Flops() {
		t.Errorf("%s: %s: Flops = %d, want trace count %d", name, p.Name, r.Flops, p.Flops())
	}
	if r.Words != p.Words() {
		t.Errorf("%s: %s: Words = %d, want trace count %d", name, p.Name, r.Words, p.Words())
	}
	var phClocks float64
	for _, ph := range r.Phases {
		if math.IsNaN(ph.Clocks) || math.IsInf(ph.Clocks, 0) || ph.Clocks < 0 {
			t.Errorf("%s: %s: phase %q Clocks = %v", name, p.Name, ph.Name, ph.Clocks)
		}
		if ph.Flops < 0 || ph.Words < 0 {
			t.Errorf("%s: %s: phase %q negative totals", name, p.Name, ph.Name)
		}
		phClocks += ph.Clocks
	}
	if len(r.Phases) > 0 {
		if d := math.Abs(phClocks - r.Clocks); d > 1e-6*(1+r.Clocks) {
			t.Errorf("%s: %s: phase clocks sum %v != total %v", name, p.Name, phClocks, r.Clocks)
		}
	}
}

// probePrograms exercises every op class plus the structural edge cases:
// zero-trip loops, serial phases, barriers and fixed serial clocks.
func probePrograms() []prog.Program {
	return []prog.Program{
		prog.Simple("probe-axpy", 100,
			prog.Op{Class: prog.VLoad, VL: 256, Stride: 1},
			prog.Op{Class: prog.VLoad, VL: 256, Stride: 1},
			prog.Op{Class: prog.VMul, VL: 256},
			prog.Op{Class: prog.VAdd, VL: 256},
			prog.Op{Class: prog.VStore, VL: 256, Stride: 1},
		),
		prog.Simple("probe-strided", 40,
			prog.Op{Class: prog.VLoad, VL: 128, Stride: 8},
			prog.Op{Class: prog.VDiv, VL: 128},
			prog.Op{Class: prog.VStore, VL: 128, Stride: 8},
		),
		prog.Simple("probe-gather", 25,
			prog.Op{Class: prog.VGather, VL: 200, Span: 4096},
			prog.Op{Class: prog.VIntrinsic, VL: 200, Intr: prog.Exp},
			prog.Op{Class: prog.VScatter, VL: 200, Span: 4096},
		),
		prog.Simple("probe-shortvec", 1000,
			prog.Op{Class: prog.VLoad, VL: 7, Stride: 1},
			prog.Op{Class: prog.VAdd, VL: 7},
			prog.Op{Class: prog.VLogical, VL: 7},
			prog.Op{Class: prog.VStore, VL: 7, Stride: 1},
		),
		{
			Name: "probe-mixed",
			Phases: []prog.Phase{
				{
					Name:     "serial-setup",
					Parallel: false,
					Loops: []prog.Loop{{Trips: 10, Body: []prog.Op{
						{Class: prog.Scalar, Count: 50},
					}}},
					SerialClocks: 1234,
				},
				{
					Name:     "zero-trip",
					Parallel: true,
					Loops:    []prog.Loop{{Trips: 0, Body: []prog.Op{{Class: prog.VAdd, VL: 64}}}},
				},
				{
					Name:     "compute",
					Parallel: true,
					Loops: []prog.Loop{{Trips: 64, Body: []prog.Op{
						{Class: prog.VLoad, VL: 256, Stride: 1},
						{Class: prog.VMul, VL: 256, FlopsPerElem: 2},
						{Class: prog.VStore, VL: 256, Stride: 2},
					}}},
					Barriers: 1,
				},
			},
		},
	}
}

func probeOpts(cpus int) []RunOpts {
	opts := []RunOpts{{}, {Procs: 1}}
	if cpus > 1 {
		opts = append(opts,
			RunOpts{Procs: cpus},
			RunOpts{Procs: 1, ActiveCPUs: cpus},
		)
	}
	return opts
}
