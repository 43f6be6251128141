// Package target is the machine-agnostic execution layer of the
// benchmark system: the leaf package every higher layer — the SX-4
// model, the Table 1 comparators, the experiment engine, the NCAR
// runners, the verification subsystem and the CLIs — speaks instead of
// a concrete machine type.
//
// It provides four things:
//
//   - the Target interface: a modeled machine that executes operation
//     traces and exposes its scalar profile and specification sheet;
//   - the run-result vocabulary (RunOpts, PhaseTime, Result), hoisted
//     out of the SX-4 model so that a Target implementation need not
//     depend on package sx4 at all;
//   - a name-keyed machine registry (Register/Lookup/All), so runners
//     and CLIs select backends by name ("-machine ymp") without
//     constructing concrete machine types themselves;
//   - a shared timing memo (Memo) keyed on a target's configuration
//     fingerprint, so every backend's warm-cache results are
//     byte-identical to its cold ones.
//
// The package depends only on sx4/prog (the trace vocabulary) and the
// standard library; the concrete machines depend on it, never the
// other way around.
package target

import "sx4bench/internal/sx4/prog"

// RunOpts controls one simulated execution.
type RunOpts struct {
	// Procs is the number of CPUs assigned to the program (within one
	// node). Zero means 1.
	Procs int
	// ActiveCPUs is the total number of busy CPUs on the node during
	// the run, including this program's. It exceeds Procs when other
	// jobs share the node (the ensemble and PRODLOAD tests). Zero
	// means Procs.
	ActiveCPUs int
}

// PhaseTime reports the simulated cost of one program phase.
type PhaseTime struct {
	Name     string
	Clocks   float64
	Flops    int64
	Words    int64
	Serial   bool
	MemBound bool
}

// Result is the outcome of a simulated run.
type Result struct {
	Program string
	Procs   int
	Clocks  float64
	Seconds float64
	Flops   int64
	Words   int64
	Phases  []PhaseTime
}

// MFLOPS returns the achieved rate in millions of (Y-MP-equivalent)
// floating-point operations per second.
func (r Result) MFLOPS() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.Flops) / r.Seconds / 1e6
}

// GFLOPS returns the achieved rate in GFLOPS.
func (r Result) GFLOPS() float64 { return r.MFLOPS() / 1e3 }

// PortMBps returns the memory-port traffic rate in MB/s.
func (r Result) PortMBps() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.Words*8) / r.Seconds / 1e6
}

// Clone returns a deep copy of the result, so memoized Phases slices
// cannot be aliased by concurrent callers.
func (r Result) Clone() Result {
	out := r
	out.Phases = append([]PhaseTime(nil), r.Phases...)
	return out
}

// ScalarProfile describes a machine's scalar processing path, the one
// HINT exercises: issue width, cache, and scalar memory latency.
type ScalarProfile struct {
	ClockNS       float64
	IssuePerClock float64
	// HasCache reports whether scalar loads hit a data cache; the
	// vector Crays have none and pay main-memory latency per load.
	HasCache           bool
	CacheWordsPerClock float64
	MemClocksPerWord   float64
}

// Spec is a target's specification sheet: the machine facts the
// benchmark runners need beyond trace execution.
type Spec struct {
	// CPUs is the number of processors per node; Nodes the node count.
	CPUs  int
	Nodes int
	// ClockNS is the machine cycle time in nanoseconds.
	ClockNS float64
	// PeakMFLOPSPerCPU is the nominal single-processor peak rate.
	PeakMFLOPSPerCPU float64
	// DiskBytesPerSec is the attached disk subsystem's sustained rate;
	// zero when the model carries no I/O subsystem (the comparison
	// machines were benchmarked compute-only).
	DiskBytesPerSec float64

	// The remaining fields are the specification-sheet facts of the
	// paper's Table 2. They are zero for models whose spec sheet the
	// paper never prints (the Table 1 comparators).

	// VectorPipes is the number of parallel pipes per vector
	// functional unit; zero for scalar machines.
	VectorPipes int
	// PortWordsPerClock is the per-CPU memory-port width in 64-bit
	// words per clock.
	PortWordsPerClock int
	// MainMemoryGB and XMUGB are the main and extended memory
	// capacities.
	MainMemoryGB float64
	XMUGB        float64
	// DiskCapacityGB is the attached disk capacity.
	DiskCapacityGB float64
	// PowerKVA is the chassis power requirement.
	PowerKVA float64
}

// Seconds converts a clock count to seconds at the machine's cycle
// time.
func (s Spec) Seconds(clocks float64) float64 { return clocks * s.ClockNS * 1e-9 }

// Target is a modeled machine: it executes compiled operation traces
// and exposes its scalar profile and specification. Implementations
// must be pure — Run is a function of (trace, opts) and the target's
// configuration only — and safe for concurrent Run calls.
type Target interface {
	// Name returns the model designation, e.g. "SX-4/32" or "CRI Y-MP".
	Name() string
	// Run simulates the compiled trace. A trace is compiled (validated,
	// fingerprinted, flattened) once where it is built — prog.Compile,
	// or a TraceCache for shapes the drivers revisit — so Run keys its
	// timing memo on the fingerprint the compiler stamped and never
	// re-walks the source program.
	Run(c *prog.Compiled, opts RunOpts) Result
	// Scalar returns the machine's scalar-path description (the HINT
	// profile).
	Scalar() ScalarProfile
	// Spec returns the machine's specification sheet.
	Spec() Spec
	// Fingerprint hashes the target's complete configuration: the
	// timing-memo key component, so memoized results can never be
	// served across configurations (or backends).
	Fingerprint() uint64
	// Clone returns a fresh target with the same configuration and a
	// cold timing memo. Clones must be run-for-run identical to the
	// original (Conformance pins this).
	Clone() Target
}

// CacheStatser is the optional interface of targets that expose their
// timing-memo counters (shard occupancy, generation drops); the CLIs'
// -cachestats output uses it.
type CacheStatser interface {
	CacheStats() CacheStats
}
