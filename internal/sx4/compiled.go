package sx4

import "sx4bench/internal/sx4/prog"

// The compiled execution path. prog.Compile flattens a Program into
// contiguous phase/loop/op arrays once; compile below layers the
// configuration-dependent per-loop invariants on top (trip resource
// costs, uncontended trip clocks, per-CPU port demand, memory-bound
// classification). After that, every Run against the same trace is a
// walk over O(phases + loops) flat slices of precomputed floats — no
// per-op switch, no stride-factor derivation, no re-validation — and
// is bit-identical to the interpreted engine, which survives as the
// differential oracle (Machine.Interpret, pinned by the quickcheck
// suites in internal/check).

// loopTiming is one executable loop's configuration-dependent timing
// invariant: everything phaseClocks derives per trip that does not
// depend on the run's processor allocation.
type loopTiming struct {
	// cost is the per-trip resource usage (tripClocks of the body).
	cost tripCost
	// perCPUWords is the loop's uncontended memory-port demand in
	// words per clock per CPU: cost.portWords over the uncontended
	// trip time, zero when the trip is free.
	perCPUWords float64
	// memBound records cost.memBound() — whether memory is the
	// binding resource of the trip.
	memBound bool
	// trips is the loop's trip count (always > 0; zero-trip loops are
	// compiled out).
	trips int64
}

// phaseTiming is one phase of a compiled program.
type phaseTiming struct {
	name         string
	parallel     bool
	barriers     int
	serialClocks float64
	flops        int64
	words        int64
	// loops spans the phase's loopTimings in compiledProgram.loops.
	loops prog.Span
}

// compiledProgram is a program compiled against one machine
// configuration: immutable after compile, shared by every concurrent
// Run through the machine's compiled-trace cache.
type compiledProgram struct {
	name   string
	flops  int64
	words  int64
	phases []phaseTiming
	loops  []loopTiming
	// capacity is the memory system's aggregate word rate, hoisted out
	// of the per-loop contention test (it depends only on the bank
	// geometry, which SetConfig rebuilds along with this cache).
	capacity float64
}

// compile derives the machine-specific timing invariants from the
// flattened trace. The result depends on the configuration only
// through tripClocks and the loop-overhead constant, so SetConfig
// must (and does) drop the compiled-trace cache.
func (m *Machine) compile(c *prog.Compiled) *compiledProgram {
	cp := &compiledProgram{
		name:     c.Name,
		flops:    c.Flops,
		words:    c.Words,
		phases:   make([]phaseTiming, len(c.Phases)),
		loops:    make([]loopTiming, len(c.Loops)),
		capacity: m.mem.CapacityWordsPerClock(),
	}
	for i := range c.Loops {
		l := &c.Loops[i]
		cost := m.tripClocks(c.Body(*l))
		lt := loopTiming{
			cost:     cost,
			memBound: cost.memBound(),
			trips:    l.Trips,
		}
		// Identical to the interpreted engine: demand is port words
		// over the uncontended trip time, zero for a free trip.
		if base := cost.clocks(m.cfg.LoopOverheadClocks, 1); base > 0 {
			lt.perCPUWords = cost.portWords / base
		}
		cp.loops[i] = lt
	}
	for i := range c.Phases {
		ph := &c.Phases[i]
		cp.phases[i] = phaseTiming{
			name:         ph.Name,
			parallel:     ph.Parallel,
			barriers:     ph.Barriers,
			serialClocks: ph.SerialClocks,
			flops:        ph.Flops,
			words:        ph.Words,
			loops:        ph.Loops,
		}
	}
	return cp
}

// runCompiled evaluates a compiled program. The arithmetic mirrors
// Interpret/phaseClocks operation for operation, so results are
// bit-identical to the interpreted path.
func (m *Machine) runCompiled(cp *compiledProgram, opts RunOpts) Result {
	procs := opts.Procs
	if procs <= 0 {
		procs = 1
	}
	if procs > m.cfg.CPUs {
		procs = m.cfg.CPUs
	}
	active := opts.ActiveCPUs
	if active < procs {
		active = procs
	}
	if active > m.cfg.CPUs {
		active = m.cfg.CPUs
	}

	res := Result{Program: cp.name, Procs: procs}
	if len(cp.phases) > 0 {
		res.Phases = make([]PhaseTime, len(cp.phases))
	}
	for i := range cp.phases {
		// Timed in place: the phase record is built directly in the
		// result slice, sparing a struct copy per phase.
		pt := &res.Phases[i]
		m.phaseClocksCompiled(pt, cp, &cp.phases[i], procs, active)
		res.Clocks += pt.Clocks
		res.Flops += pt.Flops
		res.Words += pt.Words
	}
	res.Seconds = res.Clocks * m.cfg.ClockNS * 1e-9
	return res
}

func (m *Machine) phaseClocksCompiled(pt *PhaseTime, cp *compiledProgram, ph *phaseTiming, procs, active int) {
	*pt = PhaseTime{Name: ph.name, Flops: ph.flops, Words: ph.words, Serial: !ph.parallel}
	execProcs := 1
	execActive := active
	if ph.parallel {
		execProcs = procs
	} else if execActive < 1 {
		execActive = 1
	}

	for li := ph.loops.Lo; li < ph.loops.Hi; li++ {
		lt := &cp.loops[li]
		streams := execProcs
		if execActive > streams {
			streams = execActive
		}
		demand := lt.perCPUWords * float64(streams)
		factor := m.mem.ContentionFactor(demand, cp.capacity)
		trip := lt.cost.clocks(m.cfg.LoopOverheadClocks, factor)
		if other := execActive - procs; other > 0 && m.cfg.CPUs > 1 {
			trip *= 1 + m.cfg.InterferenceFrac*float64(other)/float64(m.cfg.CPUs-1)
		}
		if lt.memBound {
			pt.MemBound = true
		}
		trips := lt.trips
		if ph.parallel && execProcs > 1 {
			trips = (lt.trips + int64(execProcs) - 1) / int64(execProcs)
		}
		pt.Clocks += float64(trips) * trip
	}
	if ph.barriers > 0 && procs > 1 {
		pt.Clocks += float64(ph.barriers) *
			(m.cfg.BarrierBaseClocks + m.cfg.BarrierPerCPUClocks*float64(procs))
	}
	pt.Clocks += ph.serialClocks
}
