package ncar

import (
	"fmt"
	"io"
	"math"
	"sync"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/core"
	"sx4bench/internal/core/sched"
	"sx4bench/internal/hint"
	"sx4bench/internal/linpack"
	"sx4bench/internal/mom"
	"sx4bench/internal/nas"
	"sx4bench/internal/prodload"
	"sx4bench/internal/stream"
	"sx4bench/internal/target"
)

// Anchor is one numeric result the paper reports, with the model's
// value and a tolerance band.
type Anchor struct {
	Name   string
	Unit   string
	Paper  float64
	Model  float64
	TolPct float64
}

// Deviation returns the relative deviation in percent.
func (a Anchor) Deviation() float64 {
	if a.Paper == 0 {
		return 0
	}
	return (a.Model/a.Paper - 1) * 100
}

// Pass reports whether the model lands inside the band.
func (a Anchor) Pass() bool { return math.Abs(a.Deviation()) <= a.TolPct }

// Anchors evaluates every scalar anchor of the paper on the machine.
// The independent model evaluations fan out across host workers; each
// lands in its own slot, so the anchor list is deterministic for any
// worker count (the machine model is pure and its timing cache is
// concurrency-safe).
func Anchors(m target.Target) []Anchor {
	t42, _ := ccm2.ResolutionByName("T42L18")
	t63, _ := ccm2.ResolutionByName("T63L18")
	t170, _ := ccm2.ResolutionByName("T170L18")
	var (
		y42, y63 float64
		gf170    float64
		ens      ccm2.EnsembleResult
		pl       prodload.Result
		momT1    float64
		momS32   float64
		popMF    float64
		radMF    float64
	)
	jobs := []func(){
		func() { _, _, y42 = ccm2.YearSim(m, t42, 32) },
		func() { _, _, y63 = ccm2.YearSim(m, t63, 32) },
		func() { gf170 = ccm2.SustainedGFLOPS(m, t170, 32) },
		func() { ens = ccm2.EnsembleTest(m) },
		func() { pl = prodload.Run(m) },
		func() {
			momT1 = mom.Benchmark350(m, 1)
			momS32 = momT1 / mom.Benchmark350(m, 32)
		},
		func() { popMF = POPMFlops(m) },
		func() { radMF = RADABSMFlops(m) },
	}
	sched.ForEach(0, len(jobs), func(i int) error { jobs[i](); return nil })

	return []Anchor{
		{"RADABS SX-4/1", "MFLOPS", 865.9, radMF, 20},
		{"CCM2 T170L18 on 32 CPUs", "GFLOPS", 24, gf170, 20},
		{"CCM2 one year T42L18", "s", 1327.53, y42, 20},
		{"CCM2 one year T63L18", "s", 3452.48, y63, 20},
		{"Ensemble degradation", "%", 1.89, ens.DegradationPct, 60},
		{"MOM 350 steps, 1 CPU", "s", 1861.25, momT1, 20},
		{"MOM speedup on 32 CPUs", "x", 9.06, momS32, 20},
		{"POP 2-degree, 1 CPU", "MFLOPS", 537, popMF, 20},
		{"PRODLOAD total", "min", 93.47, pl.TotalMinutes(), 20},
	}
}

// WriteReport renders a procurement-style findings document: every
// category of the suite, the paper-versus-model anchors, and the
// comparator contrast of Section 3.
func WriteReport(w io.Writer, m target.Target) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("NCAR Benchmark Suite — findings for %s\n", m); err != nil {
		return err
	}
	if err := p("%s\n\n", "================================================================"); err != nil {
		return err
	}

	// Category 1: correctness.
	c := RunCorrectness()
	if err := p("1. Correctness: PARANOIA %v, ELEFUNT %d/5 functions in bounds (category pass: %v)\n",
		c.Paranoia.Pass(), countPass(c), c.Pass); err != nil {
		return err
	}

	// Categories 2-7 via the anchors.
	if err := p("\n2-7. Measured anchors (paper vs model):\n"); err != nil {
		return err
	}
	allPass := true
	for _, a := range Anchors(m) {
		status := "ok"
		if !a.Pass() {
			status = "OUT OF BAND"
			allPass = false
		}
		if err := p("  %-28s paper %10.2f  model %10.2f %-7s %+6.1f%%  [%s]\n",
			a.Name, a.Paper, a.Model, a.Unit, a.Deviation(), status); err != nil {
			return err
		}
	}

	// Section 3 contrast.
	if err := p("\nSection 3 comparators on the SX-4/1 model:\n"); err != nil {
		return err
	}
	if err := p("  LINPACK n=100 %7.0f MFLOPS, n=1000 %7.0f MFLOPS (peak %.0f)\n",
		linpack.MFLOPS(m, 100), linpack.MFLOPS(m, 1000), m.Spec().PeakMFLOPSPerCPU); err != nil {
		return err
	}
	for _, r := range stream.Run(m) {
		if err := p("  STREAM %-6s %8.0f MB/s\n", r.Kernel, r.MBps); err != nil {
			return err
		}
	}
	if err := p("  NAS EP %7.0f MFLOPS, MG %7.0f MFLOPS\n",
		nas.EPMFLOPS(m, 1<<22), nas.MGMFLOPS(m, 128)); err != nil {
		return err
	}
	steps := hostHintSteps()
	if err := p("  HINT host bounds [%.6f, %.6f] around %.6f\n",
		steps[len(steps)-1].Lower, steps[len(steps)-1].Upper, hint.TrueArea); err != nil {
		return err
	}

	// Timing-cache characterization. The report must be byte-identical
	// no matter how many experiments shared m or in what order they ran,
	// so the counters come from a fresh probe machine (a cold Clone)
	// driven through a fixed workload twice — a deterministic cold/warm
	// contrast — rather than from m's live counters (figures -cachestats
	// prints those).
	probe := m.Clone()
	if counted, ok := probe.(interface{ CacheStats() target.CacheStats }); ok {
		RADABSMFlops(probe)
		cold := counted.CacheStats()
		RADABSMFlops(probe)
		warm := counted.CacheStats()
		if err := p("\nTiming cache (fresh probe, RADABS twice): cold pass %d misses %d hits; warm pass +%d hits +%d misses\n",
			cold.Misses, cold.Hits, warm.Hits-cold.Hits, warm.Misses-cold.Misses); err != nil {
			return err
		}
	}

	verdict := "all anchors within bands"
	if !allPass {
		verdict = "some anchors out of band — see EXPERIMENTS.md"
	}
	return p("\nVerdict: %s.\n", verdict)
}

var (
	hintOnce  sync.Once
	hintSteps []hint.Step
)

// hostHintSteps memoizes the host HINT sweep: the hierarchical-
// integration bounds are pure arithmetic on fixed subdivisions, so the
// 2000-step run is a constant of the process.
func hostHintSteps() []hint.Step {
	hintOnce.Do(func() { hintSteps = hint.Run(2000) })
	return hintSteps
}

func countPass(c CorrectnessResult) int {
	n := 0
	for _, e := range c.Elefunt {
		if e.Pass {
			n++
		}
	}
	return n
}

// ProfileTable renders the per-phase time breakdown of one CCM2 step —
// where the simulated machine spends its cycles at a resolution and
// processor count.
func ProfileTable(m target.Target, resName string, procs int) (core.Table, error) {
	res, err := ccm2.ResolutionByName(resName)
	if err != nil {
		return core.Table{}, err
	}
	r := m.Run(ccm2.CompiledStepTrace(res), target.RunOpts{Procs: procs, ActiveCPUs: procs})
	t := core.Table{
		ID:      "profile-" + resName,
		Title:   fmt.Sprintf("CCM2 %s step profile on %d CPUs", resName, procs),
		Headers: []string{"Phase", "ms", "% of step", "MFLOPS", "memory bound"},
	}
	var total float64
	for _, ph := range r.Phases {
		total += ph.Clocks
	}
	for _, ph := range r.Phases {
		secs := m.Spec().Seconds(ph.Clocks)
		mf := 0.0
		if secs > 0 {
			mf = float64(ph.Flops) / secs / 1e6
		}
		bound := ""
		if ph.MemBound {
			bound = "yes"
		}
		t.AddRow(ph.Name,
			fmt.Sprintf("%.2f", secs*1e3),
			fmt.Sprintf("%.1f%%", 100*ph.Clocks/total),
			fmt.Sprintf("%.0f", mf),
			bound)
	}
	t.AddRow("total", fmt.Sprintf("%.2f", r.Seconds*1e3), "100.0%",
		fmt.Sprintf("%.0f", r.MFLOPS()), "")
	return t, nil
}

// MultiNodeTable renders the IXS projection for a resolution.
func MultiNodeTable(m target.Target, resName string) (core.Table, error) {
	res, err := ccm2.ResolutionByName(resName)
	if err != nil {
		return core.Table{}, err
	}
	t := core.Table{
		ID:      "multinode-" + resName,
		Title:   fmt.Sprintf("CCM2 %s projected across SX-4/32 nodes (IXS)", resName),
		Headers: []string{"Nodes", "CPUs", "ms/step", "GFLOPS", "Efficiency"},
	}
	for _, r := range ccm2.MultiNodeSweep(m, res, 16) {
		t.AddRow(fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.TotalCPUs),
			fmt.Sprintf("%.2f", r.StepSeconds*1e3),
			fmt.Sprintf("%.1f", r.GFLOPS),
			fmt.Sprintf("%.0f%%", 100*r.Efficiency))
	}
	return t, nil
}
