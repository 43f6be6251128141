package ccm2

import (
	"fmt"

	"sx4bench/internal/fftpack"
	"sx4bench/internal/radabs"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// Calibration constants of the CCM2 step trace. Together with the
// machine model they are tuned so the paper's anchors hold: T170L18
// sustains ~24 GFLOPS on 32 CPUs (Figure 8), the one-year T42/T63
// simulations land near Table 5, and the ensemble degradation is ~1.9%
// (Table 6). See EXPERIMENTS.md.
const (
	// transformsPerStep counts spectral<->grid field transforms per
	// level each step (state synthesis incl. wind components, plus the
	// forward transforms of the nonlinear fluxes).
	transformsPerStep = 14
	// physicsLoops is the number of small vectorized parameterization
	// loops per (latitude, level) outside radiation.
	physicsLoops = 70
	// serialClocksPerLatLev is the non-parallelized orchestration cost
	// per latitude-level per step (diagnostics accumulation, data
	// transposition between parallel regions, I/O staging).
	serialClocksPerLatLev = 1800
	// historyFieldsPerDay is the number of full 3-D fields in a daily
	// history write (Table 5's "daily average climate statistics":
	// ~15 GB/year at T63L18).
	historyFieldsPerDay = 15
	// barriersPerStep counts the synchronization points of a step.
	stepPhaseBarriers = 1
)

// StepTrace builds the operation trace of one CCM2 time step at a
// Table 4 resolution (always with the resolution's full level count).
func StepTrace(res Resolution) prog.Program {
	nlat, nlon, nlev := res.NLat, res.NLon, res.NLev
	nspec := (res.T + 1) * (res.T + 2) / 2

	var phases []prog.Phase

	// Legendre transforms: one trip per spectral coefficient per
	// field-level, vectorized over latitude (complex pairs).
	phases = append(phases, prog.Phase{
		Name: "legendre", Parallel: true, Barriers: stepPhaseBarriers,
		Loops: []prog.Loop{{
			Trips: int64(transformsPerStep) * int64(nlev) * int64(nspec),
			Body: []prog.Op{
				{Class: prog.VLoad, VL: 2 * nlat, Stride: 1},
				{Class: prog.VMul, VL: 2 * nlat},
				{Class: prog.VAdd, VL: 2 * nlat},
			},
		}},
	})

	// FFTs along longitude, vectorized across latitudes (VFFT style).
	fft := fftpack.VFFTTrace(nlon, nlat)
	var fftLoops []prog.Loop
	for _, l := range fft.Phases[0].Loops {
		l.Trips *= int64(transformsPerStep) * int64(nlev)
		fftLoops = append(fftLoops, l)
	}
	phases = append(phases, prog.Phase{
		Name: "fft", Parallel: true, Barriers: stepPhaseBarriers, Loops: fftLoops,
	})

	// Grid-space nonlinear products.
	phases = append(phases, prog.Phase{
		Name: "nonlinear", Parallel: true, Barriers: stepPhaseBarriers,
		Loops: []prog.Loop{{
			Trips: int64(nlat) * int64(nlev),
			Body: []prog.Op{
				{Class: prog.VLoad, VL: 6 * nlon, Stride: 1},
				{Class: prog.VMul, VL: nlon, FlopsPerElem: 8},
				{Class: prog.VAdd, VL: nlon, FlopsPerElem: 5},
				{Class: prog.VStore, VL: 5 * nlon, Stride: 1},
			},
		}},
	})

	// Radiation: the radabs kernel over all columns, vectorized over
	// longitude, one latitude row at a time.
	rad := radabs.Trace(nlon, nlev)
	var radLoops []prog.Loop
	for _, l := range rad.Phases[0].Loops {
		l.Trips *= int64(nlat)
		radLoops = append(radLoops, l)
	}
	phases = append(phases, prog.Phase{
		Name: "radiation", Parallel: true, Barriers: stepPhaseBarriers, Loops: radLoops,
	})

	// Other physics parameterizations: many small vectorized loops.
	phases = append(phases, prog.Phase{
		Name: "physics", Parallel: true, Barriers: stepPhaseBarriers,
		Loops: []prog.Loop{
			{
				Trips: int64(nlat) * int64(nlev) * int64(physicsLoops),
				Body: []prog.Op{
					{Class: prog.VLoad, VL: 3 * nlon, Stride: 1},
					{Class: prog.VMul, VL: nlon, FlopsPerElem: 12},
					{Class: prog.VAdd, VL: nlon, FlopsPerElem: 11},
					{Class: prog.VStore, VL: nlon, Stride: 1},
				},
			},
			{
				Trips: int64(nlat) * int64(nlev) * 8,
				Body: []prog.Op{
					{Class: prog.VLoad, VL: nlon, Stride: 1},
					{Class: prog.VIntrinsic, VL: nlon, Intr: prog.Exp},
					{Class: prog.VStore, VL: nlon, Stride: 1},
				},
			},
		},
	})

	// Semi-Lagrangian moisture transport: indirect addressing on the
	// Gaussian grid.
	phases = append(phases, prog.Phase{
		Name: "slt", Parallel: true, Barriers: stepPhaseBarriers,
		Loops: []prog.Loop{{
			Trips: int64(nlat) * int64(nlev),
			Body: []prog.Op{
				{Class: prog.VLoad, VL: 2 * nlon, Stride: 1},
				{Class: prog.VGather, VL: 8 * nlon, Span: nlat * nlon},
				{Class: prog.VMul, VL: nlon, FlopsPerElem: 15},
				{Class: prog.VAdd, VL: nlon, FlopsPerElem: 12},
				{Class: prog.VStore, VL: nlon, Stride: 1},
			},
		}},
	})

	// Spectral-space update: semi-implicit adjustment, hyperdiffusion,
	// time filter (long vectors over the coefficient triangle).
	phases = append(phases, prog.Phase{
		Name: "spectral-update", Parallel: true, Barriers: stepPhaseBarriers,
		Loops: []prog.Loop{{
			Trips: int64(3 * nlev),
			Body: []prog.Op{
				{Class: prog.VLoad, VL: 2 * nspec, Stride: 1},
				{Class: prog.VMul, VL: 2 * nspec, FlopsPerElem: 3},
				{Class: prog.VAdd, VL: 2 * nspec, FlopsPerElem: 3},
				{Class: prog.VStore, VL: 2 * nspec, Stride: 1},
			},
		}},
	})

	// Non-parallelized orchestration.
	phases = append(phases, prog.Phase{
		Name:         "orchestration",
		SerialClocks: float64(serialClocksPerLatLev) * float64(nlat) * float64(nlev),
	})

	return prog.Program{Name: fmt.Sprintf("CCM2-%s-step", res.Name), Phases: phases}
}

// stepTraces caches the compiled step trace per resolution: every
// Figure 8 point, Table 5/6 simulation and PRODLOAD job re-times the
// same step shape, and the trace is a pure function of the resolution.
var stepTraces target.TraceCache[Resolution]

// CompiledStepTrace returns the step trace in its cached compiled
// form, for callers that time the same resolution repeatedly.
func CompiledStepTrace(res Resolution) *prog.Compiled {
	return stepTraces.Get(res, func() prog.Program { return StepTrace(res) })
}

// StepFlops returns the credited flop count of one step.
func StepFlops(res Resolution) int64 { return CompiledStepTrace(res).Flops }

// StepSeconds simulates one time step on the target machine.
func StepSeconds(m target.Target, res Resolution, procs, active int) float64 {
	return m.Run(CompiledStepTrace(res), target.RunOpts{Procs: procs, ActiveCPUs: active}).Seconds
}

// SustainedGFLOPS returns the model's sustained rate at a resolution
// and processor count — one point of Figure 8.
func SustainedGFLOPS(m target.Target, res Resolution, procs int) float64 {
	secs := StepSeconds(m, res, procs, procs)
	return float64(StepFlops(res)) / secs / 1e9
}

// HistoryBytesPerDay returns the size of one day's history output.
func HistoryBytesPerDay(res Resolution) int64 {
	return int64(historyFieldsPerDay) * int64(res.NLat) * int64(res.NLon) * int64(res.NLev) * 8
}

// YearSim models a one-year simulation with daily history writes
// (Table 5), returning compute seconds, I/O seconds and the total.
// Targets without a modeled disk subsystem (the comparison machines
// were benchmarked compute-only) report zero I/O time.
func YearSim(m target.Target, res Resolution, procs int) (compute, io, total float64) {
	steps := 365 * res.StepsPerDay()
	compute = float64(steps) * StepSeconds(m, res, procs, procs)
	if rate := m.Spec().DiskBytesPerSec; rate > 0 {
		bytes := 365 * HistoryBytesPerDay(res)
		io = float64(bytes) / rate
	}
	return compute, io, compute + io
}

// EnsembleResult is the Table 6 experiment outcome.
type EnsembleResult struct {
	SingleSeconds   float64 // one 4-CPU job on an otherwise idle node
	MultipleSeconds float64 // the same job among 8 concurrent copies
	DegradationPct  float64
}

// EnsembleTest models Table 6: a 12-day T42L18 run on 4 processors,
// alone versus with eight concurrent 4-processor copies filling the
// node.
func EnsembleTest(m target.Target) EnsembleResult {
	res := Resolutions[0] // T42L18
	steps := 12 * res.StepsPerDay()
	single := float64(steps) * StepSeconds(m, res, 4, 4)
	multi := float64(steps) * StepSeconds(m, res, 4, m.Spec().CPUs)
	return EnsembleResult{
		SingleSeconds:   single,
		MultipleSeconds: multi,
		DegradationPct:  (multi - single) / single * 100,
	}
}

// SimDays models an n-day simulation at a resolution on procs CPUs
// with the node otherwise loaded to active CPUs; used by PRODLOAD.
func SimDays(m target.Target, res Resolution, days, procs, active int) float64 {
	steps := days * res.StepsPerDay()
	return float64(steps) * StepSeconds(m, res, procs, active)
}
