package ncar

import (
	"context"
	"fmt"
	"sync"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/core/sched"
	"sx4bench/internal/fault"
	"sx4bench/internal/fftpack"
	"sx4bench/internal/iobench"
	"sx4bench/internal/kernels"
	"sx4bench/internal/mom"
	"sx4bench/internal/pop"
	"sx4bench/internal/prodload"
	"sx4bench/internal/sx4/iop"
	"sx4bench/internal/target"
)

// Measurement is one suite member's structured result: the simulated
// attempt duration plus the category's headline rates, the
// machine-readable counterpart of RunBenchmark's text output. It is
// the unit the sx4d daemon serves — a pure function of (machine
// configuration, benchmark, cpus), so identical queries are exact
// cache hits.
type Measurement struct {
	// Benchmark is the suite member name; KTries its repetition
	// convention (the paper's KTRIES rule).
	Benchmark string
	KTries    int
	// Seconds is the simulated duration of one attempt under the
	// member's repetition convention (the same model AttemptSeconds the
	// resilient runner schedules with).
	Seconds float64
	// Metrics holds the member's headline rates, keyed by unit
	// ("mflops", "mbps", "gflops", "minutes", "category_pass"). I/O
	// members report rates only on machines with a modeled disk
	// subsystem; correctness members report the host category verdict.
	Metrics map[string]float64
}

// ioRates memoizes the I/O-category headline numbers: they depend only
// on the node's IOP subsystem geometry, which every disk-bearing
// configuration shares, so the sweep runs once per process.
var ioRates = struct {
	once                sync.Once
	disk, hippi, netMax float64
}{}

func ioHeadlines() (disk, hippi, netMax float64) {
	ioRates.once.Do(func() {
		sub := iop.New()
		t63, _ := ccm2.ResolutionByName("T63L18")
		ioRates.disk = iobench.RunHistoryWrite(sub.DiskArray, t63).MBps
		ioRates.hippi = last(iobench.HIPPISweep(sub, 256<<20)).AggregateMBps
		for _, n := range iobench.RunNetwork(iobench.NewFDDI(), iobench.StandardScript()) {
			if n.MBps > ioRates.netMax {
				ioRates.netMax = n.MBps
			}
		}
	})
	return ioRates.disk, ioRates.hippi, ioRates.netMax
}

// abandoned maps a dead context to the measurement-layer error shape:
// the caller's deadline or cancellation wraps through, so servers can
// classify abandoned work with errors.Is against the context sentinels.
func abandoned(ctx context.Context, name string) error {
	return fmt.Errorf("ncar: measurement %q abandoned: %w", name, context.Cause(ctx))
}

// Measure executes one suite member on the target and returns its
// structured result. cpus <= 0 means the machine's full CPU count.
// The evaluation is deterministic: a single model run per headline
// number, no KTRIES jitter, so repeated calls are byte-identical once
// rendered.
//
// ctx bounds the host-side work, not the simulated clock: a cancelled
// or expired context abandons the measurement before it starts (and,
// in the suite forms, between members), which is how the sx4d daemon
// stops paying for queries whose clients have hung up. ctx never
// shapes a result byte — a measurement either completes exactly as it
// would have, or does not happen.
func Measure(ctx context.Context, m target.Target, name string, cpus int) (Measurement, error) {
	if err := ctx.Err(); err != nil {
		return Measurement{}, abandoned(ctx, name)
	}
	if m == nil {
		return Measurement{}, fmt.Errorf("ncar: nil target for measurement %q", name)
	}
	b, err := ByName(name)
	if err != nil {
		return Measurement{}, err
	}
	seconds, unit, value := evaluate(m, name, cpus)
	out := Measurement{
		Benchmark: name,
		KTries:    b.KTries,
		Seconds:   seconds,
	}
	if unit != "" {
		out.Metrics = map[string]float64{unit: value}
	}
	return out, nil
}

// Kernel shapes the COPY, IA and XPOSE members time: the largest point
// of each paper sweep, fixed for the life of the process.
var (
	copyKernel  = sync.OnceValue(func() kernels.Copy { return last(kernels.CopySweep(1)) })
	iaKernel    = sync.OnceValue(func() kernels.IA { return last(kernels.IASweep(1)) })
	xposeKernel = sync.OnceValue(func() kernels.Xpose { return last(kernels.XposeSweep(1)) })
)

// evaluate runs one member's model once and returns both numbers the
// serving and resilience layers need from it: the simulated attempt
// duration under the member's repetition convention, and its headline
// metric (unit "" when the member reports none on this machine, as the
// I/O members do on machines without a modeled disk). Correctness and
// I/O members run fixed nominal durations: their cost does not depend
// on the compute model. cpus <= 0 means the machine's full CPU count;
// an unknown name costs one nominal second and reports no metric.
func evaluate(m target.Target, name string, cpus int) (seconds float64, unit string, value float64) {
	if cpus <= 0 {
		cpus = m.Spec().CPUs
	}
	opts1 := target.RunOpts{Procs: 1}
	switch name {
	case "PARANOIA", "ELEFUNT":
		if RunCorrectness().Pass {
			return 1, "category_pass", 1
		}
		return 1, "category_pass", 0
	case "COPY":
		k := copyKernel()
		s := m.Run(copyTrace(k), opts1).Seconds
		return 20 * s, "mbps", float64(k.PayloadBytes()) / s / 1e6
	case "IA":
		k := iaKernel()
		s := m.Run(iaTrace(k), opts1).Seconds
		return 20 * s, "mbps", float64(k.PayloadBytes()) / s / 1e6
	case "XPOSE":
		k := xposeKernel()
		s := m.Run(xposeTrace(k), opts1).Seconds
		return 20 * s, "mbps", float64(k.PayloadBytes()) / s / 1e6
	case "RFFT":
		const n = 1024
		mm := fftpack.RFFTInstances(n)
		s := m.Run(rfftTrace(n, mm), opts1).Seconds
		return 5 * s, "mflops", fftpack.NominalMFLOPS(n, mm, s)
	case "VFFT":
		const n, mm = 256, 500
		s := m.Run(vfftTrace(n, mm), opts1).Seconds
		return 5 * s, "mflops", fftpack.NominalMFLOPS(n, mm, s)
	case "RADABS":
		// Nominal RADABS work at the machine's achieved rate.
		mf := RADABSMFlops(m)
		return 10_000 / mf, "mflops", mf
	case "IO", "HIPPI", "NETWORK":
		if m.Spec().DiskBytesPerSec <= 0 {
			return 30, "", 0
		}
		disk, hippi, netMax := ioHeadlines()
		switch name {
		case "IO":
			return 30, "mbps", disk
		case "HIPPI":
			return 30, "mbps", hippi
		}
		return 30, "mbps", netMax
	case "PRODLOAD":
		r := prodload.Run(m)
		return r.TotalSeconds, "minutes", r.TotalMinutes()
	case "CCM2":
		t42, _ := ccm2.ResolutionByName("T42L18")
		step := ccm2.StepSeconds(m, t42, cpus, cpus)
		return float64(t42.StepsPerDay()) * step, "gflops", float64(ccm2.StepFlops(t42)) / step / 1e9
	case "MOM":
		mf := mom.SustainedMFLOPS(m)
		return 15_000 / mf, "mflops", mf
	case "POP":
		r := m.Run(popTrace(pop.TwoDegree), opts1)
		return r.Seconds * 100, "mflops", r.MFLOPS()
	}
	return 1, "", 0
}

// MeasureSuite measures the named members (nil or empty = the whole
// suite, in paper order) with suite-level parallelism. workers follows
// the sched convention (0 = GOMAXPROCS, 1 = serial); the result slice
// is in input order and byte-identical for any worker count. A context
// that dies mid-suite abandons the members that have not started —
// cancellation is at member granularity, so a completed result slice
// is never partially reported.
func MeasureSuite(ctx context.Context, m target.Target, names []string, cpus, workers int) ([]Measurement, error) {
	if len(names) == 0 {
		for _, b := range Suite() {
			names = append(names, b.Name)
		}
	}
	return sched.Map(workers, len(names), func(i int) (Measurement, error) {
		return Measure(ctx, m, names[i], cpus)
	})
}

// ResilientMeasurement couples one member's structured result with the
// fault-schedule outcome of the attempt that produced it.
type ResilientMeasurement struct {
	Measurement Measurement
	// Attempts and FinishedAt mirror ResilientResult: the attempt count
	// including aborted ones and the simulated completion time.
	Attempts   int
	FinishedAt float64
	// Degraded is the machine degradation in force during the
	// successful attempt.
	Degraded fault.Degradation
}

// MeasureResilient is Measure under a fault schedule: the retry loop of
// RunResilient, with the surviving attempt's degraded machine measured
// structurally instead of rendered as text. ctx is host-side only, like
// Measure's: the resilient retry loop runs on the simulated clock and
// is not interruptible mid-member.
func MeasureResilient(ctx context.Context, m target.Target, name string, cpus int, opts ResilientOpts) (ResilientMeasurement, error) {
	if err := ctx.Err(); err != nil {
		return ResilientMeasurement{}, abandoned(ctx, name)
	}
	dm, res, err := runAttempts(m, name, cpus, opts)
	out := ResilientMeasurement{
		Attempts:   res.Attempts,
		FinishedAt: res.FinishedAt,
		Degraded:   res.Degraded,
	}
	if err != nil {
		return out, err
	}
	out.Measurement, err = Measure(ctx, dm, name, cpus)
	return out, err
}

// MeasureSuiteResilient is MeasureSuite under a fault schedule; each
// member runs on its own simulated timeline (t = 0 at its start), so
// the result slice is deterministic for any worker count.
func MeasureSuiteResilient(ctx context.Context, m target.Target, names []string, cpus, workers int, opts ResilientOpts) ([]ResilientMeasurement, error) {
	if len(names) == 0 {
		for _, b := range Suite() {
			names = append(names, b.Name)
		}
	}
	return sched.Map(workers, len(names), func(i int) (ResilientMeasurement, error) {
		return MeasureResilient(ctx, m, names[i], cpus, opts)
	})
}
