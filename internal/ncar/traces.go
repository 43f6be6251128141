package ncar

import (
	"sync"

	"sx4bench/internal/fftpack"
	"sx4bench/internal/kernels"
	"sx4bench/internal/pop"
	"sx4bench/internal/radabs"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// sharedTargets holds one live instance per registry name for the
// read-only table renderers. Run is safe for concurrent use (sharded
// memo, first-store-wins compiled caches), so re-rendering a table
// warms one timing memo instead of rebuilding each machine — and
// recompiling its traces — per call. Drivers that need cold memos
// (the cold sweep) must keep using target.Lookup for a private
// instance; fault degradation is fine here, since Degraded returns a
// new machine.
var sharedTargets sync.Map // registry name -> target.Target

func sharedTarget(name string) (target.Target, error) {
	if v, ok := sharedTargets.Load(name); ok {
		return v.(target.Target), nil
	}
	t, err := target.Lookup(name)
	if err != nil {
		return nil, err
	}
	if prev, loaded := sharedTargets.LoadOrStore(name, t); loaded {
		return prev.(target.Target), nil
	}
	return t, nil
}

func mustSharedTarget(name string) target.Target {
	t, err := sharedTarget(name)
	if err != nil {
		panic(err)
	}
	return t
}

// benchTraces caches the compiled form of every benchmark trace the
// drivers revisit: the figure sweeps, the cross-machine table, the
// resilient runner and the scalar anchors all re-time the same trace
// shapes (per point, machine and KTRIES draw), and each trace is a
// pure function of its shape parameters. Caching the compiled form
// skips per-run trace construction, validation and fingerprint
// hashing.
var benchTraces target.TraceCache[traceKey]

// traceKey identifies a cached trace by family and shape.
type traceKey struct {
	fam  string
	n, m int
}

func copyTrace(k kernels.Copy) *prog.Compiled {
	return benchTraces.Get(traceKey{"copy", k.N, k.M}, func() prog.Program { return k.Trace() })
}

func iaTrace(k kernels.IA) *prog.Compiled {
	return benchTraces.Get(traceKey{"ia", k.N, k.M}, func() prog.Program { return k.Trace() })
}

func xposeTrace(k kernels.Xpose) *prog.Compiled {
	return benchTraces.Get(traceKey{"xpose", k.N, k.M}, func() prog.Program { return k.Trace() })
}

func rfftTrace(n, m int) *prog.Compiled {
	return benchTraces.Get(traceKey{"rfft", n, m}, func() prog.Program { return fftpack.RFFTTrace(n, m) })
}

func vfftTrace(n, m int) *prog.Compiled {
	return benchTraces.Get(traceKey{"vfft", n, m}, func() prog.Program { return fftpack.VFFTTrace(n, m) })
}

func radabsTrace(ncol, nlev int) *prog.Compiled {
	return benchTraces.Get(traceKey{"radabs", ncol, nlev}, func() prog.Program { return radabs.Trace(ncol, nlev) })
}

// popTraces is keyed by the full configuration (names alone would
// alias hand-built configs that share one).
var popTraces target.TraceCache[pop.Config]

func popTrace(cfg pop.Config) *prog.Compiled {
	return popTraces.Get(cfg, func() prog.Program { return pop.StepTrace(cfg) })
}
