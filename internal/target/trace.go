package target

import (
	"sync"

	"sx4bench/internal/sx4/prog"
)

// TraceCache memoizes compiled traces by the parameters that generate
// them. The experiment drivers rebuild the same trace shapes run after
// run — every sweep point, KTRIES draw and cross-machine column used
// to pay the full O(ops) construction-plus-hash cost — so helpers
// cache the compiled form keyed by the generating parameters instead.
//
// The zero value is ready to use. build must be a pure function of k
// (the repo-wide trace contract); when two goroutines race on a cold
// key, the first store wins and both observe it.
type TraceCache[K comparable] struct{ m sync.Map }

// Get returns the cached compiled trace for k, building and compiling
// it on first use. It panics on an invalid program, like
// prog.MustCompile.
func (c *TraceCache[K]) Get(k K, build func() prog.Program) *prog.Compiled {
	if v, ok := c.m.Load(k); ok {
		return v.(*prog.Compiled)
	}
	ct := prog.MustCompile(build())
	if prev, loaded := c.m.LoadOrStore(k, ct); loaded {
		return prev.(*prog.Compiled)
	}
	return ct
}
