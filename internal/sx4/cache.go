package sx4

import (
	"fmt"
	"hash/fnv"

	"sx4bench/internal/target"
)

// The machine model is a pure function: for a fixed configuration, a
// given (program, RunOpts) pair always simulates to the same Result.
// Timing memoization therefore cannot change any reported number; see
// target.Memo (where the memo implementation lives, shared with the
// comparison-machine models) for the full rationale.

// CacheStats reports timing-cache effectiveness counters.
type CacheStats = target.CacheStats

// configFingerprint hashes every field of the configuration. Any
// calibration change invalidates all cached timings (the invalidation
// rule: the key covers the whole config, the whole trace, and the
// RunOpts; there is nothing else a simulation depends on).
func configFingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", cfg)
	return h.Sum64()
}

// SetConfig reconfigures the machine in place (the calibration-sweep
// API: one machine, many candidate configurations, no reallocation).
// All derived state — the memory system, the intrinsic cost table, the
// cache-key fingerprint — is rebuilt, and memoized timings keyed on the
// old configuration fingerprint are dropped so the memo can never serve
// a result simulated under a different configuration. An invalid cfg is
// returned as an error and leaves the machine unchanged.
//
// SetConfig must not race with concurrent Run calls: configure first,
// then share.
func (m *Machine) SetConfig(cfg Config) error {
	if err := m.setConfig(cfg); err != nil {
		return err
	}
	m.cache.DropStale(m.fingerprint)
	// Compiled trace timings are configuration-dependent (trip costs,
	// stride factors, loop overhead); none survive a reconfiguration.
	m.progs.Clear()
	return nil
}

// CacheStats returns the machine's timing-cache counters.
func (m *Machine) CacheStats() CacheStats { return m.cache.Stats() }
