package sx4

import (
	"reflect"
	"sync"
	"testing"

	"sx4bench/internal/sx4/prog"
)

func cacheTestProgram(vl int) prog.Program {
	return prog.Simple("cache-test", 100,
		prog.Op{Class: prog.VLoad, VL: vl, Stride: 1},
		prog.Op{Class: prog.VAdd, VL: vl},
		prog.Op{Class: prog.VStore, VL: vl, Stride: 1},
	)
}

// TestCacheMatchesFreshSimulation is the memo-correctness contract: a
// cached timing must equal the interpreter's exactly, field for field.
func TestCacheMatchesFreshSimulation(t *testing.T) {
	m := New(Benchmarked())

	opts := []RunOpts{{Procs: 1}, {Procs: 8}, {Procs: 4, ActiveCPUs: 32}}
	for _, vl := range []int{1, 100, 256, 4096} {
		p := cacheTestProgram(vl)
		c := prog.MustCompile(p)
		for _, o := range opts {
			first := m.Run(c, o)  // miss: simulate + store
			second := m.Run(c, o) // hit: served from memo
			direct := m.Interpret(p, o)
			if !reflect.DeepEqual(first, direct) {
				t.Fatalf("vl=%d opts=%+v: first cached run != interpreted simulation", vl, o)
			}
			if !reflect.DeepEqual(second, direct) {
				t.Fatalf("vl=%d opts=%+v: memoized result != interpreted simulation", vl, o)
			}
		}
	}
	stats := m.CacheStats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", stats)
	}
	if stats.Misses != 12 { // 4 lengths x 3 opts distinct keys
		t.Errorf("misses = %d, want 12 distinct keys", stats.Misses)
	}
}

// TestCacheKeyDiscriminates: different programs, opts, or configs must
// not collide.
func TestCacheKeyDiscriminates(t *testing.T) {
	m := New(Benchmarked())
	a := m.Run(prog.MustCompile(cacheTestProgram(100)), RunOpts{Procs: 1})
	b := m.Run(prog.MustCompile(cacheTestProgram(200)), RunOpts{Procs: 1})
	c := m.Run(prog.MustCompile(cacheTestProgram(100)), RunOpts{Procs: 2})
	if a.Clocks == b.Clocks {
		t.Error("different programs timed identically (suspicious collision)")
	}
	if a.Clocks == c.Clocks {
		t.Error("different opts timed identically (suspicious collision)")
	}

	slow := Benchmarked()
	slow.ClockNS = 16.0
	m2 := New(slow)
	d := m2.Run(prog.MustCompile(cacheTestProgram(100)), RunOpts{Procs: 1})
	if a.Seconds == d.Seconds {
		t.Error("different configs timed identically")
	}
}

// TestCacheConcurrent hammers one machine from many goroutines; run
// under -race this is the engine-safety test.
func TestCacheConcurrent(t *testing.T) {
	m := New(Benchmarked())
	want := m.Run(prog.MustCompile(cacheTestProgram(256)), RunOpts{Procs: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				vl := 1 + (g*50+i)%7*64
				p := cacheTestProgram(vl)
				r := m.Run(prog.MustCompile(p), RunOpts{Procs: 1})
				if r.Clocks <= 0 {
					t.Errorf("non-positive clocks for vl=%d", vl)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	again := m.Run(prog.MustCompile(cacheTestProgram(256)), RunOpts{Procs: 1})
	if !reflect.DeepEqual(want, again) {
		t.Error("concurrent use corrupted a cached result")
	}
}

// TestCachedResultNotAliased: mutating a returned result must not
// corrupt the memo.
func TestCachedResultNotAliased(t *testing.T) {
	m := New(Benchmarked())
	p := cacheTestProgram(128)
	r1 := m.Run(prog.MustCompile(p), RunOpts{Procs: 1})
	if len(r1.Phases) == 0 {
		t.Fatal("no phases")
	}
	r1.Phases[0].Clocks = -1
	r2 := m.Run(prog.MustCompile(p), RunOpts{Procs: 1})
	if r2.Phases[0].Clocks == -1 {
		t.Error("cached Phases slice aliased to caller's copy")
	}
}

func TestConfigFingerprintSensitivity(t *testing.T) {
	a := configFingerprint(Benchmarked())
	if a != configFingerprint(Benchmarked()) {
		t.Error("fingerprint not deterministic")
	}
	c := Benchmarked()
	c.StridedPenalty += 0.1
	if configFingerprint(c) == a {
		t.Error("calibration change did not change the fingerprint")
	}
}
