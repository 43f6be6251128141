package machine

import (
	"testing"

	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

// The workstation model's cache-fit rule is the mechanism behind the
// paper's HINT-vs-RADABS inversion: a trip whose working set fits the
// data cache streams at CacheWordsPerClock, one that exceeds it at
// MemWordsPerClock. These tests pin the rule exactly at the edge so the
// inversion point is a regression-tested fact, not an accident of the
// calibration constants.

// ws64 is a test workstation with a 64 KB (8192-word) data cache and a
// 10:1 cache-to-memory bandwidth ratio, so a cache miss is unmissable
// in the timing.
func ws64() *Workstation {
	return newWorkstation(Workstation{
		ModelName: "test-64KB", ClockNS: 10,
		FlopsPerClock: 1, CacheKB: 64,
		CacheWordsPerClock: 1, MemWordsPerClock: 0.1,
		GatherPenalty: 1.5, IntrinsicClocks: 50, IssuePerClock: 1,
	})
}

// copyTrip returns a one-trip copy loop moving words words through the
// memory system (split between a load and a store).
func copyTrip(words int) prog.Program {
	half := words / 2
	return prog.Simple("cachefit", 1,
		prog.Op{Class: prog.VLoad, VL: half, Stride: 1},
		prog.Op{Class: prog.VStore, VL: words - half, Stride: 1},
	)
}

func runClocks(w *Workstation, p prog.Program) float64 {
	return w.Run(prog.MustCompile(p), sx4.RunOpts{Procs: 1}).Clocks
}

func TestCacheFitAtEdge(t *testing.T) {
	w := ws64()
	const edge = 64 * 1024 / 8 // 8192 words exactly fill the cache

	fits := runClocks(w, copyTrip(edge))
	// A working set exactly filling the cache is served at cache speed:
	// words/CacheWordsPerClock + loop overhead.
	wantFits := float64(edge)/w.CacheWordsPerClock + 4/w.IssuePerClock
	if fits != wantFits {
		t.Errorf("at-edge trip: %v clocks, want cache-speed %v", fits, wantFits)
	}

	exceeds := runClocks(w, copyTrip(edge+1))
	wantExceeds := float64(edge+1)/w.MemWordsPerClock + 4/w.IssuePerClock
	if exceeds != wantExceeds {
		t.Errorf("one-word-over trip: %v clocks, want memory-speed %v", exceeds, wantExceeds)
	}

	// The edge is a cliff: one extra word decuples the per-word cost.
	if exceeds < 9*fits {
		t.Errorf("cache edge not a cliff: %v -> %v clocks for one extra word", fits, exceeds)
	}
}

// TestCacheFitStraddle: the fit test is per-trip over the whole loop
// body — two half-cache streams in one body straddle the edge together
// and both fall out of cache.
func TestCacheFitStraddle(t *testing.T) {
	w := ws64()
	const half = 64 * 1024 / 8 / 2 // 4096 words: half the cache

	alone := runClocks(w, prog.Simple("half", 1,
		prog.Op{Class: prog.VLoad, VL: half, Stride: 1}))
	wantAlone := float64(half)/w.CacheWordsPerClock + 4/w.IssuePerClock
	if alone != wantAlone {
		t.Fatalf("half-cache stream: %v clocks, want cache-speed %v", alone, wantAlone)
	}

	// Three half-cache streams in one trip: 1.5x the cache, all at
	// memory speed.
	straddle := runClocks(w, prog.Simple("straddle", 1,
		prog.Op{Class: prog.VLoad, VL: half, Stride: 1},
		prog.Op{Class: prog.VLoad, VL: half, Stride: 1},
		prog.Op{Class: prog.VStore, VL: half, Stride: 1},
	))
	wantStraddle := 3*float64(half)/w.MemWordsPerClock + 4/w.IssuePerClock
	if straddle != wantStraddle {
		t.Errorf("straddling trip: %v clocks, want memory-speed %v", straddle, wantStraddle)
	}
}

// TestCacheFitRealMachines pins each real workstation's own edge:
// 16 KB (2048 words) on the Sparc 20, 256 KB (32768 words) on the
// RS6000/590.
func TestCacheFitRealMachines(t *testing.T) {
	for _, tc := range []struct {
		w     *Workstation
		words int
	}{
		{SunSparc20(), 16 * 1024 / 8},
		{IBMRS6000590(), 256 * 1024 / 8},
	} {
		in := runClocks(tc.w, copyTrip(tc.words))
		out := runClocks(tc.w, copyTrip(tc.words+1))
		inPerWord := in / float64(tc.words)
		outPerWord := out / float64(tc.words+1)
		if outPerWord <= 2*inPerWord {
			t.Errorf("%s: no cache cliff at %d words: %.3f -> %.3f clocks/word",
				tc.w.Name(), tc.words, inPerWord, outPerWord)
		}
	}
}

// TestCacheFitDrivesInversion ties the edge to the paper's argument:
// on the cache-resident *scalar* path the RS6000 moves a word an order
// of magnitude faster than the cache-less Y-MP (the HINT story), while
// on a cache-busting vector working set the Y-MP wins by a wide margin
// (the RADABS story).
func TestCacheFitDrivesInversion(t *testing.T) {
	rs6k := IBMRS6000590()
	ymp := CrayYMP()

	// Scalar path: nanoseconds to move one cache-resident word.
	nsPerWord := func(p ScalarProfile) float64 {
		if p.HasCache {
			return p.ClockNS / p.CacheWordsPerClock
		}
		return p.ClockNS * p.MemClocksPerWord
	}
	rsScalar, ympScalar := nsPerWord(rs6k.Scalar()), nsPerWord(ymp.Scalar())
	if rsScalar >= ympScalar/2 {
		t.Errorf("scalar path: RS6000 %.1f ns/word not well under Y-MP %.1f ns/word",
			rsScalar, ympScalar)
	}

	// Vector path, cache-busting: 128000-word streams, 1.5x the RS6000's
	// 256 KB cache per trip.
	big := prog.MustCompile(prog.Simple("big", 4,
		prog.Op{Class: prog.VLoad, VL: 128000, Stride: 1},
		prog.Op{Class: prog.VLoad, VL: 128000, Stride: 1},
		prog.Op{Class: prog.VMul, VL: 128000},
		prog.Op{Class: prog.VAdd, VL: 128000},
		prog.Op{Class: prog.VStore, VL: 128000, Stride: 1},
	))
	opts := sx4.RunOpts{Procs: 1}
	if rsB, ympB := rs6k.Run(big, opts).Seconds, ymp.Run(big, opts).Seconds; ympB >= rsB/5 {
		t.Errorf("cache-busting: Y-MP %.3g s not >5x faster than RS6000 %.3g s", ympB, rsB)
	}
}
