package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"

	"sx4bench/internal/ncar"
	"sx4bench/internal/serve"
	"sx4bench/internal/target"
)

// Workload shapes. Everything a workload sends derives from the run's
// seed through these generators; the daemon sees only the requests.
const (
	hotSetSize   = 512 // distinct /v1/run queries in the run-hot set
	hotMembers   = 8   // suite members per hot query, so hit bodies are alike in size
	zipfExponent = 1.0

	maxColdCPUs    = 64 // sx4d accepts allocations past a machine's CPU count
	minColdMembers = 3

	// capacityScenarios is the fresh draw of one capacity query; the
	// refinements ask for 2x and 4x of it on the same seed.
	capacityScenarios = 16
	// capacitySeedBase keeps the stream's fleet seeds apart from the
	// warm-up seed.
	capacitySeedBase = 1 << 32
	capacityWarmSeed = 7
)

// capacityFleets are the fleets the capacity workload plans over: a
// mixed SX-4/C90 site, an all-SX-4 site and an older Cray site.
var capacityFleets = []string{"sx4-32x2,c90", "sx4-32,sx4-1x2", "c90x2,ymp"}

// rng derives an independent deterministic stream for one purpose of
// one run.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Stream identifiers, one per generator.
const (
	streamHotSet uint64 = iota + 1
	streamHotPick
	streamCold
	streamCapacity
	streamSample
)

func suiteNames() []string {
	var names []string
	for _, b := range ncar.Suite() {
		names = append(names, b.Name)
	}
	return names
}

// queryKey hashes a run query's cache identity as the generator sees
// it; a cold run sends hundreds of thousands of lines, so the
// generator remembers hashes, not keys.
func queryKey(r serve.RunRequest) uint64 {
	c := r.Canonical()
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s", c.Machine, c.CPUs, strings.Join(c.Benchmarks, ","))
	return h.Sum64()
}

// warmQueries are the setup queries: the full suite at default
// allocation on every machine. They finish each target's lazy
// initialisation, and the sx4-32 one is the golden-pinned canonical
// query. No workload stream uses cpus 0, so they never collide.
func warmQueries() []serve.RunRequest {
	var out []serve.RunRequest
	for _, m := range target.All() {
		out = append(out, serve.RunRequest{Machine: m})
	}
	return out
}

// hotSet draws run-hot's distinct queries: machine x cpus x an
// ordered list of hotMembers suite members.
func hotSet(seed int64) []serve.RunRequest {
	r := rng(seed, streamHotSet)
	machines, names := target.All(), suiteNames()
	seen := make(map[uint64]bool)
	var out []serve.RunRequest
	for len(out) < hotSetSize {
		perm := r.Perm(len(names))[:hotMembers]
		req := serve.RunRequest{
			Machine: machines[r.IntN(len(machines))],
			CPUs:    1 + r.IntN(32),
		}
		for _, i := range perm {
			req.Benchmarks = append(req.Benchmarks, names[i])
		}
		if k := queryKey(req); !seen[k] {
			seen[k] = true
			out = append(out, req)
		}
	}
	return out
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s by inverting the cumulative table.
type zipf struct {
	cdf []float64
	r   *rand.Rand
}

func newZipf(r *rand.Rand, n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n), r: r}
	total := 0.0
	for i := range n {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) next() int {
	i, _ := slices.BinarySearch(z.cdf, z.r.Float64())
	return min(i, len(z.cdf)-1)
}

// coldStream hands out sweep-cold batches: each a seeded size and a
// run of queries no earlier batch of the run has asked. Sizes come
// three at a time, one log-uniform draw from each of [16,64),
// [64,256) and [256,1024], shuffled, so every run sees the same mix
// of small and large sweeps. Safe for concurrent use; the batch
// sequence is a function of the seed alone.
type coldStream struct {
	mu       sync.Mutex
	r        *rand.Rand
	machines []string
	names    []string
	seen     map[uint64]bool
	sizes    []int
}

func newColdStream(seed int64) *coldStream {
	return &coldStream{
		r:        rng(seed, streamCold),
		machines: target.All(),
		names:    suiteNames(),
		seen:     make(map[uint64]bool),
	}
}

func (s *coldStream) nextBatch() []serve.RunRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sizes) == 0 {
		for _, lo := range []float64{16, 64, 256} {
			s.sizes = append(s.sizes, int(lo*math.Pow(4, s.r.Float64())))
		}
		s.r.Shuffle(len(s.sizes), func(i, j int) { s.sizes[i], s.sizes[j] = s.sizes[j], s.sizes[i] })
	}
	n := s.sizes[0]
	s.sizes = s.sizes[1:]
	batch := make([]serve.RunRequest, 0, n)
	for len(batch) < n {
		req := serve.RunRequest{
			Machine: s.machines[s.r.IntN(len(s.machines))],
			CPUs:    1 + s.r.IntN(maxColdCPUs),
		}
		// A quarter of the queries ask for the whole suite, the rest
		// for minColdMembers or more members; either in seeded order,
		// so keys stay plentiful however long the run.
		k := len(s.names)
		if s.r.IntN(4) != 0 {
			k = minColdMembers + s.r.IntN(len(s.names)-minColdMembers)
		}
		for _, i := range s.r.Perm(len(s.names))[:k] {
			req.Benchmarks = append(req.Benchmarks, s.names[i])
		}
		if k := queryKey(req); !s.seen[k] {
			s.seen[k] = true
			batch = append(batch, req)
		}
	}
	return batch
}

// capacityRound is one round of the capacity workload: for every fleet,
// in seeded order, a fresh seed (scenario memo cold) and two
// refinements of it at 2x and 4x the scenarios (memo half warm).
func capacityRound(r *rand.Rand) []serve.CapacityRequest {
	var out []serve.CapacityRequest
	for _, i := range r.Perm(len(capacityFleets)) {
		seed := capacitySeedBase + r.Int64N(1<<40)
		for _, mult := range []int{1, 2, 4} {
			out = append(out, serve.CapacityRequest{
				Fleet:     capacityFleets[i],
				Scenarios: mult * capacityScenarios,
				Seed:      seed,
			})
		}
	}
	return out
}
