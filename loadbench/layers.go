package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"sx4bench/internal/ccm2"
	"sx4bench/internal/fftpack"
	"sx4bench/internal/fleet"
	"sx4bench/internal/kernels"
	"sx4bench/internal/mom"
	"sx4bench/internal/ncar"
	"sx4bench/internal/radabs"
	"sx4bench/internal/serve"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// The layer ladder: a seeded sample of the run's inputs replayed in
// process through each layer's public functions, every call wrapped in
// a span. The probes stay off Target.Run, RunCompiled and
// CompiledTrace, so reshaping those entry points needs no change here.

// Replay sample sizes: enough calls for a median, few enough that the
// ladder costs about a second.
const (
	hotReplay       = 256
	coldReplay      = 48
	progReplay      = 8
	fleetReplay     = 32 // scenarios per fleet probe
	schedScenarios  = 64
	capacityReplays = 3 // one fleet's fresh query and both refinements
)

// allocs counts heap allocations made by fn.
func allocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// ladder holds the replay's results as per-layer metric values.
type ladder map[string]float64

// serveHTTP replays one request through the handler on a recorder.
func serveHTTP(srv *serve.Server, path string, body []byte) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("replayed %s answered %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always encode
	}
	return b
}

// replayHot times the hit path: decode, key and handler on a server
// whose cache already holds the hot set, for Zipf-picked hot queries.
func replayHot(tr *tracer, seed int64, lad ladder) error {
	hot := hotSet(seed)
	srv := serve.New(serve.Config{})
	bodies := make([][]byte, len(hot))
	for i, q := range hot {
		bodies[i] = mustJSON(q)
		if _, err := serveHTTP(srv, "/v1/run", bodies[i]); err != nil {
			return err
		}
	}
	z := newZipf(rng(seed, streamSample), len(hot), zipfExponent)
	picks := make([]int, hotReplay)
	for i := range picks {
		picks[i] = z.next()
	}
	var err error
	n := allocs(func() {
		for i, k := range picks {
			start := time.Now()
			if _, err = serveHTTP(srv, "/v1/run", bodies[k]); err != nil {
				return
			}
			tr.add("serve.handler", 0, int64(i+1), 1, start, time.Now())
		}
	})
	if err != nil {
		return err
	}
	lad["serve.allocs_per_op"] = float64(n) / float64(len(picks))
	return replayDecode(tr, picks, bodies, lad)
}

// replayDecode times DecodeRunRequest + Canonical + Fingerprint.
func replayDecode(tr *tracer, picks []int, bodies [][]byte, lad ladder) error {
	fps := make(map[string]uint64)
	for _, name := range target.All() {
		tgt, err := target.Lookup(name)
		if err != nil {
			return err
		}
		fps[name] = tgt.Fingerprint()
	}
	for i, k := range picks {
		start := time.Now()
		req, err := serve.DecodeRunRequest(bodies[k])
		if err != nil {
			return err
		}
		c := req.Canonical()
		_ = c.Fingerprint(fps[c.Machine])
		tr.add("serve.decode", 0, int64(i+1), 1, start, time.Now())
	}
	lad["serve.decode_us"] = usP50(tr.perOp("serve.decode", false))
	return nil
}

// replayCold times the miss path for sweep-cold's first queries: the
// handler on one long-lived server, then ncar.MeasureSuite for the
// same query on a mirror set of targets that has seen the same query
// sequence, so both walk the same memo state. The measurement span is
// recorded as the handler span's child; the handler's self time is its
// duration less that child's.
func replayCold(tr *tracer, seed int64, asHandler bool, lad ladder) error {
	cs := newColdStream(seed)
	var batch []serve.RunRequest
	for len(batch) < coldReplay {
		batch = append(batch, cs.nextBatch()...)
	}
	batch = batch[:coldReplay]
	parents := make([]int64, len(batch))
	var err error
	if asHandler {
		srv := serve.New(serve.Config{})
		n := allocs(func() {
			for i, q := range batch {
				body := mustJSON(q)
				start := time.Now()
				if _, err = serveHTTP(srv, "/v1/run", body); err != nil {
					return
				}
				parents[i] = tr.add("serve.handler", 0, int64(i+1), 1, start, time.Now())
			}
		})
		if err != nil {
			return err
		}
		lad["serve.allocs_per_op"] = float64(n) / float64(len(batch))
	}
	mirror := make(map[string]target.Target)
	ctx := context.Background()
	measureAllocs := allocs(func() {
		for i, q := range batch {
			c := q.Canonical()
			tgt, ok := mirror[c.Machine]
			if !ok {
				if tgt, err = target.Lookup(c.Machine); err != nil {
					return
				}
				mirror[c.Machine] = tgt
			}
			start := time.Now()
			if _, err = ncar.MeasureSuite(ctx, tgt, c.Benchmarks, c.CPUs, 0); err != nil {
				return
			}
			tr.add("ncar.measure_suite", parents[i], int64(i+1), 1, start, time.Now())
		}
	})
	if err != nil {
		return err
	}
	lad["ncar.measure_suite_us_p50"] = usP50(tr.perOp("ncar.measure_suite", false))
	lad["ncar.allocs_per_query"] = float64(measureAllocs) / float64(len(batch))
	if asHandler {
		bodies := make([][]byte, len(batch))
		picks := make([]int, len(batch))
		for i, q := range batch {
			bodies[i], picks[i] = mustJSON(q), i
		}
		return replayDecode(tr, picks, bodies, lad)
	}
	return nil
}

// replayCapacity times the capacity handler on a fresh server for the
// first fleet of the run's first round: a fresh seed, then its 2x and
// 4x refinements. Times are per scenario, like the client's.
func replayCapacity(tr *tracer, seed int64, lad ladder) error {
	reqs := capacityRound(rng(seed, streamCapacity))[:capacityReplays]
	srv := serve.New(serve.Config{})
	var err error
	n := allocs(func() {
		for i, q := range reqs {
			body := mustJSON(q)
			start := time.Now()
			if _, err = serveHTTP(srv, "/v1/capacity", body); err != nil {
				return
			}
			tr.add("serve.handler", 0, int64(i+1), q.Scenarios, start, time.Now())
		}
	})
	if err != nil {
		return err
	}
	total := 0
	for i, q := range reqs {
		total += q.Scenarios
		body := mustJSON(q)
		start := time.Now()
		d, err := serve.DecodeCapacityRequest(body)
		if err != nil {
			return err
		}
		_ = d.Canonical()
		tr.add("serve.decode", 0, int64(i+1), 1, start, time.Now())
	}
	lad["serve.allocs_per_op"] = float64(n) / float64(total)
	lad["serve.decode_us"] = usP50(tr.perOp("serve.decode", false))
	return nil
}

// replayMeasure times ncar.Measure for every suite member on a fresh
// instance of every machine, then again on the same instance: the
// difference is the engine walk plus the memo store.
func replayMeasure(tr *tracer, lad ladder) error {
	ctx := context.Background()
	var cold, warm time.Duration
	calls := 0
	for _, name := range target.All() {
		tgt, err := target.Lookup(name)
		if err != nil {
			return err
		}
		for _, member := range suiteNames() {
			for _, phase := range []string{"ncar.measure_cold", "ncar.measure_warm"} {
				start := time.Now()
				if _, err := ncar.Measure(ctx, tgt, member, 0); err != nil {
					return err
				}
				end := time.Now()
				tr.add(phase, 0, 0, 1, start, end)
				if phase == "ncar.measure_cold" {
					cold += end.Sub(start)
				} else {
					warm += end.Sub(start)
				}
			}
			calls++
		}
	}
	lad["ncar.measure_cold_us"] = us(cold) / float64(calls)
	lad["ncar.measure_warm_us"] = us(warm) / float64(calls)
	return nil
}

// traceBuilders are the public trace builders of the suite's members.
func traceBuilders() []func() prog.Program {
	t42, _ := ccm2.ResolutionByName("T42L18")
	copyK := kernels.CopySweep(1)
	iaK := kernels.IASweep(1)
	xposeK := kernels.XposeSweep(1)
	return []func() prog.Program{
		func() prog.Program { return ccm2.StepTrace(t42) },
		func() prog.Program { return mom.StepTrace(mom.HighRes) },
		func() prog.Program { return fftpack.VFFTTrace(256, 500) },
		func() prog.Program { return radabs.Trace(radabs.BenchmarkColumns, radabs.DefaultLevels) },
		func() prog.Program { return copyK[len(copyK)-1].Trace() },
		func() prog.Program { return iaK[len(iaK)-1].Trace() },
		func() prog.Program { return xposeK[len(xposeK)-1].Trace() },
	}
}

// replayProg times building, fingerprinting and compiling every
// member trace once, progReplay times; a metric is the median of the
// per-set totals.
func replayProg(tr *tracer, lad ladder) error {
	stages := []string{"prog.build", "prog.fingerprint", "prog.compile"}
	totals := make(map[string][]time.Duration)
	for rep := range progReplay {
		sum := make(map[string]time.Duration)
		for _, build := range traceBuilders() {
			t0 := time.Now()
			p := build()
			t1 := time.Now()
			_ = p.Fingerprint()
			t2 := time.Now()
			if _, err := prog.Compile(p); err != nil {
				return fmt.Errorf("compiling %s: %w", p.Name, err)
			}
			t3 := time.Now()
			for i, span := range [][2]time.Time{{t0, t1}, {t1, t2}, {t2, t3}} {
				tr.add(stages[i], 0, int64(rep+1), 1, span[0], span[1])
				sum[stages[i]] += span[1].Sub(span[0])
			}
		}
		for _, s := range stages {
			totals[s] = append(totals[s], sum[s])
		}
	}
	for _, s := range stages {
		lad[s+"_us"] = usP50(totals[s])
	}
	return nil
}

// capacityConfig is the fleet engine's config for one capacity query.
func capacityConfig(q serve.CapacityRequest) (fleet.Config, error) {
	c := q.Canonical()
	nodes, err := fleet.ParseSpec(c.Fleet)
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{Nodes: nodes, Mixes: fleet.CanonicalMixes(), Scenarios: c.Scenarios, Seed: c.Seed}, nil
}

// replayFleet times the capacity layers on the capacity workload's
// first fresh query, resized: the whole Monte Carlo on a fresh engine
// with one worker, then the same scenarios step by step (ScenarioAt,
// Mix.Arrivals, NewCluster + Cluster.Run; superux dispatch and fault
// delivery run inside the cluster), and finally one worker against
// GOMAXPROCS on another fresh config.
func replayFleet(tr *tracer, seed int64, lad ladder) ([]string, error) {
	q := capacityRound(rng(seed, streamCapacity))[0]
	q.Scenarios = fleetReplay
	cfg, err := capacityConfig(q)
	if err != nil {
		return nil, err
	}
	var rep fleet.Report
	var e fleet.Engine
	start := time.Now()
	n := allocs(func() { rep, err = e.MonteCarlo(cfg, 1) })
	if err != nil {
		return nil, err
	}
	end := time.Now()
	mc := tr.add("fleet.montecarlo", 0, 1, fleetReplay, start, end)
	lad["fleet.montecarlo_ms_per_scenario"] = ms(end.Sub(start)) / fleetReplay
	lad["fleet.allocs_per_scenario"] = float64(n) / fleetReplay

	var problems []string
	var arrivals, runs time.Duration
	for i := range fleetReplay {
		sc := cfg.ScenarioAt(i)
		specs := cfg.Nodes
		if sc.Down >= 0 {
			specs = append(append([]fleet.NodeSpec(nil), specs[:sc.Down]...), specs[sc.Down+1:]...)
		}
		t0 := time.Now()
		arr := cfg.Mixes[sc.Mix].Arrivals(sc.ArrivalSeed, fleet.WeekSeconds)
		t1 := time.Now()
		res := fleet.NewCluster(specs, sc.FaultSeed, fleet.WeekSeconds, fleet.DefaultFaultEventsPerNode).Run(arr)
		t2 := time.Now()
		tr.add("fleet.arrivals", mc, int64(i+1), 1, t0, t1)
		tr.add("fleet.cluster_run", mc, int64(i+1), 1, t1, t2)
		arrivals += t1.Sub(t0)
		runs += t2.Sub(t1)
		if res.Jobs != rep.Results[i].Jobs || res.Lost != 0 {
			problems = append(problems, fmt.Sprintf("fleet: scenario %d replayed %d jobs (%d lost), Monte Carlo counted %d", i, res.Jobs, res.Lost, rep.Results[i].Jobs))
		}
	}
	lad["fleet.arrivals_us_per_scenario"] = us(arrivals) / fleetReplay
	lad["fleet.cluster_run_ms_per_scenario"] = float64(runs) / float64(time.Millisecond) / fleetReplay

	q.Seed++
	q.Scenarios = schedScenarios
	if cfg, err = capacityConfig(q); err != nil {
		return nil, err
	}
	var e1, en fleet.Engine
	procs := runtime.GOMAXPROCS(0)
	t0 := time.Now()
	r1, err := e1.MonteCarlo(cfg, 1)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rn, err := en.MonteCarlo(cfg, procs)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	tr.add("sched.workers_1", 0, 0, schedScenarios, t0, t1)
	tr.add("sched.workers_n", 0, 0, schedScenarios, t1, t2)
	if r1.Checksum != rn.Checksum {
		problems = append(problems, fmt.Sprintf("fleet: Monte Carlo checksum %016x at 1 worker, %016x at %d", r1.Checksum, rn.Checksum, procs))
	}
	lad["sched.speedup"] = float64(t1.Sub(t0)) / float64(t2.Sub(t1))
	lad["sched.gomaxprocs"] = float64(procs)
	lad["sched.num_cpu"] = float64(runtime.NumCPU())
	return problems, nil
}

// replayLadder runs every probe, the workload's own handler probe
// first, and returns the timing metrics plus any disagreement found.
func replayLadder(tr *tracer, workload string, seed int64) (ladder, []string, error) {
	lad := make(ladder)
	// Finish the models' lazy initialisation first, as the daemon's
	// setup does, so no probe pays for it.
	for _, q := range warmQueries() {
		if _, err := replayRun(q); err != nil {
			return nil, nil, err
		}
	}
	var err error
	switch workload {
	case runHot:
		err = replayHot(tr, seed, lad)
	case capacity:
		err = replayCapacity(tr, seed, lad)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := replayCold(tr, seed, workload == sweepCold, lad); err != nil {
		return nil, nil, err
	}
	lad["serve.handler_us_p50"] = usP50(tr.perOp("serve.handler", false))
	lad["serve.handler_self_us_p50"] = usP50(tr.perOp("serve.handler", true))
	if err := replayMeasure(tr, lad); err != nil {
		return nil, nil, err
	}
	if err := replayProg(tr, lad); err != nil {
		return nil, nil, err
	}
	problems, err := replayFleet(tr, seed, lad)
	if err != nil {
		return nil, nil, err
	}
	return lad, problems, nil
}
