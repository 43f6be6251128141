// Command loadbench is the repository's end-to-end benchmark of the
// sx4d daemon. It boots the daemon built from the same tree as a child
// process on a loopback port, drives one seeded workload over real
// HTTP through internal/client in a closed loop, checks every answer,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// ladder) as the last line of its output. See NOTES.md for the
// workloads and what each metric should move with.
//
// Usage (run.sh builds both binaries first):
//
//	loadbench -workload run-hot -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"sx4bench/internal/serve"

	_ "sx4bench" // link the models in; their inits register the machines
)

// The workloads.
const (
	runHot    = "run-hot"
	sweepCold = "sweep-cold"
	capacity  = "capacity"
)

var workloads = []string{runHot, sweepCold, capacity}

// nominalRate is each workload's successful ops per second on the
// reference host (2 CPUs, see NOTES.md). A run does seconds x this
// much work, so it measures about that long there and the same amount
// of work everywhere.
var nominalRate = map[string]float64{
	runHot:    10000,
	sweepCold: 5600,
	capacity:  2700,
}

// Run shape.
const (
	setupReps = 7 // setups per untraced run; setup_s is their median
	// rounds splits a pass's work; the rate and latency metrics are
	// medians over rounds, so a burst of host contention moves one
	// round, not the run.
	rounds = 20
	// generatorProcs is the generator's GOMAXPROCS during the timed loop.
	generatorProcs = 1
	// passTimeout bounds everything one invocation does, so it ends
	// within the three minutes a run may take even against a daemon
	// that stops answering.
	passTimeout = 150 * time.Second
	// driveStretch bounds the timed loop at this many times -seconds;
	// a program that much slower than the reference reports the work
	// it finished.
	driveStretch = 4
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	conns    int
	setups   int
	ops      int    // successful ops per pass; 0 = seconds x nominal rate
	golden   string // the committed canonical /v1/run body
	// start brings up a daemon to measure.
	start func() (*daemon, error)
}

func (c config) opsPerPass() int {
	if c.ops > 0 {
		return c.ops
	}
	return max(1, int(c.seconds*nominalRate[c.workload]))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", runHot, fmt.Sprintf("workload: one of %v", workloads))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per pass on the reference host")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead")
	sx4d := fs.String("sx4d", filepath.Join(buildDir, "bin", "sx4d"), "sx4d binary to measure")
	golden := fs.String("golden", filepath.Join("internal", "check", "testdata", "goldens", "serve.golden"), "committed canonical /v1/run body")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "loadbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		conns:    min(2, runtime.NumCPU()),
		setups:   setupReps,
		golden:   *golden,
		start:    func() (*daemon, error) { return boot(*sx4d) },
	}
	if cfg.workload != runHot {
		cfg.conns = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	var res result
	var err error
	if *trace == 1 {
		tr := newTracer()
		res, err = tracedRun(ctx, cfg, tr, stdout)
		if err == nil {
			path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
			if werr := tr.write(path); werr != nil {
				err = fmt.Errorf("writing spans: %w", werr)
			} else {
				fmt.Fprintf(stdout, "spans written to %s\n", path)
			}
		}
	} else {
		res, err = untracedRun(ctx, cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "loadbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "loadbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// buildDir is where run.sh puts the binaries, relative to the root of
// the tree; span files go there too.
const buildDir = ".bench_build"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is what one pass over a booted daemon measured.
type passResult struct {
	t         tally   // the whole timed loop
	rounds    []tally // the loop round by round
	setups    []time.Duration
	daemonCPU time.Duration
	genCPU    time.Duration
	rss       int64
	// before and after bracket the timed loop.
	before, after serve.Stats
	problems      []string
}

// opsPerSecond is the median over rounds of successful ops per second.
func (p passResult) opsPerSecond() float64 {
	return medianOver(p.rounds, func(t tally) float64 { return float64(t.ok) / t.elapsed.Seconds() })
}

// roundRates lists each round's successful ops per second, rounded.
func roundRates(rs []tally) []float64 {
	out := make([]float64, len(rs))
	for i, t := range rs {
		out[i] = math.Round(float64(t.ok) / t.elapsed.Seconds())
	}
	return out
}

// latencyMS is the median over rounds of a round's latency quantile.
func (p passResult) latencyMS(q func(latencies) time.Duration) float64 {
	return medianOver(p.rounds, func(t tally) float64 { return ms(q(quantiles(t.lat))) })
}

func (p passResult) cpuShare() float64 {
	if p.genCPU+p.daemonCPU == 0 {
		return 0
	}
	return float64(p.genCPU) / float64(p.genCPU+p.daemonCPU)
}

// warmState is what setup leaves for the timed loop.
type warmState struct {
	hot      []serve.RunRequest
	bodies   [][]byte
	problems []string
}

// setUp brings a daemon up and warms it: /healthz answers, every
// machine answers one query outside the timed stream (finishing its
// lazy initialisation), run-hot's hot set is cached, and each capacity
// fleet answers one small query on a seed the stream never uses.
func setUp(ctx context.Context, cfg config, golden []byte) (*daemon, warmState, error) {
	var ws warmState
	d, err := cfg.start()
	if err != nil {
		return nil, ws, err
	}
	l := newLoop(d.url, cfg.conns, cfg.seed, nil)
	defer l.close()
	fail := func(err error) (*daemon, warmState, error) {
		d.stop()
		return nil, ws, err
	}
	if err := waitHealthy(ctx, l.hc, d.url); err != nil {
		return fail(err)
	}
	canonical := serve.CanonicalRequest()
	for _, q := range warmQueries() {
		res, err := l.c.Run(ctx, q)
		if err != nil {
			return fail(fmt.Errorf("warm-up query %s: %w", q.Machine, err))
		}
		if q.Machine == canonical.Machine && string(res.Body) != string(golden) {
			ws.problems = append(ws.problems, "setup: canonical /v1/run body differs from the committed serve golden")
		}
	}
	switch cfg.workload {
	case runHot:
		ws.hot = hotSet(cfg.seed)
		ws.bodies = make([][]byte, len(ws.hot))
		errs := make([]error, cfg.conns)
		var wg sync.WaitGroup
		for conn := range cfg.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := conn; i < len(ws.hot); i += cfg.conns {
					res, err := l.c.Run(ctx, ws.hot[i])
					if err != nil {
						errs[conn] = err
						return
					}
					ws.bodies[i] = res.Body
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fail(fmt.Errorf("filling the hot set: %w", err))
		}
	case capacity:
		for _, f := range capacityFleets {
			req := serve.CapacityRequest{Fleet: f, Scenarios: 1, Seed: capacityWarmSeed}
			if _, _, err := l.postCapacity(ctx, req); err != nil {
				return fail(fmt.Errorf("warm-up capacity query %s: %w", f, err))
			}
		}
	}
	return d, ws, nil
}

// measure runs cfg.setups setups (keeping the last daemon), then the
// timed loop, then the correctness checks, and stops the daemon.
func measure(ctx context.Context, cfg config, tr *tracer) (passResult, error) {
	var p passResult
	golden, err := os.ReadFile(cfg.golden)
	if err != nil {
		return p, fmt.Errorf("reading the serve golden: %w", err)
	}
	titles, err := machineTitles()
	if err != nil {
		return p, err
	}
	var d *daemon
	var ws warmState
	for range max(1, cfg.setups) {
		start := time.Now()
		nd, nws, err := setUp(ctx, cfg, golden)
		if err != nil {
			d.stop()
			return p, err
		}
		p.setups = append(p.setups, time.Since(start))
		d.stop()
		d, ws = nd, nws
	}
	defer d.stop()
	p.problems = append(p.problems, ws.problems...)

	l := newLoop(d.url, cfg.conns, cfg.seed, tr)
	defer l.close()
	if p.before, err = l.c.Stats(ctx); err != nil {
		return p, err
	}
	dctx, cancel := context.WithTimeout(ctx, time.Duration(driveStretch*cfg.seconds*float64(time.Second)))
	defer cancel()
	ops := cfg.opsPerPass()
	cpu0, err := cpuTime(d.pid)
	if err != nil {
		return p, err
	}
	var round roundFunc
	var first capacityCall
	switch cfg.workload {
	case runHot:
		round = l.hotRounds(ws.hot, ws.bodies, cfg.conns)
	case sweepCold:
		round = l.sweepRounds(newColdStream(cfg.seed), titles, cfg.conns)
	case capacity:
		round = l.capacityRounds(&first)
	}
	// The loop runs on one P: its goroutines only wait on the network,
	// and a second P spinning for work takes CPU from the daemon. On a
	// 2-CPU host this cut the generator's share of run-hot's CPU from
	// 0.56 to 0.50, and the run-to-run spread with it.
	procs := runtime.GOMAXPROCS(generatorProcs)
	gen0 := selfCPU()
	for range rounds {
		start := time.Now()
		rt := round(dctx, max(1, ops/rounds))
		rt.elapsed = time.Since(start)
		p.rounds = append(p.rounds, rt)
		p.t.merge(rt)
	}
	p.genCPU = selfCPU() - gen0
	runtime.GOMAXPROCS(procs)
	cpu1, err := cpuTime(d.pid)
	if err != nil {
		return p, err
	}
	p.daemonCPU = cpu1 - cpu0
	if p.after, err = l.c.Stats(ctx); err != nil {
		return p, err
	}
	p.problems = append(p.problems, p.t.wrong...)
	switch cfg.workload {
	case sweepCold:
		p.problems = append(p.problems, l.checkSweepSample(ctx, p.t.swept)...)
	case capacity:
		p.problems = append(p.problems, l.checkCapacityCall(ctx, first)...)
	}
	final, err := l.idleStats(ctx)
	if err != nil {
		return p, err
	}
	p.problems = append(p.problems, checkBooks(final)...)
	if p.rss, err = peakRSS(d.pid); err != nil {
		return p, err
	}
	if p.t.ok == 0 {
		p.problems = append(p.problems, "no operation succeeded")
	}
	return p, nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, cfg config, out io.Writer) (result, error) {
	p, err := measure(ctx, cfg, nil)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   len(p.problems) == 0,
		Attempted: p.t.attempted,
		Failed:    p.t.attempted - p.t.ok,
		Metrics: map[string]metric{
			"setup_s":        {median(p.setups).Seconds(), "s"},
			"ops_per_s":      {p.opsPerSecond(), "1/s"},
			"latency_p50_ms": {p.latencyMS(func(l latencies) time.Duration { return l.p50 }), "ms"},
			"latency_p90_ms": {p.latencyMS(func(l latencies) time.Duration { return l.p90 }), "ms"},
			"success_ratio":  {float64(p.t.ok) / float64(max(p.t.attempted, 1)), "ratio"},
			"cpu_ms_per_op":  {ms(p.daemonCPU) / float64(max(p.t.ok, 1)), "ms"},
			"peak_rss_mb":    {float64(p.rss) / (1 << 20), "MB"},
		},
	}
	report(out, cfg, p, res)
	return res, nil
}

// tracedRun measures the per-layer metrics: an untraced pass for the
// tracing-overhead baseline, the same seeded stream again with spans
// around every client call, and the in-process layer replay. Each pass
// does half a run's work.
func tracedRun(ctx context.Context, cfg config, tr *tracer, out io.Writer) (result, error) {
	cfg.setups = 1
	cfg.seconds /= 2
	base, err := measure(ctx, cfg, nil)
	if err != nil {
		return result{}, err
	}
	p, err := measure(ctx, cfg, tr)
	if err != nil {
		return result{}, err
	}
	lad, problems, err := replayLadder(tr, cfg.workload, cfg.seed)
	if err != nil {
		return result{}, fmt.Errorf("layer replay: %w", err)
	}
	problems = append(append(problems, base.problems...), p.problems...)

	d := delta(p.before, p.after)
	lad["client.cpu_share"] = base.cpuShare()
	lad["http.overhead_us_p50"] = 1000*p.latencyMS(func(l latencies) time.Duration { return l.p50 }) - lad["serve.handler_us_p50"]
	lad["serve.cache_hit_ratio"] = ratio(d.CacheHits, d.RunQueries)
	lad["serve.runs_executed"] = float64(d.RunsExecuted)
	lad["serve.cache_entries"] = float64(p.after.CacheEntries)
	lad["serve.errors"] = float64(d.Errors)
	lad["serve.shed"] = float64(d.Shed + d.QueueTimeouts)
	lad["serve.sweep_lines_unread"] = float64(uint64(p.t.sent) - d.SweepLines)
	lad["client.sweep_lines_lost"] = float64(p.t.sent - p.t.answered)
	lad["target.memo_hit_ratio"] = ratio(d.MemoHits, d.MemoHits+d.MemoMisses)
	lad["target.memo_entries"] = float64(p.after.MemoEntries)
	lad["fleet.scenarios_run"] = float64(d.CapacityScenariosRun)
	lad["fleet.scenario_cache_hit_ratio"] = ratio(d.CapacityScenarioHits, d.CapacityScenarioHits+d.CapacityScenariosRun)
	lad["fleet.jobs_simulated"] = float64(d.CapacityJobs)
	lad["trace.overhead_ratio"] = base.opsPerSecond() / p.opsPerSecond()

	res := result{
		Correct:   len(problems) == 0,
		Attempted: base.t.attempted + p.t.attempted,
		Failed:    base.t.attempted - base.t.ok + p.t.attempted - p.t.ok,
		Metrics:   make(map[string]metric),
	}
	for _, m := range perLayerMetrics {
		v, ok := lad[m.name]
		if !ok {
			return result{}, fmt.Errorf("layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	p.problems = problems
	report(out, cfg, p, res)
	return res, nil
}

// delta subtracts the counters of two /v1/stats snapshots.
func delta(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		RunQueries:           b.RunQueries - a.RunQueries,
		SweepLines:           b.SweepLines - a.SweepLines,
		CacheHits:            b.CacheHits - a.CacheHits,
		RunsExecuted:         b.RunsExecuted - a.RunsExecuted,
		Errors:               b.Errors - a.Errors,
		Shed:                 b.Shed - a.Shed,
		QueueTimeouts:        b.QueueTimeouts - a.QueueTimeouts,
		MemoHits:             b.MemoHits - a.MemoHits,
		MemoMisses:           b.MemoMisses - a.MemoMisses,
		CapacityJobs:         b.CapacityJobs - a.CapacityJobs,
		CapacityScenariosRun: b.CapacityScenariosRun - a.CapacityScenariosRun,
		CapacityScenarioHits: b.CapacityScenarioHits - a.CapacityScenarioHits,
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// report prints the run's provenance and every metric by name, with
// unit and sample count, ahead of the result line.
func report(out io.Writer, cfg config, p passResult, res result) {
	lat := quantiles(p.t.lat)
	info := map[string]any{
		"workload":             cfg.workload,
		"seed":                 cfg.seed,
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"generator_gomaxprocs": generatorProcs,
		"num_cpu":              runtime.NumCPU(),
		"go_version":           runtime.Version(),
		"connections":          cfg.conns,
		"setups":               len(p.setups),
		"latency_samples":      len(p.t.lat),
		"client.cpu_share":     p.cpuShare(),
		"tail.latency_p99_ms":  ms(lat.p99),
		"tail.latency_max_ms":  ms(lat.max),
		"timed_s":              p.t.elapsed.Seconds(),
		"round_ops_per_s":      roundRates(p.rounds),
		"ops":                  p.t.ok,
		"attempted":            p.t.attempted,
		"sweep_lines_sent":     p.t.sent,
		"sweep_lines_answered": p.t.answered,
	}
	b, _ := json.Marshal(info)
	fmt.Fprintf(out, "info %s\n", b)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		note := ""
		switch n {
		case "latency_p50_ms", "latency_p90_ms":
			note = fmt.Sprintf("  (median over %d rounds of %d samples each)", len(p.rounds), len(p.t.lat)/max(1, len(p.rounds)))
		case "ops_per_s":
			note = fmt.Sprintf("  (median over %d rounds)", len(p.rounds))
		case "setup_s":
			note = fmt.Sprintf("  (median of %d setups)", len(p.setups))
		}
		fmt.Fprintf(out, "  %-34s %14.6g %-6s%s\n", n, m.Value, m.Unit, note)
	}
	for _, pr := range p.problems {
		fmt.Fprintf(out, "  WRONG: %s\n", pr)
	}
}
