package main

import (
	"math"
	"slices"
	"time"
)

// metricDef names a reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"success_ratio", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"client.cpu_share", "ratio"},
	{"http.overhead_us_p50", "us"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_self_us_p50", "us"},
	{"serve.allocs_per_op", "allocs"},
	{"serve.decode_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.runs_executed", "count"},
	{"serve.cache_entries", "count"},
	{"serve.errors", "count"},
	{"serve.shed", "count"},
	{"serve.sweep_lines_unread", "count"},
	{"client.sweep_lines_lost", "count"},
	{"ncar.measure_suite_us_p50", "us"},
	{"ncar.allocs_per_query", "allocs"},
	{"ncar.measure_cold_us", "us"},
	{"ncar.measure_warm_us", "us"},
	{"target.memo_hit_ratio", "ratio"},
	{"target.memo_entries", "count"},
	{"prog.build_us", "us"},
	{"prog.fingerprint_us", "us"},
	{"prog.compile_us", "us"},
	{"fleet.montecarlo_ms_per_scenario", "ms"},
	{"fleet.allocs_per_scenario", "allocs"},
	{"fleet.arrivals_us_per_scenario", "us"},
	{"fleet.cluster_run_ms_per_scenario", "ms"},
	{"fleet.scenarios_run", "count"},
	{"fleet.scenario_cache_hit_ratio", "ratio"},
	{"fleet.jobs_simulated", "count"},
	{"sched.speedup", "ratio"},
	{"sched.gomaxprocs", "count"},
	{"sched.num_cpu", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// latencies summarises a latency sample by nearest rank.
type latencies struct{ p50, p90, p99, max time.Duration }

func quantiles(ds []time.Duration) latencies {
	if len(ds) == 0 {
		return latencies{}
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	rank := func(q float64) time.Duration {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		return s[min(max(i, 0), len(s)-1)]
	}
	return latencies{rank(0.50), rank(0.90), rank(0.99), s[len(s)-1]}
}

func median(ds []time.Duration) time.Duration { return quantiles(ds).p50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func usP50(ds []time.Duration) float64 { return us(median(ds)) }

// medianOver is the median of f over xs (the mean of the middle two
// for an even count).
func medianOver[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
