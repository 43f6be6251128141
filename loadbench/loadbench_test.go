package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sx4bench/internal/serve"
)

// goldenPath is the committed canonical body, seen from this package.
var goldenPath = filepath.Join("..", "internal", "check", "testdata", "goldens", "serve.golden")

// inProcess starts a daemon for tests: an sx4d server on a loopback
// httptest listener, wrapped by wrap when it is not nil. Its costs are
// read from the test process itself.
func inProcess(t *testing.T, wrap func(http.Handler) http.Handler) func() (*daemon, error) {
	return func() (*daemon, error) {
		var h http.Handler = serve.New(serve.Config{Now: time.Now})
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return &daemon{url: ts.URL, pid: os.Getpid()}, nil
	}
}

// tinyOps sizes each workload's test run: a few hundred ops, one
// capacity round.
var tinyOps = map[string]int{runHot: 400, sweepCold: 300, capacity: 336}

func tinyConfig(t *testing.T, workload string, wrap func(http.Handler) http.Handler) config {
	conns := 2
	if workload != runHot {
		conns = 1
	}
	return config{
		workload: workload,
		seed:     5,
		seconds:  1,
		conns:    conns,
		setups:   2,
		ops:      tinyOps[workload],
		golden:   goldenPath,
		start:    inProcess(t, wrap),
	}
}

func ctxFor(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// checkMetrics asserts res carries exactly the named metrics, each with
// its unit and a finite value.
func checkMetrics(t *testing.T, res result, want []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
			continue
		}
		if got.Unit != m.unit {
			t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
		}
		if got.Value != got.Value || got.Value < -1e18 || got.Value > 1e18 {
			t.Errorf("metric %s = %v", m.name, got.Value)
		}
	}
}

func TestTinyRunEachWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var out bytes.Buffer
			res, err := untracedRun(ctxFor(t), tinyConfig(t, w, nil), &out)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEndMetrics)
			if !res.Correct {
				t.Errorf("run not correct:\n%s", out.String())
			}
			if res.Attempted < int64(tinyOps[w]) || res.Failed < 0 || res.Failed >= res.Attempted {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, name := range []string{"setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "success_ratio", "cpu_ms_per_op", "peak_rss_mb"} {
				if v := res.Metrics[name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			for _, want := range []string{"info {", `"seed":5`, `"gomaxprocs"`, `"num_cpu"`, `"go_version"`, `"latency_samples"`, `"client.cpu_share"`, "samples each)"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("report lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestTinyTracedRunEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer replay takes a few seconds per workload")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var out bytes.Buffer
			tr := newTracer()
			res, err := tracedRun(ctxFor(t), tinyConfig(t, w, nil), tr, &out)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayerMetrics)
			if !res.Correct {
				t.Errorf("run not correct:\n%s", out.String())
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := tr.write(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{`"name":"client.`, `"name":"serve.handler"`, `"name":"ncar.measure_suite"`, `"name":"fleet.cluster_run"`} {
				if !bytes.Contains(data, []byte(name)) {
					t.Errorf("span file has no %s span", name)
				}
			}
		})
	}
}

// corrupt rewrites the bodies of matching requests after the first
// skip of them through edit. The stub records the real answer first,
// so sweeps arrive whole, not streamed.
func corrupt(path string, skip int, edit func([]byte) []byte) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		var seen atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != path {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			body := rec.Body.Bytes()
			if seen.Add(1) > int64(skip) {
				body = edit(body)
			}
			w.Write(body)
		})
	}
}

func TestGateTripsOnWrongAnswers(t *testing.T) {
	// Still a well-formed run response, with every timing altered.
	alterTimings := func(b []byte) []byte {
		return bytes.ReplaceAll(b, []byte(`"ns_per_op":`), []byte(`"ns_per_op":1`))
	}
	cases := []struct {
		name, workload, path string
		skip                 int
		edit                 func([]byte) []byte
	}{
		// Every /v1/run body altered: the canonical query no longer
		// matches the committed golden.
		{"golden", runHot, "/v1/run", 0, alterTimings},
		// Hits altered after warm-up: they no longer match the bodies
		// the same queries got during warm-up.
		{"hit", runHot, "/v1/run", len(warmQueries()) + hotSetSize, alterTimings},
		// Sweep answers for another machine.
		{"sweep", sweepCold, "/v1/sweep", 0, func(b []byte) []byte {
			return bytes.ReplaceAll(b, []byte(`"machine":"`), []byte(`"machine":"X`))
		}},
		// A capacity answer that lost a job.
		{"capacity", capacity, "/v1/capacity", len(capacityFleets), func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"lost":0`), []byte(`"lost":1`), 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(t, tc.workload, corrupt(tc.path, tc.skip, tc.edit))
			cfg.setups = 1
			var out bytes.Buffer
			res, err := untracedRun(ctxFor(t), cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatalf("gate passed a corrupted %s answer:\n%s", tc.path, out.String())
			}
			if !strings.Contains(out.String(), "WRONG: ") {
				t.Errorf("report names no wrong answer:\n%s", out.String())
			}
		})
	}
}

func TestNoResultWithoutDaemon(t *testing.T) {
	var stdout, stderr bytes.Buffer
	missing := filepath.Join(t.TempDir(), "sx4d")
	code := run([]string{"-workload", runHot, "-seconds", "1", "-sx4d", missing, "-golden", goldenPath}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q; want a failure and no result", code, stdout.String())
	}
}

// TestBenchmarkJSONMatches pins the metric and workload tables to the
// contract file at the root of the tree.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d measured", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], measured %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
