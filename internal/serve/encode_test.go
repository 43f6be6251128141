package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"sx4bench/internal/benchjson"
	"sx4bench/internal/fault"
	"sx4bench/internal/ncar"
	"sx4bench/internal/target"
)

// member is one result record as the encoder receives it.
type member struct {
	m     ncar.Measurement
	extra []metric
}

// encodeDirect runs the direct encoder over a response's parts.
func encodeDirect(machine string, cpus int, faultSeed int64, members []member) ([]byte, error) {
	var enc responseEncoder
	enc.start(machine, cpus, faultSeed)
	for _, mb := range members {
		enc.result(mb.m, mb.extra...)
	}
	return enc.finish()
}

// encodeReference renders the same parts the way the encoder must
// match: a RunResponse of benchjson records, each with its own copy of
// the metrics map, through json.Marshal plus a newline.
func encodeReference(machine string, cpus int, faultSeed int64, members []member) ([]byte, error) {
	resp := RunResponse{Machine: machine, CPUs: cpus, FaultSeed: faultSeed}
	for _, mb := range members {
		r := benchjson.Result{
			Name:       mb.m.Benchmark,
			Iterations: int64(mb.m.KTries),
			NsPerOp:    mb.m.Seconds * 1e9,
		}
		if len(mb.m.Metrics) > 0 || len(mb.extra) > 0 {
			r.Metrics = make(map[string]float64)
			for k, v := range mb.m.Metrics {
				r.Metrics[k] = v
			}
			for _, x := range mb.extra {
				r.Metrics[x.key] = x.val
			}
		}
		resp.Results = append(resp.Results, r)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// referenceExecute is execute as it rendered responses before the
// direct encoder: the same measurements, marshaled reflectively.
func referenceExecute(ctx context.Context, tgt target.Target, canon RunRequest, workers int) ([]byte, error) {
	cpus := canon.CPUs
	if cpus <= 0 {
		cpus = tgt.Spec().CPUs
	}
	var members []member
	if canon.FaultSeed == 0 {
		ms, err := ncar.MeasureSuite(ctx, tgt, canon.Benchmarks, canon.CPUs, workers)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			members = append(members, member{m: m})
		}
	} else {
		opts := ncar.ResilientOpts{
			Injector:        fault.NewPlan(canon.FaultSeed, fault.CanonicalHorizon, fault.CanonicalEvents),
			DeadlineSeconds: canon.DeadlineSeconds,
			MaxAttempts:     canon.MaxAttempts,
		}
		rms, err := ncar.MeasureSuiteResilient(ctx, tgt, canon.Benchmarks, canon.CPUs, workers, opts)
		if err != nil {
			return nil, err
		}
		for _, rm := range rms {
			members = append(members, member{m: rm.Measurement, extra: []metric{
				{"attempts", float64(rm.Attempts)},
				{"finished_at_s", rm.FinishedAt},
			}})
		}
	}
	return encodeReference(tgt.Name(), cpus, canon.FaultSeed, members)
}

// TestEncoderMatchesMarshalDifferential pins the direct encoder's byte
// contract on real traffic: over seeded random queries (every machine,
// random member lists and allocations, fault-free and fault-seeded
// with deadlines and attempt caps), the bytes execute writes equal
// json.Marshal of the RunResponse plus '\n', and a query that fails
// fails on both paths.
func TestEncoderMatchesMarshalDifferential(t *testing.T) {
	const queries = 320
	rng := rand.New(rand.NewPCG(1996, 15))
	machines := target.All()
	suite := ncar.Suite()
	s := New(Config{})
	ctx := context.Background()
	var faulted, failed int
	for q := 0; q < queries; q++ {
		req := RunRequest{Machine: machines[rng.IntN(len(machines))]}
		if rng.IntN(8) != 0 {
			for n := 1 + rng.IntN(4); n > 0; n-- {
				req.Benchmarks = append(req.Benchmarks, suite[rng.IntN(len(suite))].Name)
			}
		}
		req.CPUs = []int{0, 1, 2, 4, 8, 32}[rng.IntN(6)]
		if rng.IntN(2) == 0 {
			faulted++
			req.FaultSeed = 1 + rng.Int64N(6)
			req.DeadlineSeconds = []float64{0, 60, 900, 1e5}[rng.IntN(4)]
			req.MaxAttempts = rng.IntN(4)
		}
		canon := req.Canonical()
		tgt, err := s.target(canon.Machine)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := s.execute(ctx, tgt, canon, 1)
		want, wantErr := referenceExecute(ctx, tgt, canon, 1)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("query %d %+v: direct err %v, reference err %v", q, req, gotErr, wantErr)
		}
		if gotErr != nil {
			failed++
			if !strings.Contains(gotErr.Error(), wantErr.Error()) {
				t.Fatalf("query %d %+v: direct err %q does not carry reference err %q", q, req, gotErr, wantErr)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("query %d %+v: bytes differ\ndirect:    %s\nreference: %s", q, req, got, want)
		}
	}
	if faulted == 0 || faulted == queries {
		t.Fatalf("%d of %d queries fault-seeded; the sample must cover both paths", faulted, queries)
	}
	t.Logf("%d queries (%d fault-seeded, %d failing on both paths)", queries, faulted, failed)
}

// TestEncoderMatchesMarshalEdgeCases pins the rules real traffic rarely
// reaches: strings json.Marshal escapes, floats at the 'e'/'f'
// switch-over points, extras overriding a measurement key, and an
// empty result list.
func TestEncoderMatchesMarshalEdgeCases(t *testing.T) {
	names := []string{
		"plain", "a<b", "x&y", "tag>", `quo"te`, `back\slash`, "ctl\x01byte",
		"tab\there", "newline\n", "crème", "日本", "sep\u2028line", "bad\xffutf8", "",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, -math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
		1e-9, 1.5e-10, 2.5e-100, 5e-324, math.MaxFloat64, 1e20, 1e22,
	}
	cases := []struct {
		name    string
		machine string
		seed    int64
		members []member
	}{
		{name: "no results", machine: "sx4-32"},
		{name: "fault seed echoed", machine: "sx4-1", seed: -7, members: []member{{m: ncar.Measurement{Benchmark: "COPY", KTries: 20, Seconds: 1}}}},
		{name: "extra overrides", machine: "ymp", members: []member{{
			m:     ncar.Measurement{Benchmark: "IA", KTries: 20, Seconds: 2, Metrics: map[string]float64{"mbps": 3, "attempts": 99}},
			extra: []metric{{"attempts", 2}, {"finished_at_s", 4.5}},
		}}},
	}
	for i, name := range names {
		cases = append(cases, struct {
			name    string
			machine string
			seed    int64
			members []member
		}{
			name:    "escape " + name,
			machine: name,
			members: []member{{m: ncar.Measurement{
				Benchmark: name, KTries: i, Seconds: float64(i),
				Metrics: map[string]float64{name: 1, "z" + name: 2, "mbps": 3},
			}}},
		})
	}
	var fm []member
	for i, f := range floats {
		fm = append(fm, member{m: ncar.Measurement{
			Benchmark: "F", Seconds: f / 1e9,
			Metrics: map[string]float64{"v": f, "neg": -f, "k" + strings.Repeat("x", i): f / 3},
		}})
	}
	cases = append(cases, struct {
		name    string
		machine string
		seed    int64
		members []member
	}{name: "float formats", machine: "sx4-32", members: fm})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := encodeDirect(tc.machine, 4, tc.seed, tc.members)
			if err != nil {
				t.Fatal(err)
			}
			want, err := encodeReference(tc.machine, 4, tc.seed, tc.members)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("bytes differ\ndirect:    %s\nreference: %s", got, want)
			}
		})
	}
}

// TestEncoderRejectsNonFinite pins the error contract: a NaN or
// infinite number fails the response with json.Marshal's own error,
// whether it sits in ns_per_op, a metric or an extra.
func TestEncoderRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, mb := range []member{
			{m: ncar.Measurement{Benchmark: "COPY", Seconds: bad}},
			{m: ncar.Measurement{Benchmark: "COPY", Seconds: 1, Metrics: map[string]float64{"mbps": bad}}},
			{m: ncar.Measurement{Benchmark: "COPY", Seconds: 1}, extra: []metric{{"finished_at_s", bad}}},
		} {
			members := []member{{m: ncar.Measurement{Benchmark: "IA", Seconds: 1}}, mb}
			body, err := encodeDirect("sx4-32", 1, 0, members)
			_, wantErr := encodeReference("sx4-32", 1, 0, members)
			if err == nil || wantErr == nil {
				t.Fatalf("%v: direct (%q, %v), reference err %v; want both to fail", bad, body, err, wantErr)
			}
			var uve *json.UnsupportedValueError
			if err.Error() != wantErr.Error() || !errors.As(err, &uve) {
				t.Fatalf("%v: direct err %v (%T), want %v", bad, err, err, wantErr)
			}
		}
	}
}
