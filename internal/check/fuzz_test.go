package check

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"sx4bench/internal/benchjson"
	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

// FuzzProgramFingerprint drives the trace IR with arbitrary structured
// inputs: every decoded program must validate, dump, and fingerprint
// deterministically, clones must collide, and a structural mutation
// must not.
func FuzzProgramFingerprint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("the performance of the NEC SX-4"))
	f.Add([]byte{255, 255, 0, 128, 9, 9, 9, 64, 64, 64, 64, 64, 64, 64, 64, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := DecodeProgram(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("DecodeProgram produced an invalid program: %v", err)
		}
		if err := p.Dump(io.Discard); err != nil {
			t.Fatalf("Dump: %v", err)
		}
		if p.Flops() < 0 || p.Words() < 0 {
			t.Fatalf("negative totals: flops=%d words=%d", p.Flops(), p.Words())
		}
		fp := p.Fingerprint()
		if again := DecodeProgram(data).Fingerprint(); again != fp {
			t.Fatalf("decode not deterministic: %x vs %x", fp, again)
		}
		if cl := p.Clone().Fingerprint(); cl != fp {
			t.Fatalf("clone fingerprint %x differs from original %x", cl, fp)
		}
		mutated := p.Clone()
		mutated.Name = p.Name + "'"
		if mutated.Fingerprint() == fp {
			t.Fatal("renamed program kept the same fingerprint")
		}
	})
}

// FuzzMachineRun decodes a full (config, program, opts) case and checks
// run-cache coherence: cached, clone-keyed, and interpreted runs must
// be deep-equal; totals must match the program's analytic counts; times
// must be finite and non-negative. Any panic is a finding.
func FuzzMachineRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{9, 2, 32, 1, 8, 2, 4, 1, 2, 3, 48, 24, 0, 0, 0, 0, 5, 0, 200, 7, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, p, opts := DecodeCase(data)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("DecodeCase produced an invalid config: %v", err)
		}
		m := sx4.New(cfg)
		cold := m.Run(prog.MustCompile(p), opts)
		// A clone has the same fingerprint, so it must hit the memo and
		// return the identical result; the interpreter must agree.
		viaClone := m.Run(prog.MustCompile(p.Clone()), opts)
		direct := m.Interpret(p, opts)
		if !reflect.DeepEqual(cold, viaClone) {
			t.Fatalf("clone-keyed cached run differs:\n%+v\n%+v", cold, viaClone)
		}
		if !reflect.DeepEqual(cold, direct) {
			t.Fatalf("cached and interpreted runs differ:\n%+v\n%+v", cold, direct)
		}
		if cold.Flops != p.Flops() {
			t.Fatalf("Result.Flops=%d, program says %d", cold.Flops, p.Flops())
		}
		if cold.Words != p.Words() {
			t.Fatalf("Result.Words=%d, program says %d", cold.Words, p.Words())
		}
		for _, v := range []float64{cold.Clocks, cold.Seconds} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("non-finite or negative time in %+v", cold)
			}
		}
	})
}

// FuzzReportParse feeds arbitrary text to the benchmark-report parser:
// it must never panic, must be deterministic, and every accepted
// baseline must be internally consistent and JSON-serializable.
func FuzzReportParse(f *testing.F) {
	f.Add("")
	f.Add("goos: linux\ngoarch: amd64\ncpu: X\nBenchmarkRADABS-8 100 11983456 ns/op 876 mflops\nPASS\n")
	f.Add("BenchmarkRunAllSerial-8 5 200000000 ns/op\nBenchmarkRunAllParallel-8 10 100000000 ns/op\n")
	f.Add("Benchmark 1 2 ns/op\nBenchmarkX-8 NaN 5 ns/op\n\x00\xff\n")
	f.Fuzz(func(t *testing.T, input string) {
		b, err := benchjson.Parse(strings.NewReader(input))
		b2, err2 := benchjson.Parse(strings.NewReader(input))
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(b, b2) {
			t.Fatal("Parse is not deterministic")
		}
		if err != nil {
			return
		}
		if len(b.Benchmarks) == 0 {
			t.Fatal("Parse succeeded with zero benchmarks")
		}
		for _, r := range b.Benchmarks {
			if !strings.HasPrefix(r.Name, "Benchmark") {
				t.Fatalf("accepted non-benchmark name %q", r.Name)
			}
		}
		if math.IsNaN(b.RunAllSpeedup) || b.RunAllSpeedup < 0 {
			t.Fatalf("bad speedup %v", b.RunAllSpeedup)
		}
		if _, err := json.Marshal(b); err != nil {
			t.Fatalf("baseline not serializable: %v", err)
		}
	})
}
