package check

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sx4bench/internal/machine"
	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
	"sx4bench/internal/target"
)

// The compiled-trace differential suite: each engine's Interpret —
// the source trace walked op by op, no memo, no compiled-trace cache —
// is the oracle, and every property below pins Run — Compile followed
// by the memoized flat walk — to be bit-identical to it, over the same
// randomized (config, program, opts) cases the metamorphic suite uses.

// TestQuickCompiledBitIdentical: the SX-4 engine's Run (memo cold,
// then memo warm) and its interpreter must agree bit for bit on
// randomized traces — Clocks, Seconds, Flops, Words, and every phase
// record.
func TestQuickCompiledBitIdentical(t *testing.T) {
	for i, data := range randCases(120) {
		cfg, p, opts := DecodeCase(data)
		m := sx4.New(cfg)
		c := prog.MustCompile(p)
		ri := m.Interpret(p, opts)
		for _, phase := range []string{"cold", "warm"} {
			if rc := m.Run(c, opts); !reflect.DeepEqual(rc, ri) {
				t.Errorf("case %d: %s run differs from interpreted: %+v vs %+v", i, phase, rc, ri)
			}
		}
	}
}

// TestQuickWorkstationCompiledBitIdentical: the workstation engine
// carries the same Run/Interpret pair; both must agree on randomized
// traces.
func TestQuickWorkstationCompiledBitIdentical(t *testing.T) {
	ctors := []func() *machine.Workstation{machine.SunSparc20, machine.IBMRS6000590}
	for i, data := range randCases(60) {
		p := DecodeProgram(data)
		c := prog.MustCompile(p)
		for _, ctor := range ctors {
			w := ctor()
			rc := w.Run(c, target.RunOpts{Procs: 1})
			ri := w.Interpret(p, target.RunOpts{Procs: 1})
			if !reflect.DeepEqual(rc, ri) {
				t.Errorf("case %d (%s): compiled differs from interpreted: %+v vs %+v",
					i, w.Name(), rc, ri)
			}
		}
	}
}

// TestCompiledConcurrentReuse: many goroutines hammer one machine's
// Run over a small program set, so the compiled-trace cache's
// first-store-wins path, the sharded memo and the shared
// *compiledProgram values all see real concurrent reuse. Every
// goroutine must observe results identical to the interpreter;
// `go test -race ./internal/check` (CI's race-full) makes this a
// data-race proof, not just an equality check.
func TestCompiledConcurrentReuse(t *testing.T) {
	cases := randCases(16)
	type unit struct {
		c    *prog.Compiled
		opts sx4.RunOpts
		want sx4.Result
	}
	cfg := sx4.Benchmarked()
	oracle := sx4.New(cfg)
	units := make([]unit, len(cases))
	for i, data := range cases {
		_, p, opts := DecodeCase(data)
		units[i] = unit{c: prog.MustCompile(p), opts: opts, want: oracle.Interpret(p, opts)}
	}

	shared := sx4.New(cfg)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				u := &units[(g+rep)%len(units)]
				if got := shared.Run(u.c, u.opts); !reflect.DeepEqual(got, u.want) {
					errs[g] = &mismatchError{g: g, rep: rep}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

type mismatchError struct{ g, rep int }

func (e *mismatchError) Error() string {
	return fmt.Sprintf("goroutine %d rep %d: concurrent compiled run diverged from serial oracle", e.g, e.rep)
}
