package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sx4bench/internal/sx4"
	"sx4bench/internal/sx4/prog"
)

func TestCopyHostSemantics(t *testing.T) {
	k := Copy{N: 7, M: 3}
	a := make([]float64, 21)
	for i := range a {
		a[i] = float64(i) * 1.5
	}
	b := k.Host(a)
	for i := range a {
		if b[i] != a[i] {
			t.Fatalf("b[%d] = %v, want %v", i, b[i], a[i])
		}
	}
}

func TestCopyHostPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad shape did not panic")
		}
	}()
	Copy{N: 4, M: 4}.Host(make([]float64, 3))
}

func TestIAHostSemantics(t *testing.T) {
	k := IA{N: 5, M: 2}
	a := []float64{10, 11, 12, 13, 14, 20, 21, 22, 23, 24}
	indx := []int{4, 3, 2, 1, 0}
	b := k.Host(a, indx)
	want := []float64{14, 13, 12, 11, 10, 24, 23, 22, 21, 20}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("b[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestIAGatherIsPermutationInverse(t *testing.T) {
	f := func(seed int64) bool {
		n := 32
		k := IA{N: n, M: 1}
		indx := Permutation(n, seed)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(i)
		}
		b := k.Host(a, indx)
		// b[i] = a[indx[i]]: the multiset of values is preserved.
		seen := make([]bool, n)
		for _, v := range b {
			seen[int(v)] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermutationValid(t *testing.T) {
	p := Permutation(100, 7)
	if len(p) != 100 {
		t.Fatalf("len = %d", len(p))
	}
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestXposeHostSemantics(t *testing.T) {
	k := Xpose{N: 3, M: 2}
	a := make([]float64, 18)
	for i := range a {
		a[i] = float64(i)
	}
	b := k.Host(a)
	for m := 0; m < 2; m++ {
		for j := 0; j < 3; j++ {
			for i := 0; i < 3; i++ {
				if b[m*9+j*3+i] != a[m*9+i*3+j] {
					t.Fatalf("transpose wrong at m=%d i=%d j=%d", m, i, j)
				}
			}
		}
	}
}

func TestXposeInvolution(t *testing.T) {
	k := Xpose{N: 8, M: 3}
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 8*8*3)
	for i := range a {
		a[i] = rng.Float64()
	}
	twice := k.Host(k.Host(a))
	for i := range a {
		if twice[i] != a[i] {
			t.Fatal("transpose twice != identity")
		}
	}
}

func TestTraceWordCountsMatchHostTraffic(t *testing.T) {
	// The analytic traces must move exactly the words the host loops
	// touch (the cross-check DESIGN.md promises).
	c := Copy{N: 100, M: 10}
	if got, want := c.Trace().Words(), int64(2*100*10); got != want {
		t.Errorf("COPY trace words = %d, want %d", got, want)
	}
	ia := IA{N: 100, M: 10}
	// index load + gather (data+index accounting) + store per trip.
	if got, want := ia.Trace().Words(), int64(10*(100+200+100)); got != want {
		t.Errorf("IA trace words = %d, want %d", got, want)
	}
	x := Xpose{N: 16, M: 4}
	if got, want := x.Trace().Words(), int64(16*4)*int64(2*16); got != want {
		t.Errorf("XPOSE trace words = %d, want %d", got, want)
	}
}

func TestPayloadBytes(t *testing.T) {
	if got := (Copy{N: 10, M: 10}).PayloadBytes(); got != 1600 {
		t.Errorf("COPY payload = %d, want 1600", got)
	}
	if got := (IA{N: 10, M: 10}).PayloadBytes(); got != 1600 {
		t.Errorf("IA payload = %d, want 1600 (indices not counted)", got)
	}
	if got := (Xpose{N: 10, M: 3}).PayloadBytes(); got != 2*8*100*3 {
		t.Errorf("XPOSE payload = %d", got)
	}
}

func TestSweepShapes(t *testing.T) {
	cs := CopySweep(4)
	if len(cs) < 15 {
		t.Errorf("COPY sweep has %d points, want >= 15", len(cs))
	}
	if cs[0].N != 1 || cs[len(cs)-1].N != 1_000_000 {
		t.Errorf("COPY sweep range %d..%d", cs[0].N, cs[len(cs)-1].N)
	}
	for _, k := range cs {
		vol := k.N * k.M
		if vol < 500_000 || vol > 2_000_000 {
			t.Errorf("COPY pair (%d,%d) volume %d not constant", k.N, k.M, vol)
		}
	}
	xs := XposeSweep(4)
	if xs[0].N != 2 || xs[len(xs)-1].N != 1000 {
		t.Errorf("XPOSE sweep range %d..%d, want 2..1000", xs[0].N, xs[len(xs)-1].N)
	}
	for _, k := range xs {
		vol := k.N * k.N * k.M
		if vol < 400_000 || vol > 2_100_000 {
			t.Errorf("XPOSE pair (%d,%d) volume %d not constant", k.N, k.M, vol)
		}
	}
	if xs[0].M != 250_000 {
		t.Errorf("XPOSE first instance count = %d, want 250000", xs[0].M)
	}
}

func TestIASweepShape(t *testing.T) {
	is := IASweep(4)
	if len(is) < 15 {
		t.Fatalf("IA sweep has %d points", len(is))
	}
	if is[0].N != 1 || is[len(is)-1].N != 1_000_000 {
		t.Errorf("IA sweep range %d..%d", is[0].N, is[len(is)-1].N)
	}
	for _, k := range is {
		if vol := k.N * k.M; vol < 500_000 || vol > 2_000_000 {
			t.Errorf("IA pair (%d,%d) volume %d not constant", k.N, k.M, vol)
		}
	}
}

func TestHostShapePanics(t *testing.T) {
	for _, f := range []func(){
		func() { IA{N: 4, M: 2}.Host(make([]float64, 8), make([]int, 3)) },
		func() { Xpose{N: 4, M: 2}.Host(make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad shape did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFigure5Ordering(t *testing.T) {
	// At large N, COPY must far exceed XPOSE and IA (Figure 5).
	m := sx4.New(sx4.BenchmarkedSingleCPU())
	bw := func(p prog.Program, payload int64) float64 {
		r := m.Run(prog.MustCompile(p), sx4.RunOpts{Procs: 1})
		return float64(payload) / r.Seconds / 1e6
	}
	c := Copy{N: 1 << 20, M: 1}
	i := IA{N: 1 << 20, M: 1}
	x := Xpose{N: 1000, M: 1}
	copyBW := bw(c.Trace(), c.PayloadBytes())
	iaBW := bw(i.Trace(), i.PayloadBytes())
	xposeBW := bw(x.Trace(), x.PayloadBytes())
	if !(copyBW > 2*xposeBW && copyBW > 2*iaBW) {
		t.Errorf("COPY %.0f MB/s should far exceed XPOSE %.0f and IA %.0f", copyBW, xposeBW, iaBW)
	}
}
