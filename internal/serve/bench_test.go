package serve

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	"sx4bench/internal/ncar"
	"sx4bench/internal/target"
)

// The serve rungs of the run-path ladder: one /v1/sweep line on the
// miss path (decode, measure, encode, cache store) and one /v1/run
// answered from the response cache, both through ServeHTTP with no
// network in between. Run with
//
//	go test -run '^$' -bench 'ServeSweepMiss|ServeRunHit' -benchmem ./internal/serve

// warmDaemon returns a server whose targets have all answered the full
// suite once, so every lazy model table and trace is built and the
// timing memos are warm, as in a long-running daemon.
func warmDaemon(b *testing.B) *Server {
	b.Helper()
	s := New(Config{})
	for _, m := range target.All() {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", bytes.NewReader([]byte(`{"machine":"`+m+`"}`))))
		if rr.Code != http.StatusOK {
			b.Fatalf("warming %s: status %d %s", m, rr.Code, rr.Body)
		}
	}
	return s
}

// queryStream draws seeded run queries no earlier draw repeats: a
// registry machine, 1 to 64 CPUs, and three or more suite members in
// seeded order (a quarter of them the whole suite).
type queryStream struct {
	r        *rand.Rand
	machines []string
	names    []string
	seen     map[string]bool
}

func newQueryStream(seed uint64) *queryStream {
	q := &queryStream{r: rand.New(rand.NewPCG(seed, 15)), machines: target.All(), seen: make(map[string]bool)}
	for _, b := range ncar.Suite() {
		q.names = append(q.names, b.Name)
	}
	return q
}

func (q *queryStream) next() []byte {
	for {
		req := RunRequest{Machine: q.machines[q.r.IntN(len(q.machines))], CPUs: 1 + q.r.IntN(64)}
		k := len(q.names)
		if q.r.IntN(4) != 0 {
			k = 3 + q.r.IntN(len(q.names)-3)
		}
		for _, i := range q.r.Perm(len(q.names))[:k] {
			req.Benchmarks = append(req.Benchmarks, q.names[i])
		}
		line, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		if !q.seen[string(line)] {
			q.seen[string(line)] = true
			return line
		}
	}
}

// BenchmarkServeSweepMiss times /v1/sweep batches of never-seen
// queries: every line decodes, measures on a warm timing memo, encodes
// and fills a response-cache entry. One op is one batch; us/line is
// the per-line cost the sweep-cold workload pays.
func BenchmarkServeSweepMiss(b *testing.B) {
	const lines = 256
	s := warmDaemon(b)
	q := newQueryStream(1)
	bodies := make([][]byte, b.N)
	for i := range bodies {
		var buf bytes.Buffer
		for range lines {
			buf.Write(q.next())
			buf.WriteByte('\n')
		}
		bodies[i] = buf.Bytes()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(bodies[i])))
		if rr.Code != http.StatusOK || bytes.Count(rr.Body.Bytes(), []byte("\n")) != lines {
			b.Fatalf("sweep: status %d, %d lines", rr.Code, bytes.Count(rr.Body.Bytes(), []byte("\n")))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*lines), "us/line")
}

// BenchmarkServeRunHit times /v1/run queries answered from the
// response cache: a warmed hot set of distinct queries, cycled. One op
// is one request.
func BenchmarkServeRunHit(b *testing.B) {
	const hot = 64
	s := warmDaemon(b)
	q := newQueryStream(2)
	set := make([][]byte, hot)
	for i := range set {
		set[i] = q.next()
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", bytes.NewReader(set[i])))
		if rr.Code != http.StatusOK {
			b.Fatalf("warming hot set: status %d %s", rr.Code, rr.Body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/run", bytes.NewReader(set[i%hot])))
		if rr.Header().Get("X-Sx4d-Cache") != "hit" {
			b.Fatalf("hot query answered %q, want hit", rr.Header().Get("X-Sx4d-Cache"))
		}
	}
}
