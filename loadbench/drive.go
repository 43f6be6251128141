package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sx4bench/internal/client"
	"sx4bench/internal/serve"
	"sx4bench/internal/target"
)

// tally is what one round of the closed loop did, or a whole pass once
// merged: attempts, successes, the latency of every success, and every
// wrong answer seen.
type tally struct {
	attempted, ok int64
	elapsed       time.Duration // wall time of the round(s)
	lat           []time.Duration
	// Sweep accounting: lines sent, and answer lines received of any
	// kind. The difference is what the daemon silently dropped.
	sent, answered int64
	// swept keeps the first correctly answered sweep lines for the
	// re-ask check.
	swept []sweptLine
	wrong []string
}

// sweptKept bounds the answered sweep lines one connection keeps in a
// round.
const sweptKept = 64

// maxWrongKept bounds how many wrong answers a tally describes; all of
// them still fail the run.
const maxWrongKept = 8

func (t *tally) wrongf(format string, args ...any) {
	if len(t.wrong) < maxWrongKept {
		t.wrong = append(t.wrong, fmt.Sprintf(format, args...))
	} else if len(t.wrong) == maxWrongKept {
		t.wrong = append(t.wrong, "... more wrong answers")
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.elapsed += o.elapsed
	t.lat = append(t.lat, o.lat...)
	t.sent += o.sent
	t.answered += o.answered
	t.swept = append(t.swept, o.swept...)
	for _, w := range o.wrong {
		t.wrongf("%s", w)
	}
}

// loop is the generator's end of the closed loop: the daemon's
// address, the HTTP client every connection shares, the run's seed
// and the tracer (nil when untraced).
type loop struct {
	url  string
	hc   *http.Client
	c    *client.Client
	seed int64
	tr   *tracer
	reqs atomic.Int64 // request ids for spans
}

func newLoop(url string, conns int, seed int64, tr *tracer) *loop {
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	return &loop{
		url:  url,
		hc:   hc,
		c:    client.New(client.Config{BaseURL: url, HTTP: hc, MaxRetries: -1}),
		seed: seed,
		tr:   tr,
	}
}

func (l *loop) close() { l.hc.CloseIdleConnections() }

// parallel runs fn once per connection and merges the tallies.
func parallel(conns int, fn func(conn int) tally) tally {
	out := make([]tally, conns)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fn(i)
		}()
	}
	wg.Wait()
	var t tally
	for _, o := range out {
		t.merge(o)
	}
	return t
}

// roundFunc runs one round of a workload's closed loop: until ops
// ops succeeded, the round's attempt cap was reached or ctx ended.
// Generator state carries over from round to round.
type roundFunc func(ctx context.Context, ops int) tally

// hotRounds sends Zipf-picked hot queries over conns connections, each
// connection an equal share of a round. Every answer must equal the
// body the same query got during warm-up.
func (l *loop) hotRounds(hot []serve.RunRequest, bodies [][]byte, conns int) roundFunc {
	zs := make([]*zipf, conns)
	for i := range zs {
		zs[i] = newZipf(rng(l.seed, streamHotPick<<8|uint64(i)), len(hot), zipfExponent)
	}
	return func(ctx context.Context, ops int) tally {
		return parallel(conns, func(conn int) tally {
			want := int64(max(1, ops/conns))
			var t tally
			for t.ok < want && t.attempted < 2*want && ctx.Err() == nil {
				k := zs[conn].next()
				t.attempted++
				start := time.Now()
				res, err := l.c.Run(ctx, hot[k])
				end := time.Now()
				l.tr.add("client.run", 0, l.reqs.Add(1), 1, start, end)
				if err != nil {
					if garbled(err) {
						t.wrongf("run-hot: query %d: %v", k, err)
					}
					continue
				}
				if !bytes.Equal(res.Body, bodies[k]) {
					t.wrongf("run-hot: query %d answered %d bytes unlike its warm-up body", k, len(res.Body))
					continue
				}
				t.ok++
				t.lat = append(t.lat, end.Sub(start))
			}
			return t
		})
	}
}

// garbled reports whether a client error means the daemon answered 200
// with a body that is not a run response: a wrong answer, not a
// failed op.
func garbled(err error) bool {
	var syntax *json.SyntaxError
	var typ *json.UnmarshalTypeError
	return errors.As(err, &syntax) || errors.As(err, &typ)
}

// sweepAttemptCap bounds the lines one sweep-cold pass may send per
// successful line wanted, so a daemon that answers nothing still ends.
const sweepAttemptCap = 20

// sweepRounds sends cold NDJSON sweeps until a round's ops lines were
// answered correctly. A line's latency is the gap since the previous
// line of its sweep arrived, or since the send for the first line.
func (l *loop) sweepRounds(cs *coldStream, titles map[string]string, conns int) roundFunc {
	return func(ctx context.Context, ops int) tally {
		var okTotal, sentTotal atomic.Int64
		return parallel(conns, func(int) tally {
			var t tally
			var lines [][]byte
			var gaps []time.Duration
			for okTotal.Load() < int64(ops) && sentTotal.Load() < int64(sweepAttemptCap*ops) && ctx.Err() == nil {
				batch := cs.nextBatch()
				sentTotal.Add(int64(len(batch)))
				t.sent += int64(len(batch))
				t.attempted += int64(len(batch))
				okBefore := t.ok
				lines = lines[:0]
				gaps = gaps[:0]
				start := time.Now()
				last := start
				// The callback only copies and timestamps, so a line's gap
				// is not stretched by checking the line before it. Sweep's
				// nil error does not mean every line was answered; the
				// lines received are counted instead.
				_ = l.c.Sweep(ctx, batch, func(i int, line []byte) error {
					now := time.Now()
					gaps = append(gaps, now.Sub(last))
					last = now
					lines = append(lines, slices.Clone(line))
					return nil
				})
				end := time.Now()
				for i, line := range lines {
					if i >= len(batch) {
						// The daemon ends some sweeps with an error line
						// past the last query; it answers nothing.
						if ok, why := checkSweepLine(line, serve.RunRequest{}, titles); ok || why != "" {
							t.wrongf("sweep-cold: answer line %d for a %d-line sweep is not an error: %.80s", i, len(batch), line)
						}
						continue
					}
					t.answered++
					ok, why := checkSweepLine(line, batch[i], titles)
					if why != "" {
						t.wrongf("sweep-cold: line %d: %s", i, why)
					}
					if !ok {
						continue
					}
					t.ok++
					okTotal.Add(1)
					t.lat = append(t.lat, gaps[i])
					if len(t.swept) < sweptKept {
						t.swept = append(t.swept, sweptLine{batch[i], append(line, '\n')})
					}
				}
				l.tr.add("client.sweep", 0, l.reqs.Add(1), int(t.ok-okBefore), start, end)
			}
			return t
		})
	}
}

// sweepAnswer is the part of a sweep answer line the gate checks.
type sweepAnswer struct {
	Error   *string `json:"error"`
	Machine string  `json:"machine"`
	CPUs    int     `json:"cpus"`
	Results []struct {
		Name string `json:"name"`
	} `json:"results"`
}

// checkSweepLine reports whether an answer line is a correct answer to
// req. An {"error": ...} line is a failed op, not a wrong answer; a
// line that answers some other query is wrong (why is set).
func checkSweepLine(line []byte, req serve.RunRequest, titles map[string]string) (ok bool, why string) {
	var a sweepAnswer
	if err := json.Unmarshal(line, &a); err != nil {
		return false, fmt.Sprintf("undecodable answer: %v", err)
	}
	if a.Error != nil {
		return false, ""
	}
	c := req.Canonical()
	if want := titles[c.Machine]; a.Machine != want {
		return false, fmt.Sprintf("machine %q, want %q", a.Machine, want)
	}
	if a.CPUs != c.CPUs {
		return false, fmt.Sprintf("cpus %d, want %d", a.CPUs, c.CPUs)
	}
	names := make([]string, len(a.Results))
	for i, r := range a.Results {
		names[i] = r.Name
	}
	if !slices.Equal(names, c.Benchmarks) {
		return false, fmt.Sprintf("members %v, want %v", names, c.Benchmarks)
	}
	return true, ""
}

// machineTitles maps registry names to the titles answers carry.
func machineTitles() (map[string]string, error) {
	out := make(map[string]string)
	for _, name := range target.All() {
		tgt, err := target.Lookup(name)
		if err != nil {
			return nil, err
		}
		out[name] = tgt.Name()
	}
	return out, nil
}

// capacityCall is one answered capacity request, kept for the checks
// that follow the timed loop.
type capacityCall struct {
	req  serve.CapacityRequest
	body []byte
}

// capacityRounds sends capacity rounds over one connection until a
// round's ops scenarios were answered, keeping the first answer in
// first for the checks after the loop. A scenario's latency is its
// request's time divided by the scenarios the request asked for.
func (l *loop) capacityRounds(first *capacityCall) roundFunc {
	r := rng(l.seed, streamCapacity)
	var pending []serve.CapacityRequest
	return func(ctx context.Context, ops int) tally {
		var t tally
		for t.ok < int64(ops) && t.attempted < int64(2*ops) && ctx.Err() == nil {
			if len(pending) == 0 {
				pending = capacityRound(r)
			}
			req := pending[0]
			pending = pending[1:]
			n := int64(req.Scenarios)
			t.attempted += n
			start := time.Now()
			body, _, err := l.postCapacity(ctx, req)
			end := time.Now()
			l.tr.add("client.capacity", 0, l.reqs.Add(1), int(n), start, end)
			if err != nil {
				continue
			}
			if why := checkCapacity(body, req); why != "" {
				t.wrongf("capacity: %s: %s", req.Fleet, why)
				continue
			}
			t.ok += n
			per := end.Sub(start) / time.Duration(n)
			for range n {
				t.lat = append(t.lat, per)
			}
			if first.body == nil {
				*first = capacityCall{req, body}
			}
		}
		return t
	}
}

// postCapacity answers one capacity query. internal/client has no
// capacity call, so this speaks the endpoint directly on the same
// transport, retries off like the client's.
func (l *loop) postCapacity(ctx context.Context, req serve.CapacityRequest) (body []byte, cacheState string, err error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url+"/v1/capacity", bytes.NewReader(data))
	if err != nil {
		return nil, "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := l.hc.Do(hreq)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("capacity answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Sx4d-Cache"), nil
}

// checkCapacity verifies an answer matches its request and lost no job
// in any mix.
func checkCapacity(body []byte, req serve.CapacityRequest) string {
	var resp serve.CapacityResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Sprintf("undecodable answer: %v", err)
	}
	c := req.Canonical()
	if resp.Fleet != c.Fleet || resp.Scenarios != c.Scenarios || resp.Seed != c.Seed {
		return fmt.Sprintf("answered fleet %q x%d seed %d", resp.Fleet, resp.Scenarios, resp.Seed)
	}
	if len(resp.Mixes) == 0 {
		return "no mixes in the answer"
	}
	for _, m := range resp.Mixes {
		if m.Lost != 0 {
			return fmt.Sprintf("mix %s lost %d jobs", m.Mix, m.Lost)
		}
	}
	return ""
}
