package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"sx4bench/internal/fleet"
	"sx4bench/internal/serve"
)

// The checks below run after the timed loop, outside its clock. Each
// returns the problems it found; any problem fails the run.

// checkBooks verifies the daemon's admission books balance once idle:
// every execution that asked for a slot was admitted, shed, timed out
// or cancelled, and every admitted one completed.
func checkBooks(st serve.Stats) []string {
	var out []string
	if got := st.Admitted + st.Shed + st.QueueTimeouts + st.QueueCancelled; st.AdmitRequests != got {
		out = append(out, fmt.Sprintf("books: admit_requests %d != admitted+shed+queue_timeouts+queue_cancelled %d", st.AdmitRequests, got))
	}
	if st.Admitted != st.Completed || st.InFlight != 0 || st.QueueDepth != 0 {
		out = append(out, fmt.Sprintf("books: idle daemon has admitted %d, completed %d, in flight %d, queued %d",
			st.Admitted, st.Completed, st.InFlight, st.QueueDepth))
	}
	return out
}

// idleWait bounds how long the books check waits for the daemon to go
// idle: a request the loop abandoned at its deadline may still be
// executing.
const idleWait = 10 * time.Second

// idleStats polls /v1/stats until nothing is in flight or queued, or
// idleWait has passed, and returns the last snapshot.
func (l *loop) idleStats(ctx context.Context) (serve.Stats, error) {
	deadline := time.Now().Add(idleWait)
	for {
		st, err := l.c.Stats(ctx)
		if err != nil || (st.InFlight == 0 && st.QueueDepth == 0) || time.Now().After(deadline) {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// replayRun answers a run query in process, on a fresh server, the way
// the daemon's handler does.
func replayRun(req serve.RunRequest) ([]byte, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	serve.New(serve.Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(data)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process /v1/run answered %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// sweepSamples is how many answered sweep lines are asked again.
const sweepSamples = 8

// checkSweepSample asks a seeded sample of the answered sweep lines
// again through /v1/run: each must come back a byte-identical cache
// hit, and equal the in-process replay of the same query.
func (l *loop) checkSweepSample(ctx context.Context, answered []sweptLine) []string {
	if len(answered) == 0 {
		return []string{"sweep-cold: no line was answered"}
	}
	r := rng(l.seed, streamSample)
	var out []string
	for range sweepSamples {
		s := answered[r.IntN(len(answered))]
		res, err := l.c.Run(ctx, s.req)
		if err != nil {
			out = append(out, fmt.Sprintf("sweep-cold: asking a swept query again: %v", err))
			continue
		}
		if res.CacheState != "hit" || !bytes.Equal(res.Body, s.body) {
			out = append(out, fmt.Sprintf("sweep-cold: swept query asked again answered %q, %d bytes, want a hit equal to its %d-byte sweep line",
				res.CacheState, len(res.Body), len(s.body)))
			continue
		}
		local, err := replayRun(s.req)
		if err != nil {
			out = append(out, "sweep-cold: "+err.Error())
			continue
		}
		if !bytes.Equal(local, s.body) {
			out = append(out, "sweep-cold: in-process answer differs from the daemon's")
		}
	}
	return out
}

// sweptLine is one correctly answered sweep line, with its newline
// restored so it compares equal to a /v1/run body.
type sweptLine struct {
	req  serve.RunRequest
	body []byte
}

// checkCapacityCall asks the first answered capacity query of the run
// again (it must be a byte-identical hit) and recomputes it in process
// with the fleet engine, which must agree with the daemon's summary.
func (l *loop) checkCapacityCall(ctx context.Context, first capacityCall) []string {
	if first.body == nil {
		return []string{"capacity: no query was answered"}
	}
	var out []string
	body, state, err := l.postCapacity(ctx, first.req)
	switch {
	case err != nil:
		out = append(out, fmt.Sprintf("capacity: asking again: %v", err))
	case state != "hit" || !bytes.Equal(body, first.body):
		out = append(out, fmt.Sprintf("capacity: repeat answered %q, %d bytes, want a hit equal to the first %d bytes", state, len(body), len(first.body)))
	}
	var got serve.CapacityResponse
	if err := json.Unmarshal(first.body, &got); err != nil {
		return append(out, fmt.Sprintf("capacity: undecodable answer: %v", err))
	}
	cfg, err := capacityConfig(first.req)
	if err != nil {
		return append(out, fmt.Sprintf("capacity: %v", err))
	}
	var e fleet.Engine
	rep, err := e.MonteCarlo(cfg, 0)
	if err != nil {
		return append(out, fmt.Sprintf("capacity: in-process Monte Carlo: %v", err))
	}
	if got.Checksum != fmt.Sprintf("%016x", rep.Checksum) || got.Jobs != rep.Jobs || len(got.Mixes) != len(rep.Mixes) {
		return append(out, fmt.Sprintf("capacity: daemon checksum %s jobs %d, in-process %016x jobs %d", got.Checksum, got.Jobs, rep.Checksum, rep.Jobs))
	}
	for i, m := range rep.Mixes {
		g := got.Mixes[i]
		if g.Mix != m.Mix || g.Jobs != m.Jobs || g.P50Seconds != m.P50 || g.P99Seconds != m.P99 || g.Lost != m.Lost || g.Failed != m.Failed {
			out = append(out, fmt.Sprintf("capacity: mix %s differs from the in-process Monte Carlo", m.Mix))
		}
	}
	return out
}
