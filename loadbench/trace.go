package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call across a layer boundary: a client call, or a
// replayed call into one of the program's packages. Spans of one
// request share Req; Parent names the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	// Ops is how many of the workload's ops the span stands for: one
	// query, the lines a sweep answered, the scenarios of a capacity
	// query.
	Ops   int   `json:"ops"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced passes run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 when untraced).
func (t *tracer) add(name string, parent, req int64, ops int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, Ops: ops,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// perOp returns, for every span with the given name that stands for
// at least one op, its duration divided by its ops. With self set, the
// durations of the span's children are subtracted first: a layer's
// self time. A replayed child may run after its parent rather than
// inside it (see layers.go); subtracting durations instead of covered
// intervals treats both cases alike.
func (t *tracer) perOp(name string, self bool) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]time.Duration)
	if self {
		for _, s := range t.spans {
			if s.Parent != 0 {
				child[s.Parent] += s.dur()
			}
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Ops > 0 {
			out = append(out, max(0, s.dur()-child[s.ID])/time.Duration(s.Ops))
		}
	}
	return out
}

// write stores the spans as JSON lines, in start order.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	slices.SortStableFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
