package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"sx4bench/internal/ncar"
)

// responseEncoder appends a RunResponse's wire bytes directly, member
// by member, without building the RunResponse or copying any metrics
// map. The bytes are exactly json.Marshal(RunResponse) plus '\n' (the
// differential test in encode_test.go pins this): fields in struct
// order with the same omitempty rules, metrics keys sorted, floats in
// encoding/json's format and strings escaped the way json.Marshal
// escapes them. A non-finite number is the same error json.Marshal
// returns, and stops the encoding.
//
// The encoding happens in a pooled scratch buffer and finish returns
// an exact-size copy: the body lives on in the response cache, so any
// spare capacity would be retained memory for the life of the entry.
type responseEncoder struct {
	scratch *[]byte
	b       []byte
	n       int // results appended so far
	err     error
}

// metric is one key/value pair of a result's metrics object.
type metric struct {
	key string
	val float64
}

var encodeBuffers = sync.Pool{New: func() any { return new([]byte) }}

// start opens the response object: machine, cpus and, when nonzero,
// fault_seed, up to the results array.
func (e *responseEncoder) start(machine string, cpus int, faultSeed int64) {
	e.scratch = encodeBuffers.Get().(*[]byte)
	e.b = (*e.scratch)[:0]
	e.b = append(e.b, `{"machine":`...)
	e.b = appendString(e.b, machine)
	e.b = append(e.b, `,"cpus":`...)
	e.b = strconv.AppendInt(e.b, int64(cpus), 10)
	if faultSeed != 0 {
		e.b = append(e.b, `,"fault_seed":`...)
		e.b = strconv.AppendInt(e.b, faultSeed, 10)
	}
	e.b = append(e.b, `,"results":`...)
}

// result appends one member as its benchjson record. extra holds
// metrics added on top of the measurement's own (the resilient
// runner's attempts and finish time); an extra key replaces a
// measurement key of the same name, as a map assignment would.
func (e *responseEncoder) result(m ncar.Measurement, extra ...metric) {
	if e.err != nil {
		return
	}
	if e.n == 0 {
		e.b = append(e.b, '[')
	} else {
		e.b = append(e.b, ',')
	}
	e.n++
	e.b = append(e.b, `{"name":`...)
	e.b = appendString(e.b, m.Benchmark)
	e.b = append(e.b, `,"iterations":`...)
	e.b = strconv.AppendInt(e.b, int64(m.KTries), 10)
	e.b = append(e.b, `,"ns_per_op":`...)
	e.float(m.Seconds * 1e9)

	var buf [8]metric
	kv := buf[:0]
	for k, v := range m.Metrics {
		kv = append(kv, metric{k, v})
	}
	for _, x := range extra {
		if i := slices.IndexFunc(kv, func(y metric) bool { return y.key == x.key }); i >= 0 {
			kv[i].val = x.val
		} else {
			kv = append(kv, x)
		}
	}
	if len(kv) > 0 {
		slices.SortFunc(kv, func(a, b metric) int { return strings.Compare(a.key, b.key) })
		e.b = append(e.b, `,"metrics":`...)
		for i, x := range kv {
			if i == 0 {
				e.b = append(e.b, '{')
			} else {
				e.b = append(e.b, ',')
			}
			e.b = appendString(e.b, x.key)
			e.b = append(e.b, ':')
			e.float(x.val)
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, '}')
}

// finish closes the response (an empty result list encodes as null,
// like a nil slice), returns the bytes with their trailing newline as
// an exact-size copy, and hands the scratch buffer back to the pool.
func (e *responseEncoder) finish() ([]byte, error) {
	defer func() {
		*e.scratch = e.b[:0]
		encodeBuffers.Put(e.scratch)
	}()
	if e.err != nil {
		return nil, e.err
	}
	if e.n == 0 {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}', '\n')
	return bytes.Clone(e.b), nil
}

// float appends f the way encoding/json encodes a float64: 'f' format,
// switching to 'e' below 1e-6 and at or above 1e21 in magnitude, with
// a two-digit negative exponent trimmed ("e-09" becomes "e-9").
func (e *responseEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, e.err = json.Marshal(f)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// appendString appends s as a JSON string. Printable ASCII that
// json.Marshal leaves alone is copied as is; anything else (quotes,
// backslashes, HTML-sensitive bytes, control bytes, non-ASCII) goes
// through json.Marshal, so the escaping rules stay encoding/json's own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
