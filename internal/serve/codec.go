package serve

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/jsonwire"
)

// This file is the front door's zero-allocation request/response codec.
//
// Decode side: decodeFast is a hand-rolled scanner for the one fixed
// schema /predict speaks, fused with vectorization — feature values land
// directly in the job's positional row, no map, no reflection, no
// intermediate request struct. It is strict and fail-closed: on ANY
// shape it is not absolutely certain encoding/json would decode
// identically (escaped strings, duplicate keys, unknown keys or feature
// names, numbers off the strict JSON grammar, non-ASCII names) it
// abstains and the caller falls back to ParseRequest + Vectorize, which
// remains the semantic reference and the producer of every error
// message. The scanner therefore never rejects a request — it only
// accepts or abstains — and FuzzCodecDifferential pins that every
// accept agrees with the encoding/json path bit for bit.
//
// Encode side: appendPredictResponse builds the exact byte sequence
// json.NewEncoder(w).Encode(PredictResponse{...}) would emit — same
// float formatting and HTML-escaped strings (the jsonwire appenders
// replicate encoding/json's), same trailing newline — into a pooled
// buffer. TestResponseEncoderDifferential pins the equivalence.

// fastReq receives the non-feature fields of one fast-decoded request.
// src and dst alias the request body and must be interned (or copied)
// before the body buffer is recycled.
type fastReq struct {
	src, dst []byte
	deadline float64
}

// decodeFast scans one predict-request object into the positional
// vector x (len = len(reg.Features), zeroed here) and fr. Returns false
// to make the caller fall back to the encoding/json path.
func decodeFast(data []byte, reg *Registry, x []float64, fr *fastReq) bool {
	for i := range x {
		x[i] = 0
	}
	fr.src, fr.dst, fr.deadline = nil, nil, 0
	p := jsonwire.SkipWS(data, 0)
	if p >= len(data) || data[p] != '{' {
		return false
	}
	p = jsonwire.SkipWS(data, p+1)
	nfeat := 0
	var sawSrc, sawDst, sawFeat, sawDeadline bool
	for {
		if p >= len(data) {
			return false
		}
		if data[p] == '}' {
			p++
			break
		}
		if nfeat > 0 || sawSrc || sawDst || sawFeat || sawDeadline {
			if data[p] != ',' {
				return false
			}
			p = jsonwire.SkipWS(data, p+1)
		}
		key, np, ok := jsonwire.ScanPlainString(data, p)
		if !ok {
			return false
		}
		p = jsonwire.SkipWS(data, np)
		if p >= len(data) || data[p] != ':' {
			return false
		}
		p = jsonwire.SkipWS(data, p+1)
		switch string(key) {
		case "src":
			if sawSrc {
				return false
			}
			sawSrc = true
			if fr.src, p, ok = jsonwire.ScanPlainString(data, p); !ok {
				return false
			}
		case "dst":
			if sawDst {
				return false
			}
			sawDst = true
			if fr.dst, p, ok = jsonwire.ScanPlainString(data, p); !ok {
				return false
			}
		case "deadline_ms":
			if sawDeadline {
				return false
			}
			sawDeadline = true
			var v float64
			if v, p, ok = jsonwire.ScanNumber(data, p); !ok || v < 0 {
				return false
			}
			fr.deadline = v
		case "features":
			// A second "features" object would make encoding/json merge
			// maps; the scanner abstains rather than model that.
			if sawFeat {
				return false
			}
			sawFeat = true
			var n int
			if n, p, ok = scanFeatures(data, p, reg, x); !ok {
				return false
			}
			nfeat += n
		default:
			return false
		}
		p = jsonwire.SkipWS(data, p)
	}
	if jsonwire.SkipWS(data, p) != len(data) {
		return false // trailing bytes: the json path rejects, so abstain
	}
	return nfeat > 0
}

// scanFeatures scans the {"name": value, ...} object, writing each value
// at its registry column. Unknown names abstain (the json path turns
// them into the vectorizer's error); duplicate names last-win exactly
// like a JSON map.
func scanFeatures(d []byte, p int, reg *Registry, x []float64) (int, int, bool) {
	if p >= len(d) || d[p] != '{' {
		return 0, p, false
	}
	p = jsonwire.SkipWS(d, p+1)
	if p < len(d) && d[p] == '}' {
		return 0, p + 1, true
	}
	n := 0
	for {
		name, np, ok := jsonwire.ScanPlainString(d, p)
		if !ok {
			return n, np, false
		}
		idx, known := reg.nameIdx[string(name)]
		if !known {
			return n, np, false
		}
		p = jsonwire.SkipWS(d, np)
		if p >= len(d) || d[p] != ':' {
			return n, p, false
		}
		p = jsonwire.SkipWS(d, p+1)
		var v float64
		if v, p, ok = jsonwire.ScanNumber(d, p); !ok {
			return n, p, false
		}
		x[idx] = v
		n++
		p = jsonwire.SkipWS(d, p)
		if p >= len(d) {
			return n, p, false
		}
		switch d[p] {
		case ',':
			p = jsonwire.SkipWS(d, p+1)
		case '}':
			return n, p + 1, true
		default:
			return n, p, false
		}
	}
}

// ---- response encoding ----

// appendPredictResponse appends one PredictResponse line — byte for
// byte what writeJSON (json.Encoder) emits for the same values,
// trailing newline included. jlabel is the entry's pre-escaped model
// label.
func appendPredictResponse(b []byte, rate float64, jlabel []byte, gen int64, queueMS float64) []byte {
	b = append(b, `{"rate":`...)
	b = jsonwire.AppendFloat(b, rate)
	b = append(b, `,"model":`...)
	b = append(b, jlabel...)
	b = append(b, `,"generation":`...)
	b = strconv.AppendInt(b, gen, 10)
	b = append(b, `,"queue_ms":`...)
	b = jsonwire.AppendFloat(b, queueMS)
	return append(b, '}', '\n')
}

// ---- pooled buffers and timers ----

// bufPool recycles request-body and response buffers across requests.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { *b = (*b)[:0]; bufPool.Put(b) }

// readBody reads r into buf (reusing its capacity) up to limit bytes,
// failing once the limit is exceeded — io.ReadAll without the
// per-request allocation.
func readBody(r io.Reader, buf []byte, limit int) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, fmt.Errorf("body exceeds %d bytes", limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// timerPool recycles request-deadline timers. A timer is returned only
// after Stop + drain (getTimer Resets a quiescent timer), so the pool is
// safe under the pre-1.23 timer semantics this module's go directive
// selects.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops and drains t, then pools it. Pass fired=true from the
// select arm that consumed t.C.
func putTimer(t *time.Timer, fired bool) {
	if !fired && !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}
