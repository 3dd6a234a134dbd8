package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// MaxBatchBody caps a /predict/batch request body.
const MaxBatchBody = 8 << 20

// route is everything that differs between the two HTTP front doors.
// The rest — body read, record decode, edge resolution, admission, wait,
// respond and shed — is one job path, so /predict answers a one-row job
// exactly as /predict/batch answers an n-row one.
type route struct {
	requests *obs.Counter // serve.requests or serve.batch_requests
	shed     string       // shed counter family: serve.shed or serve.batch_shed
	maxBody  int          // MaxRequestBody or MaxBatchBody
	ndjson   bool         // /predict/batch framing (see serveJob)
}

// serveJob is the front door behind both routes. A /predict body is one
// JSON value — never split into lines, so a pretty-printed object is
// fine — answered as application/json. A /predict/batch body is NDJSON:
// each non-blank line is one request with the /predict schema, errors
// name the offending line, and the answer is one NDJSON line per row in
// input order (each byte-identical to /predict's body for that row) with
// an X-Rows header. Either way the request is ONE admission unit — one
// queue slot, one batcher wake — and all-or-nothing: every row is
// answered 200, or the request as a whole is 429 (Retry-After set) or
// 400.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, rt *route) {
	rt.requests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	if !s.ready.Load() || s.draining.Load() {
		s.shed(w, rt, "draining")
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	body, err := readBody(r.Body, *buf, rt.maxBody)
	*buf = body[:0]
	if err != nil {
		s.badRequest(w, fmt.Errorf("reading body: %w", err))
		return
	}

	snap := s.reg.Load()
	j, deadlineMS, err := s.decodeJob(body, snap, rt.ndjson)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	j.resolve(snap)
	if rt.ndjson {
		s.mBatchRows.Observe(float64(j.n))
	}
	j.enq = time.Now()

	// Admission: some shard either has room now or the request is shed.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if !s.admit(j) {
		j.free()
		s.shed(w, rt, "queue_full")
		return
	}
	s.mQueueDepth.Set(float64(s.queueLen()))

	// The end-to-end deadline: the tightest client deadline_ms when given
	// (capped by the server's own limit), RequestTimeout otherwise.
	wait := s.cfg.RequestTimeout
	if deadlineMS > 0 {
		if d := time.Duration(deadlineMS * float64(time.Millisecond)); d < wait {
			wait = d
		}
	}
	t := getTimer(wait)
	select {
	case <-j.done:
		putTimer(t, false)
		s.respond(w, rt, j)
		j.free()
	case <-t.C:
		putTimer(t, true)
		s.shed(w, rt, "deadline")
	case <-s.hardStop:
		putTimer(t, false)
		s.shed(w, rt, "drain_deadline")
	}
}

// decodeJob decodes a request body into a pooled job, one row per record
// (the whole body when ndjson is false, each non-blank line otherwise),
// and returns the tightest positive row deadline: the job completes as
// one unit.
func (s *Server) decodeJob(body []byte, snap *Registry, ndjson bool) (*job, float64, error) {
	n := 1
	if ndjson {
		// Count non-blank lines first so the job's slabs are sized once.
		n = 0
		for p := 0; p < len(body); {
			q := lineEnd(body, p)
			if !blankLine(body[p:q]) {
				n++
			}
			p = q + 1
		}
		if n == 0 {
			return nil, 0, fmt.Errorf("%w: empty batch", ErrBadRequest)
		}
		if n > s.cfg.MaxBatchRows {
			return nil, 0, fmt.Errorf("%w: %d rows exceeds max %d", ErrBadRequest, n, s.cfg.MaxBatchRows)
		}
	}
	j := newJob(n, len(snap.Features))
	deadlineMS := 0.0
	for i, p, line := 0, 0, 1; i < n; line++ {
		raw := body
		if ndjson {
			q := lineEnd(body, p)
			raw, p = body[p:q], q+1
			if blankLine(raw) {
				continue
			}
		}
		dl, err := decodeRecord(raw, snap, j, i)
		if err != nil {
			j.free()
			if ndjson {
				err = fmt.Errorf("line %d: %w", line, err)
			}
			return nil, 0, err
		}
		if dl > 0 && (deadlineMS == 0 || dl < deadlineMS) {
			deadlineMS = dl
		}
		i++
	}
	return j, deadlineMS, nil
}

// decodeRecord decodes one predict-request record into row i of j and
// returns its deadline_ms. The fast codec answers when it accepts; the
// encoding/json path (ParseRequest + Vectorize) is the fallback and the
// producer of every error message.
func decodeRecord(raw []byte, snap *Registry, j *job, i int) (float64, error) {
	nf := len(snap.Features)
	x := j.x[i*nf : (i+1)*nf]
	var fr fastReq
	if decodeFast(raw, snap, x, &fr) {
		// Intern src/dst out of the transient body buffer: a resolved
		// edge entry carries the canonical strings; only the global
		// fallback needs copies.
		if e := snap.lookupEntryB(fr.src, fr.dst); e.isGlobal {
			j.srcs[i], j.dsts[i] = string(fr.src), string(fr.dst)
		} else {
			j.srcs[i], j.dsts[i] = e.src, e.dst
		}
		return fr.deadline, nil
	}
	req, err := ParseRequest(raw)
	if err != nil {
		return 0, err
	}
	if err := snap.Vectorize(req.Features, x); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	j.srcs[i], j.dsts[i] = req.Src, req.Dst
	return req.DeadlineMS, nil
}

// respond writes a completed job's answer: one response line per row,
// encoded by the pooled encoder into one Write.
func (s *Server) respond(w http.ResponseWriter, rt *route, j *job) {
	switch {
	case j.err != nil:
		s.mPanics.Inc()
		s.cfg.Logf("serve: batch failure: %v", j.err)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "internal error"})
	case j.shed:
		s.shed(w, rt, "queue_wait")
	default:
		s.mPredictions.Add(int64(j.n))
		totalMS := float64(time.Since(j.enq)) / float64(time.Millisecond)
		s.mLatency.Observe(totalMS)
		buf := getBuf()
		b := *buf
		for i := 0; i < j.n; i++ {
			b = appendPredictResponse(b, j.out[i], j.ents[i].jlabel, j.gen, j.queueMS)
		}
		if rt.ndjson {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Rows", strconv.Itoa(j.n))
		} else {
			if e := j.ents[0]; !e.isGlobal {
				s.cfg.Metrics.Histogram(e.latKey, s.latBuckets).Observe(totalMS)
			}
			w.Header().Set("Content-Type", "application/json")
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
		*buf = b[:0]
		bufPool.Put(buf)
	}
}

// shed answers a request the daemon chose not to serve right now. Always
// 429 + Retry-After: the condition is transient (queue pressure, reload
// churn, drain) and the client should back off and retry — never a 5xx,
// which would look like failure to a health-checking load balancer. Each
// route counts under its own per-reason family, so operators can tell
// batch pressure from singleton pressure.
func (s *Server) shed(w http.ResponseWriter, rt *route, reason string) {
	s.cfg.Metrics.Counter(rt.shed + `{reason="` + reason + `"}`).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "overloaded: " + reason})
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.mBadRequests.Inc()
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

// lineEnd returns the index of the newline terminating the line starting
// at p (len(b) for the final unterminated line).
func lineEnd(b []byte, p int) int {
	if q := bytes.IndexByte(b[p:], '\n'); q >= 0 {
		return p + q
	}
	return len(b)
}

// blankLine reports whether a line holds only whitespace.
func blankLine(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}
