package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// failedLatency is the latency charged to a request that failed or was
// refused: it missed any latency limit a caller could have had.
const failedLatency = 10 * time.Second

// reqResult is one request, with times as offsets from the phase start.
// In an open loop due is when the schedule said to send it; in a closed
// loop due equals sent.
type reqResult struct {
	due, sent, done time.Duration
	status          int // 0 on a transport error
	worker          int
	gen             int64 // registry generation that answered (when parsed)
}

func (r reqResult) ok() bool { return r.status == http.StatusOK }

// latency is the time from due to last byte, the wait a caller sees.
func (r reqResult) latency() time.Duration {
	if !r.ok() {
		return max(r.done-r.due, failedLatency)
	}
	return r.done - r.due
}

// loader sends request bodies to one URL over at most conns connections,
// one worker goroutine per connection.
type loader struct {
	client   *http.Client
	url      string
	ctype    string
	bodies   [][]byte
	conns    int
	parseGen bool // read the first response line's "generation" field
}

func newLoader(url, ctype string, bodies [][]byte, conns int) *loader {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loader{
		client: &http.Client{Transport: tr, Timeout: failedLatency},
		url:    url, ctype: ctype, bodies: bodies, conns: conns,
	}
}

func (ld *loader) close() { ld.client.CloseIdleConnections() }

// do sends body i and fills the result's sent, done, status and gen.
func (ld *loader) do(t0 time.Time, i int, buf *bytes.Buffer, r *reqResult) {
	req, err := http.NewRequest(http.MethodPost, ld.url, bytes.NewReader(ld.bodies[i%len(ld.bodies)]))
	if err != nil {
		panic(err) // the URL is built by wanbench itself
	}
	req.Header.Set("Content-Type", ld.ctype)
	r.sent = time.Since(t0)
	resp, err := ld.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = io.Copy(buf, resp.Body)
		resp.Body.Close()
		if err == nil {
			r.status = resp.StatusCode
		}
	}
	r.done = time.Since(t0)
	if ld.parseGen && r.ok() {
		r.gen = parseGeneration(buf.Bytes())
	}
}

// parseGeneration extracts the "generation" field of the first response
// line, or -1 when it is missing.
func parseGeneration(b []byte) int64 {
	const key = `"generation":`
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return -1
	}
	j := i + len(key)
	k := j
	for k < len(b) && b[k] >= '0' && b[k] <= '9' {
		k++
	}
	g, err := strconv.ParseInt(string(b[j:k]), 10, 64)
	if err != nil {
		return -1
	}
	return g
}

// closedLoop runs conns synchronous callers for d: each sends its next
// request only once the previous one has completed.
func (ld *loader) closedLoop(d time.Duration) []reqResult {
	t0 := time.Now()
	per := make([][]reqResult, ld.conns)
	var wg sync.WaitGroup
	for w := 0; w < ld.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := w; time.Since(t0) < d; i += ld.conns {
				r := reqResult{worker: w}
				ld.do(t0, i, &buf, &r)
				r.due = r.sent
				per[w] = append(per[w], r)
			}
		}(w)
	}
	wg.Wait()
	return merge(per)
}

// openLoop sends requests on a fixed schedule of rate per second, from
// the start until maxD has passed or stop is closed, whichever is first.
// The schedule is absolute: a late wake-up delays sending but never
// shifts later due times. Each request is timed from
// its due time, so a stall is charged to every request queued behind it.
func (ld *loader) openLoop(rate float64, maxD time.Duration, stop <-chan struct{}) []reqResult {
	period := time.Duration(float64(time.Second) / rate)
	// Sized for two seconds of schedule: the dispatcher only blocks once
	// the workers are that far behind, and the due time it carries keeps
	// the accounting right even then.
	jobs := make(chan time.Duration, int(2*rate)+1)
	t0 := time.Now()
	per := make([][]reqResult, ld.conns)
	var wg sync.WaitGroup
	for w := 0; w < ld.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			n := w
			for due := range jobs {
				r := reqResult{due: due, worker: w}
				ld.do(t0, n, &buf, &r)
				n += ld.conns
				per[w] = append(per[w], r)
			}
		}(w)
	}
	dispatch(t0, period, maxD, stop, jobs)
	close(jobs)
	wg.Wait()
	return merge(per)
}

// dispatch sends each due time on jobs once it has passed. time.Sleep
// wakes up to a millisecond late when the process is idle (the runtime's
// poller sleeps in whole milliseconds), which at these rates would turn
// the schedule into bursts; so the dispatcher owns an OS thread with a
// 1 µs timer slack and sleeps in nanosleep, which wakes within a few
// microseconds of the due time.
func dispatch(t0 time.Time, period, maxD time.Duration, stop <-chan struct{}, jobs chan<- time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // best effort: default slack is 50 µs
	for i := 0; ; i++ {
		due := time.Duration(i) * period
		if due >= maxD {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
		if wait := due - time.Since(t0); wait > 0 {
			ts := syscall.NsecToTimespec(wait.Nanoseconds())
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		jobs <- due
	}
}

func merge(per [][]reqResult) []reqResult {
	var out []reqResult
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// loadSummary is what one load phase measured.
type loadSummary struct {
	sent, failed, status5xx int
	latMS, lateMS, svcMS    []float64 // per request
	windowP50               []float64 // per window of due time, ms
	rowsPerS                []float64 // per window of completion time
}

// summarize reduces a phase's results, cutting the phase into windows of
// length win for the per-window samples the reported medians come from.
func summarize(res []reqResult, rowsPer int, win time.Duration) loadSummary {
	var s loadSummary
	byDue := map[int][]float64{}
	rowsByDone := map[int]int{}
	last := 0
	for _, r := range res {
		s.sent++
		if !r.ok() {
			s.failed++
			if r.status >= 500 {
				s.status5xx++
			}
		} else {
			w := int(r.done / win)
			rowsByDone[w] += rowsPer
			last = max(last, w)
		}
		lat := float64(r.latency()) / float64(time.Millisecond)
		s.latMS = append(s.latMS, lat)
		s.lateMS = append(s.lateMS, float64(r.sent-r.due)/float64(time.Millisecond))
		s.svcMS = append(s.svcMS, float64(r.done-r.sent)/float64(time.Millisecond))
		w := int(r.due / win)
		byDue[w] = append(byDue[w], lat)
	}
	for w := 0; ; w++ {
		lats, ok := byDue[w]
		if !ok {
			break
		}
		s.windowP50 = append(s.windowP50, percentile(lats, 50))
	}
	// The last completion window is partial; leave it out of the rate.
	for w := 0; w < last; w++ {
		s.rowsPerS = append(s.rowsPerS, float64(rowsByDone[w])/win.Seconds())
	}
	return s
}
