package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	"repro/internal/stream"
)

// The refresh workload's fixed cadence: the log grows by one record every
// 1/recordRate seconds, `wanperf stream` retrains every refreshEvery
// records (its default), and reads run at half the serve-batch rate.
const (
	recordRate   = 1000
	refreshEvery = 512
	readRate     = batchRate / 2
)

// decisionLine is one refresh decision `wanperf stream` printed, stamped
// with when wanbench read it.
type decisionLine struct {
	seq, rows, gen int
	action         string
	at             time.Time
}

var decisionRE = regexp.MustCompile(`^refresh (\d+): (\S+) \((\d+) rows(?:, generation (\d+))?`)

// refreshRig is one set-up of the refresh workload: a growing CSV log,
// `wanperf stream` tailing it, and `wanperf serve -watch` on the registry
// the stream promotes into.
type refreshRig struct {
	log    *os.File
	stream *child
	serve  *daemon

	mu        sync.Mutex
	decisions []decisionLine
}

func (r *refreshRig) decided() []decisionLine {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]decisionLine(nil), r.decisions...)
}

// waitDecisions waits until n decisions have been printed.
func (r *refreshRig) waitDecisions(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for len(r.decided()) < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("wanperf stream made %d of %d refresh decisions within %v:\n%s",
				len(r.decided()), n, timeout, r.stream.stderrTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// stop ends both processes.
func (r *refreshRig) stop() error {
	var err error
	if r.serve != nil {
		err = r.serve.stop(10 * time.Second)
	}
	if r.stream != nil {
		if serr := r.stream.stop(10 * time.Second); err == nil {
			err = serr
		}
	}
	if cerr := r.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// setupRefresh writes a log of the first refreshEvery records, starts the
// stream on it, waits for the bootstrap registry and boots the daemon on
// it. Writing before the stream starts keeps its first poll from racing
// the write, which made set-up time bimodal.
func setupRefresh(rc *runConfig, dir string, head []byte) (*refreshRig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logPath, regPath := filepath.Join(dir, "log.csv"), filepath.Join(dir, "registry.json")
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	r := &refreshRig{log: f}
	if _, err := f.Write(head); err != nil {
		f.Close()
		return nil, err
	}
	r.stream, err = startChild(exec.Command(rc.wanperf, "stream", "-in", logPath, "-registry", regPath, "-poll", "20ms"),
		func(line string, at time.Time) {
			m := decisionRE.FindStringSubmatch(line)
			if m == nil {
				return
			}
			d := decisionLine{action: m[2], at: at}
			d.seq, _ = strconv.Atoi(m[1])
			d.rows, _ = strconv.Atoi(m[3])
			d.gen, _ = strconv.Atoi(m[4])
			if d.action == "REJECTED" {
				d.action = "reject"
			}
			r.mu.Lock()
			r.decisions = append(r.decisions, d)
			r.mu.Unlock()
		}, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := r.waitDecisions(1, 60*time.Second); err != nil {
		_ = r.stop()
		return nil, err
	}
	if r.serve, err = startServe(rc.wanperf, regPath, "-watch", "50ms"); err != nil {
		_ = r.stop()
		return nil, err
	}
	return r, nil
}

// runRefresh measures how fresh the served model stays while the log
// grows: per promotion, the time from appending the record that triggered
// the refresh to the first read the new generation answered.
func runRefresh(rc *runConfig) (*outcome, error) {
	out := newOutcome()
	pl, edges, layers, err := servingInputs(rc)
	if err != nil {
		return nil, err
	}
	rows, err := makeRows(pl, edgeSet(edges), rc.seed)
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := pl.Log.WriteCSV(&csv); err != nil {
		return nil, err
	}
	// ends[i] is the byte offset just past record line i-1; line 0 is the
	// header, so ends[0] ends the header.
	var ends []int
	for i, c := range csv.Bytes() {
		if c == '\n' {
			ends = append(ends, i+1)
		}
	}
	total := refreshEvery + int(recordRate*rc.seconds.Seconds())
	if total >= len(ends) {
		return nil, fmt.Errorf("log has %d records, the run needs %d", len(ends)-1, total)
	}
	upTo := func(n int) []byte { return csv.Bytes()[:ends[n]] } // header + first n records

	var rig *refreshRig
	var setupS []float64
	for k := 0; k < rc.setups(); k++ {
		if rig != nil {
			if err := rig.stop(); err != nil {
				return nil, err
			}
		}
		sp := rc.tr.Start("setup")
		t0 := time.Now()
		if rig, err = setupRefresh(rc, filepath.Join(rc.work, "refresh-"+strconv.Itoa(k)), upTo(refreshEvery)); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sp.End()
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = rig.stop() // error path; the run's error is reported instead
		}
	}()

	ld := newLoader(rig.serve.base+"/predict/batch", "application/x-ndjson", batchBodies(rows), rc.nproc)
	ld.parseGen = true
	defer ld.close()
	sp := rc.tr.Start("load.refresh")
	t0 := time.Now()
	stopReads := make(chan struct{})
	var reads []reqResult
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		reads = ld.openLoop(readRate, time.Hour, stopReads)
	}()

	// Append one record at a time on the open-loop dispatcher's schedule.
	// Appending in ticks would lock the trigger records' phase to the
	// stream's 20 ms poll for a whole run and make freshness depend on
	// that phase; one record every millisecond lets the phase sweep across
	// refreshes instead.
	period := time.Second / recordRate
	dues := make(chan time.Duration, recordRate) // one second of schedule
	go func() {
		dispatch(t0, period, time.Duration(total-refreshEvery)*period, nil, dues)
		close(dues)
	}()
	appendAt := make([]time.Duration, total+1) // appendAt[i]: record i (1-based) written
	next := refreshEvery
	var appendErr error
	for range dues {
		if appendErr == nil {
			_, appendErr = rig.log.Write(csv.Bytes()[ends[next]:ends[next+1]])
		}
		next++
		appendAt[next] = time.Since(t0)
	}
	catchUp := appendErr
	if catchUp == nil {
		catchUp = rig.waitDecisions(total/refreshEvery, 60*time.Second)
	}
	finalGen := 0
	if catchUp == nil {
		for _, d := range rig.decided() {
			finalGen = max(finalGen, d.gen)
		}
		catchUp = waitGeneration(rig.serve.base, finalGen, 30*time.Second)
	}
	// Keep reading briefly so the last generation answers some reads.
	time.Sleep(100 * time.Millisecond)
	close(stopReads)
	<-readsDone
	sp.End()
	if catchUp != nil {
		return nil, catchUp
	}
	prom, err := scrape(rig.serve.base)
	if err != nil {
		return nil, err
	}
	rss, err := rig.serve.rss()
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := rig.stop(); err != nil {
		return nil, err
	}

	readSum := summarize(reads, batchRows, time.Second)
	out.Attempted, out.Failed = readSum.sent, readSum.failed
	decisions := rig.decided()
	var freshMS, turnaround []float64
	missing := 0
	for _, d := range decisions {
		trigger := d.seq * refreshEvery
		if trigger <= refreshEvery || trigger > total {
			continue
		}
		due := t0.Add(appendAt[trigger])
		turnaround = append(turnaround, float64(d.rows)/d.at.Sub(due).Seconds())
		if d.action == "reject" {
			continue
		}
		first := time.Duration(-1)
		for _, r := range reads {
			if r.ok() && r.gen >= int64(d.gen) && (first < 0 || r.done < first) {
				first = r.done
			}
		}
		if first < 0 {
			missing++
			continue
		}
		freshMS = append(freshMS, float64(first-appendAt[trigger])/float64(time.Millisecond))
	}
	if len(freshMS) == 0 || len(turnaround) == 0 {
		return nil, fmt.Errorf("refresh run saw %d promotions and %d decisions after set-up; nothing to time", len(freshMS), len(turnaround))
	}

	// Checks: no 5xx, generations never go back for a caller, every
	// promotion reached the daemon exactly once, and the decisions equal
	// an in-process replay of the same log.
	out.check("refresh.no_5xx", readSum.status5xx == 0, "%d of %d reads answered 5xx", readSum.status5xx, readSum.sent)
	back := 0
	last := map[int]int64{}
	for _, r := range reads {
		if !r.ok() {
			continue
		}
		if r.gen < last[r.worker] {
			back++
		}
		last[r.worker] = r.gen
	}
	out.check("refresh.generation_monotonic", back == 0, "%d reads saw an older generation than the caller's previous read", back)
	out.check("refresh.every_promotion_served", missing == 0 && prom["serve_reload_failures"] == 0 &&
		int(prom["serve_generation"]) == finalGen,
		"%d promotions never answered a read; daemon generation %v, stream generation %d, %v reload failures",
		missing, prom["serve_generation"], finalGen, prom["serve_reload_failures"])
	streamLayers := map[string]Stat{}
	replayed, err := streamReplay(rc.tr, nil, filepath.Join(rc.work, "refresh-"+strconv.Itoa(rc.setups()-1), "log.csv"), streamLayers)
	if err != nil {
		return nil, err
	}
	out.check("refresh.decisions_match_replay", sameDecisions(decisions, replayed),
		"wanperf stream made %d decisions, in-process replay %d", len(decisions), len(replayed))

	out.E2E = map[string]Stat{
		"setup_s":     statOf("s", setupS),
		"p50_ms":      statOf("ms", freshMS),
		"rows_per_s":  statOf("rows/s", turnaround),
		"peak_rss_mb": single("MB", rss),
	}
	out.Info["records_appended"] = total - refreshEvery
	out.Info["promotions_timed"] = len(freshMS)
	out.Info["decisions"] = len(decisions)
	out.Info["freshness_ms"] = freshMS
	out.Info["turnaround_rows_per_s"] = turnaround
	out.Info["read_p50_ms"] = percentile(readSum.latMS, 50)
	out.Info["read_p90_ms"] = percentile(readSum.latMS, 90)
	if rc.traced {
		for k, v := range loadLayers(readSum, prom) {
			layers[k] = v
		}
		for k, v := range streamLayers {
			layers[k] = v
		}
		if err := replayLayers(rc.tr, pl, edges, rc.work, rc.seed, layers, false); err != nil {
			return nil, err
		}
		out.Layers = layers
	}
	return out, nil
}

// waitGeneration polls the daemon's /metrics until it serves generation
// gen.
func waitGeneration(base string, gen int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		prom, err := scrape(base)
		if err != nil {
			return err
		}
		if int(prom["serve_generation"]) >= gen {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at generation %v, stream promoted %d", prom["serve_generation"], gen)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sameDecisions compares printed decisions with replayed ones: sequence,
// action, window rows and, for promotions, the generation.
func sameDecisions(got []decisionLine, want []stream.Decision) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.seq != w.Seq || g.action != w.Action || g.rows != w.WindowRows {
			return false
		}
		if w.Action != "reject" && g.gen != w.Promotions {
			return false
		}
	}
	return true
}
