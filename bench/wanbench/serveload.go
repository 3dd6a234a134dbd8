package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/simulate"
)

// Frozen open-loop rates, in requests per second: about half the median
// closed-loop capacity each serving workload measured on the 2-core
// reference host (see README.md). They stay fixed so latency is compared
// at the same offered load on every commit.
const (
	singleRate = 6000
	batchRate  = 300
)

// setupRepeats is how many times a serving workload sets up from scratch
// in an untraced run; setup_s is their median.
const setupRepeats = 3

// registrySeed is the seed of the history the serving registry is trained
// on: `wanperf registry` with the CLI's default seed. Every run sets up
// the same way; its requests are transfers simulated with the run's own
// seed, new to the models that answer them.
const registrySeed = 42

// servingInputs simulates the DefaultConfig pipeline with the run's seed
// in process and selects its study edges: the transfers the serving and
// refresh workloads send or append. The simulate, features and
// core.select layer times of a traced run come from here.
func servingInputs(rc *runConfig) (*core.Pipeline, []core.EdgeData, map[string]Stat, error) {
	root := rc.tr.Start("inputs")
	defer root.End()
	pl, layers, err := simulatePipeline(rc.tr, root, simulate.DefaultConfig(), rc.seed, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	var edges []core.EdgeData
	sel, _ := timed(rc.tr, root, "core.select", func() error {
		edges = pl.StudyEdges()
		return nil
	})
	layers["core.select_s"] = single("s", sel)
	return pl, edges, layers, nil
}

// runServe is serve-single (batch false) or serve-batch: set up the real
// daemon, measure capacity in a closed loop, then latency in an open loop
// at the frozen rate, then check every answer against the registry.
func runServe(rc *runConfig, batch bool) (*outcome, error) {
	out := newOutcome()
	pl, edges, layers, err := servingInputs(rc)
	if err != nil {
		return nil, err
	}
	reg := filepath.Join(rc.work, "registry.json")

	var d *daemon
	var setupS []float64
	for k := 0; k < rc.setups(); k++ {
		if d != nil {
			if err := d.stop(10 * time.Second); err != nil {
				return nil, err
			}
		}
		sp := rc.tr.Start("setup")
		t0 := time.Now()
		c, err := startChild(exec.Command(rc.wanperf, "registry", "-seed", strconv.Itoa(registrySeed), "-out", reg), nil, nil)
		if err != nil {
			return nil, err
		}
		if err := c.wait(); err != nil {
			return nil, err
		}
		if d, err = startServe(rc.wanperf, reg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sp.End()
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop(10 * time.Second) // error path; the run's error is reported instead
		}
	}()

	// Requests: 90% on edges the registry models, 10% on edges it does not.
	served, err := serve.LoadRegistryFile(reg)
	if err != nil {
		return nil, err
	}
	modelled := map[string]bool{}
	for k := range served.Edges {
		modelled[k] = true
	}
	rows, err := makeRows(pl, modelled, rc.seed)
	if err != nil {
		return nil, err
	}
	path, ctype, rowsPer, rate, bodies := "/predict", "application/json", 1, float64(singleRate), singleBodies(rows)
	if batch {
		path, ctype, rowsPer, rate, bodies = "/predict/batch", "application/x-ndjson", batchRows, float64(batchRate), batchBodies(rows)
	}
	ld := newLoader(d.base+path, ctype, bodies, rc.nproc)
	defer ld.close()
	closedD := rc.seconds / 4
	openD := rc.seconds - closedD
	warm := ld.closedLoop(500 * time.Millisecond)
	sp := rc.tr.Start("load.closed")
	closed := ld.closedLoop(closedD)
	sp.End()
	sp = rc.tr.Start("load.open")
	open := ld.openLoop(rate, openD, nil)
	sp.End()
	closedSum := summarize(closed, rowsPer, 500*time.Millisecond)
	openSum := summarize(open, rowsPer, time.Second)
	warmSum := summarize(warm, rowsPer, time.Second)
	out.Attempted = warmSum.sent + closedSum.sent + openSum.sent
	out.Failed = warmSum.failed + closedSum.failed + openSum.failed

	var prom map[string]float64
	if rc.traced {
		if prom, err = scrape(d.base); err != nil {
			return nil, err
		}
	}
	if err := verifyServe(out, ld, served, rows, batch); err != nil {
		return nil, err
	}
	rss, err := d.rss()
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(10 * time.Second); err != nil {
		return nil, err
	}

	out.E2E = map[string]Stat{
		"setup_s":     statOf("s", setupS),
		"p50_ms":      statOf("ms", openSum.windowP50),
		"rows_per_s":  statOf("rows/s", closedSum.rowsPerS),
		"peak_rss_mb": single("MB", rss),
	}
	tp := tailPercentile(len(openSum.latMS))
	out.Info["open_rate_per_s"] = rate
	out.Info["open_requests"] = openSum.sent
	out.Info["closed_requests"] = closedSum.sent
	out.Info["open_tail_percentile"] = tp
	out.Info["open_tail_ms"] = percentile(openSum.latMS, tp)
	out.Info["open_p99_ms"] = percentile(openSum.latMS, 99)
	if rc.traced {
		for k, v := range loadLayers(openSum, prom) {
			layers[k] = v
		}
		if err := replayLayers(rc.tr, pl, edges, rc.work, rc.seed, layers, false); err != nil {
			return nil, err
		}
		out.Layers = layers
	}
	return out, nil
}

// verifyServe sends every distinct body once, outside the timed phases,
// and compares each answered rate byte for byte, and its model label,
// with an in-process Registry.Lookup and Model.Predict on the same row.
func verifyServe(out *outcome, ld *loader, reg *serve.Registry, rows []predRow, batch bool) error {
	checked, bad := 0, 0
	first := ""
	expect := func(line []byte, r predRow) error {
		m, label := reg.Lookup(r.src, r.dst)
		want, err := m.Predict(r.x)
		if err != nil {
			return err
		}
		wantRate, _ := json.Marshal(want)
		wantModel, _ := json.Marshal(label)
		checked++
		if !bytes.Equal(field(line, `"rate":`), wantRate) || !bytes.Equal(field(line, `"model":`), wantModel) {
			bad++
			if first == "" {
				first = fmt.Sprintf("%s->%s: got %s, want rate %s model %s", r.src, r.dst, bytes.TrimSpace(line), wantRate, wantModel)
			}
		}
		return nil
	}
	var buf bytes.Buffer
	for i := range ld.bodies {
		var r reqResult
		ld.do(time.Now(), i, &buf, &r)
		out.Attempted++
		if !r.ok() {
			out.Failed++
			bad++
			continue
		}
		if !batch {
			if err := expect(buf.Bytes(), rows[i]); err != nil {
				return err
			}
			continue
		}
		lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
		if len(lines) != batchRows {
			bad++
			continue
		}
		for k, line := range lines {
			if err := expect(line, rows[i*batchRows+k]); err != nil {
				return err
			}
		}
	}
	out.check("serve.answers_match_registry", bad == 0, "%d rows checked, %d wrong %s", checked, bad, first)
	return nil
}

// field returns the raw JSON value of key in a flat one-line object.
func field(line []byte, key string) []byte {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return nil
	}
	v := line[i+len(key):]
	end := 0
	inStr := false
	for end < len(v) {
		c := v[end]
		if c == '"' && (end == 0 || v[end-1] != '\\') {
			inStr = !inStr
		} else if !inStr && (c == ',' || c == '}') {
			break
		}
		end++
	}
	return v[:end]
}
