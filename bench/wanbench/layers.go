package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/logs/colfmt"
	"repro/internal/ml/gbt"
	"repro/internal/ml/linreg"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
)

// Layer replays time each of the repository's modules from outside, by
// calling its public functions on the workload's own inputs. Every
// workload reports the whole ledger: on a workload whose end-to-end path
// skips a layer, that layer's number is the control an optimisation of
// the layer must leave the end-to-end metrics alone on.

// minReplay is the least time a per-row micro-measurement runs, so one
// timer read or scheduler hiccup cannot dominate it.
const minReplay = 200 * time.Millisecond

// streamReplayRecords is how many leading log records the stream replay
// ingests on workloads other than refresh: eight refreshes at the
// default cadence of 512.
const streamReplayRecords = 8 * 512

// probeRate is the open-loop rate, in 256-row requests per second, of the
// loopback probe that stands in for a daemon on repro and scale.
const probeRate = 100

// replayLayers fills every per-layer metric that layers does not already
// hold. probe runs the loopback HTTP probe for the load-phase metrics on
// workloads that run no daemon.
func replayLayers(tr *obs.Tracer, pl *core.Pipeline, edges []core.EdgeData, work string, seed int64, layers map[string]Stat, probe bool) error {
	root := tr.Start("replay")
	defer root.End()
	need := func(name string) bool { _, ok := layers[name]; return !ok }

	if need("colfmt.write_s") {
		var buf bytes.Buffer
		w, err := timed(tr, root, "colfmt.write", func() error { return colfmt.WriteLog(&buf, pl.Log) })
		if err != nil {
			return err
		}
		r, err := timed(tr, root, "colfmt.read", func() error {
			_, _, err := colfmt.ReadTable(bytes.NewReader(buf.Bytes()))
			return err
		})
		if err != nil {
			return err
		}
		layers["colfmt.write_s"] = single("s", w)
		layers["colfmt.read_s"] = single("s", r)
	}
	if need("core.evaluate_s") {
		e, err := timed(tr, root, "core.evaluate", func() error {
			_, err := pl.EvaluateEdgesContext(context.Background(), edges)
			return err
		})
		if err != nil {
			return err
		}
		layers["core.evaluate_s"] = single("s", e)
	}

	model, xs, err := trainReplay(tr, root, pl, edges, layers)
	if err != nil {
		return err
	}
	if err := kernelReplay(tr, root, model, xs, layers); err != nil {
		return err
	}
	regPath := filepath.Join(work, "replay-registry.json")
	if err := registryReplay(tr, root, pl, edges, regPath, layers); err != nil {
		return err
	}
	rows, err := makeRows(pl, edgeSet(edges), seed)
	if err != nil {
		return err
	}
	if err := serveReplay(tr, root, regPath, rows, layers, probe); err != nil {
		return err
	}
	if need("stream.refresh_p50_ms") {
		n := min(streamReplayRecords, len(pl.Log.Records))
		path := filepath.Join(work, "replay-stream.csv")
		if err := writeCSV(path, pl.Log.Records[:n]); err != nil {
			return err
		}
		if _, err := streamReplay(tr, root, path, layers); err != nil {
			return err
		}
	}
	return nil
}

// trainReplay trains one 256-bin boosted-tree model and one linear model
// per study edge, serially, the way serve.Build and EvaluateEdges train
// them. It returns the busiest edge's tree model and feature rows.
func trainReplay(tr *obs.Tracer, root *obs.Span, pl *core.Pipeline, edges []core.EdgeData, layers map[string]Stat) (*gbt.Model, [][]float64, error) {
	var gbtBusy, linBusy float64
	trees := 0
	var first *gbt.Model
	var firstX [][]float64
	sp := root.Child("train")
	defer sp.End()
	for i, ed := range edges {
		ds, err := features.Dataset(pl.VectorsAt(ed.Qualifying), false)
		if err != nil {
			return nil, nil, err
		}
		p := gbt.DefaultParams()
		p.Bins = gbtBins
		var m *gbt.Model
		d, err := timed(tr, sp, "gbt.train", func() (err error) {
			m, err = gbt.Train(ds, p)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		gbtBusy += d
		trees += m.NumTrees()
		lds, _ := ds.DropLowVariance(core.LowVarianceMin)
		d, err = timed(tr, sp, "linreg.fit", func() error {
			_, err := linreg.Fit(lds)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		linBusy += d
		if i == 0 {
			first, firstX = m, ds.X
		}
	}
	if first == nil {
		return nil, nil, fmt.Errorf("no study edges to train on")
	}
	layers["gbt.train_busy_s"] = single("s", gbtBusy)
	layers["gbt.trees_built"] = single("count", float64(trees))
	layers["linreg.fit_busy_s"] = single("s", linBusy)
	return first, firstX, nil
}

// kernelReplay times admission quantization (Model.QuantizeRow) and the
// code-space kernel (Model.PredictCodes) on the busiest edge's rows.
func kernelReplay(tr *obs.Tracer, root *obs.Span, m *gbt.Model, xs [][]float64, layers map[string]Stat) error {
	if !m.CodeSpace() {
		return fmt.Errorf("replay model has no code-space forest")
	}
	codes := make([][]uint8, len(xs))
	for i := range codes {
		codes[i] = make([]uint8, len(xs[i]))
	}
	rows := 0
	q, err := timed(tr, root, "dataset.quantize", func() error {
		for t := time.Now(); time.Since(t) < minReplay; {
			for i, x := range xs {
				if err := m.QuantizeRow(x, codes[i]); err != nil {
					return err
				}
			}
			rows += len(xs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	layers["dataset.quantize_ns_per_row"] = single("ns/row", q*1e9/float64(rows))
	out := make([]float64, len(xs))
	rows = 0
	k, err := timed(tr, root, "gbt.predict_codes", func() error {
		for t := time.Now(); time.Since(t) < minReplay; {
			if err := m.PredictCodes(codes, out); err != nil {
				return err
			}
			rows += len(xs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	layers["gbt.predict_codes_ns_per_row"] = single("ns/row", k*1e9/float64(rows))
	return nil
}

// registryReplay times serve.Build and the validating load of the file it
// writes (serve.LoadRegistryFile).
func registryReplay(tr *obs.Tracer, root *obs.Span, pl *core.Pipeline, edges []core.EdgeData, path string, layers map[string]Stat) error {
	var reg *serve.Registry
	b, err := timed(tr, root, "serve.build", func() (err error) {
		reg, err = serve.Build(context.Background(), pl, edges)
		return err
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := serve.WriteRegistry(&buf, reg); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	l, err := timed(tr, root, "serve.load_registry", func() error {
		_, err := serve.LoadRegistryFile(path)
		return err
	})
	if err != nil {
		return err
	}
	layers["serve.build_s"] = single("s", b)
	layers["serve.load_registry_s"] = single("s", l)
	return nil
}

// serveReplay runs an in-process daemon on the registry and times one
// caller driving its HTTP handler (no network) and its sync API on the
// same rows. The handler minus the sync call is the front door: body
// read, decode and response encode.
func serveReplay(tr *obs.Tracer, root *obs.Span, regPath string, rows []predRow, layers map[string]Stat, probe bool) error {
	srv, err := serve.New(serve.Config{RegistryPath: regPath, WatchInterval: -1, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	srv.Start()
	defer func() { _ = srv.Drain() }() // only the replay's own requests are in flight, all answered
	h := srv.Handler()
	ctx := context.Background()

	reqs := make([]*serve.PredictRequest, len(rows))
	brows := make([]serve.BatchRow, len(rows))
	for i, r := range rows {
		feats := make(map[string]float64, len(features.Names))
		for j, name := range features.Names {
			feats[name] = r.x[j]
		}
		reqs[i] = &serve.PredictRequest{Src: r.src, Dst: r.dst, Features: feats}
		brows[i] = serve.BatchRow{Src: r.src, Dst: r.dst, X: r.x}
	}
	bodies := batchBodies(rows)
	post := func(path string, body []byte) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s answered %d: %s", path, rec.Code, rec.Body.String())
		}
		return nil
	}
	// perUnit repeats fn over n units until minReplay has passed and
	// returns microseconds per unit.
	perUnit := func(name string, n, unitsPer int, fn func(i int) error) (float64, error) {
		units := 0
		d, err := timed(tr, root, name, func() error {
			for t := time.Now(); time.Since(t) < minReplay; {
				for i := 0; i < n; i++ {
					if err := fn(i); err != nil {
						return err
					}
				}
				units += n * unitsPer
			}
			return nil
		})
		return d * 1e6 / float64(units), err
	}
	sh, err := perUnit("serve.single_handler", len(rows), 1, func(i int) error { return post("/predict", rows[i].body) })
	if err != nil {
		return err
	}
	ss, err := perUnit("serve.single_sync", len(rows), 1, func(i int) error {
		_, err := srv.PredictSync(ctx, reqs[i])
		return err
	})
	if err != nil {
		return err
	}
	bh, err := perUnit("serve.batch_handler", len(bodies), batchRows, func(i int) error { return post("/predict/batch", bodies[i]) })
	if err != nil {
		return err
	}
	out := make([]serve.PredictResponse, batchRows)
	bs, err := perUnit("serve.batch_sync", len(bodies), batchRows, func(i int) error {
		return srv.PredictBatchSync(ctx, brows[i*batchRows:(i+1)*batchRows], out)
	})
	if err != nil {
		return err
	}
	layers["serve.single_handler_us"] = single("us", sh)
	layers["serve.single_sync_us"] = single("us", ss)
	layers["serve.single_frontdoor_us"] = single("us", sh-ss)
	layers["serve.batch_handler_us_per_row"] = single("us", bh)
	layers["serve.batch_sync_us_per_row"] = single("us", bs)
	layers["serve.batch_frontdoor_us_per_row"] = single("us", bh-bs)

	if probe {
		ts := httptest.NewServer(h)
		defer ts.Close()
		ld := newLoader(ts.URL+"/predict/batch", "application/x-ndjson", bodies, runtime.NumCPU())
		defer ld.close()
		sp := root.Child("loopback.probe")
		res := ld.openLoop(probeRate, time.Second, nil)
		sp.End()
		prom, err := scrape(ts.URL)
		if err != nil {
			return err
		}
		for k, v := range loadLayers(summarize(res, batchRows, time.Second), prom) {
			layers[k] = v
		}
	}
	return nil
}

// loadLayers turns a load phase and the serving daemon's /metrics after
// it into the load-side per-layer metrics.
func loadLayers(s loadSummary, prom map[string]float64) map[string]Stat {
	ratio := func(a, b string) float64 {
		if prom[b] == 0 {
			return 0
		}
		return prom[a] / prom[b]
	}
	return map[string]Stat{
		"serve.queue_wait_ms_mean": single("ms", ratio("serve_queue_wait_ms_sum", "serve_queue_wait_ms_count")),
		"serve.batch_size_mean":    single("rows", ratio("serve_batch_size_sum", "serve_batch_size_count")),
		"serve.shed":               single("count", prom["serve_shed"]+prom["serve_batch_shed"]),
		"serve.reloads":            single("count", prom["serve_reloads"]),
		"serve.reload_failures":    single("count", prom["serve_reload_failures"]),
		"http.svc_p50_ms":          single("ms", percentile(s.svcMS, 50)),
		"http.svc_p99_ms":          single("ms", percentile(s.svcMS, 99)),
		"loadgen.late_p50_ms":      single("ms", percentile(s.lateMS, 50)),
		"loadgen.late_p99_ms":      single("ms", percentile(s.lateMS, 99)),
		"loadgen.p99_ms":           single("ms", percentile(s.latMS, 99)),
		"loadgen.sent":             single("count", float64(s.sent)),
		"loadgen.failed":           single("count", float64(s.failed)),
	}
}

// writeCSV writes records as a CSV transfer log.
func writeCSV(path string, recs []logs.Record) error {
	var buf bytes.Buffer
	if err := (&logs.Log{Records: recs}).WriteCSV(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// streamReplay runs the refresh loop in process over the CSV log at path,
// configured as `wanperf stream` configures it: Tailer.Drain reads every
// record, then each goes through Refresher.Ingest, which retrains behind
// the drift gate every 512 records. It returns the decisions made.
func streamReplay(tr *obs.Tracer, root *obs.Span, path string, layers map[string]Stat) ([]stream.Decision, error) {
	p := gbt.DefaultParams()
	p.Bins = gbtBins
	var decisions []stream.Decision
	rn, err := stream.NewRunner(stream.Config{
		Tail: stream.TailConfig{Path: path, Format: stream.FormatCSV},
		Refresh: stream.RefreshConfig{
			GBT:        p,
			OnDecision: func(d stream.Decision) { decisions = append(decisions, d) },
		},
	})
	if err != nil {
		return nil, err
	}
	defer rn.Tailer.Close()
	var recs []logs.Record
	tail, err := timed(tr, root, "stream.tail", func() error {
		return rn.Tailer.Drain(func(r logs.Record) { recs = append(recs, r) })
	})
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("stream replay read no records from %s", path)
	}
	var ingestS float64
	var refreshMS []float64
	sp := root.Child("stream.ingest")
	for _, r := range recs {
		before := rn.Refresher.Stats().Refreshes
		t := time.Now()
		if err := rn.Refresher.Ingest(r); err != nil {
			sp.End()
			return nil, err
		}
		d := time.Since(t)
		if rn.Refresher.Stats().Refreshes > before {
			refreshMS = append(refreshMS, float64(d)/float64(time.Millisecond))
		} else {
			ingestS += d.Seconds()
		}
	}
	sp.End()
	if len(refreshMS) == 0 {
		return nil, fmt.Errorf("stream replay of %d records made no refresh", len(recs))
	}
	st := rn.Refresher.Stats()
	layers["stream.tail_us_per_record"] = single("us", tail*1e6/float64(len(recs)))
	layers["stream.ingest_us_per_record"] = single("us", ingestS*1e6/float64(len(recs)-len(refreshMS)))
	layers["stream.refresh_p50_ms"] = statOf("ms", refreshMS)
	layers["stream.refresh_max_ms"] = single("ms", percentile(refreshMS, 100))
	layers["stream.promotions"] = single("count", float64(st.Promotions))
	layers["stream.rejections"] = single("count", float64(st.Rejections))
	return decisions, nil
}
