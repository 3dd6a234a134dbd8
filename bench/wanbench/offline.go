package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/logs/colfmt"
	"repro/internal/obs"
	"repro/internal/simulate"
)

// passResult is what one offline pass reports to its parent on the last
// line of its standard output.
type passResult struct {
	Records  int     `json:"records"`
	Vectors  int     `json:"vectors"`
	LinMdAPE float64 `json:"lin_mdape,omitempty"`
	XGBMdAPE float64 `json:"xgb_mdape,omitempty"`
	SHA256   string  `json:"columnar_sha256,omitempty"`
	// PeakRSSMB is the pass process's VmHWM once the pass is done.
	PeakRSSMB float64 `json:"peak_rss_mb"`

	Layers map[string]Stat    `json:"layers,omitempty"`
	Spans  []obs.SpanSnapshot `json:"spans,omitempty"`
}

// runChild is one offline pass in its own process, so every pass starts
// from a cold heap the way a CLI run does. It prints "generated" once the
// seed's inputs exist and the passResult as its last line. A traced pass
// then replays the layers its path does not call.
func runChild(kind string, seed int64, traced bool, work string) error {
	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer()
	}
	root := tr.Start("pass." + kind)
	ready := func() { fmt.Println("generated") }
	var res passResult
	var pl *core.Pipeline
	var edges []core.EdgeData // selected in the pass, or nil
	var layers map[string]Stat
	var err error
	switch kind {
	case "repro":
		res, pl, edges, layers, err = reproPass(tr, root, seed, ready)
	case "scale":
		res, pl, layers, err = scalePass(tr, root, seed, ready)
	default:
		err = fmt.Errorf("unknown pass %q", kind)
	}
	root.End()
	if err != nil {
		return err
	}
	if res.PeakRSSMB, err = peakRSS("self"); err != nil {
		return err
	}
	if traced {
		if edges == nil {
			sel, _ := timed(tr, nil, "core.select", func() error {
				edges = pl.StudyEdges()
				return nil
			})
			layers["core.select_s"] = single("s", sel)
		}
		if err := replayLayers(tr, pl, edges, work, seed, layers, true); err != nil {
			return err
		}
		res.Layers = layers
		res.Spans = tr.Snapshot()
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// reproPass is the paper's Fig. 11 path as `wanperf models` runs it:
// simulate DefaultConfig, select the 30 study edges, and train and test
// both model families on each with 256-bin boosted trees.
func reproPass(tr *obs.Tracer, root *obs.Span, seed int64, ready func()) (passResult, *core.Pipeline, []core.EdgeData, map[string]Stat, error) {
	pl, layers, err := simulatePipeline(tr, root, simulate.DefaultConfig(), seed, ready)
	if err != nil {
		return passResult{}, nil, nil, nil, err
	}
	var edges []core.EdgeData
	selS, _ := timed(tr, root, "core.select", func() error {
		edges = pl.StudyEdges()
		return nil
	})
	var results []core.EdgeModelResult
	evalS, err := timed(tr, root, "core.evaluate", func() (err error) {
		results, err = pl.EvaluateEdgesContext(context.Background(), edges)
		return err
	})
	if err != nil {
		return passResult{}, nil, nil, nil, err
	}
	lin, xgb := core.HeadlineMdAPE(results)
	layers["core.select_s"] = single("s", selS)
	layers["core.evaluate_s"] = single("s", evalS)
	return passResult{Records: len(pl.Log.Records), Vectors: len(pl.Vecs), LinMdAPE: lin, XGBMdAPE: xgb}, pl, edges, layers, nil
}

// scalePass is the bulk path at LargeConfig scale: generate and simulate
// sharded at nproc, write and re-read the columnar log, and engineer
// features from its column views. Nothing is trained.
func scalePass(tr *obs.Tracer, root *obs.Span, seed int64, ready func()) (passResult, *core.Pipeline, map[string]Stat, error) {
	cfg := simulate.LargeConfig()
	cfg.Shards = runtime.NumCPU()
	pl, layers, sha, err := simulatePipelineColumnar(tr, root, cfg, seed, ready)
	if err != nil {
		return passResult{}, nil, nil, err
	}
	return passResult{Records: len(pl.Log.Records), Vectors: len(pl.Vecs), SHA256: sha}, pl, layers, nil
}

// simulatePipelineColumnar is scale's pass body: the simulate layers, then
// colfmt.WriteLog, colfmt.ReadTable and features.EngineerColumns. It also
// returns the SHA-256 of the columnar bytes.
func simulatePipelineColumnar(tr *obs.Tracer, root *obs.Span, cfg simulate.Config, seed int64, ready func()) (*core.Pipeline, map[string]Stat, string, error) {
	pl, layers, err := simulateLog(tr, root, cfg, seed, ready)
	if err != nil {
		return nil, nil, "", err
	}
	var buf bytes.Buffer
	writeS, err := timed(tr, root, "colfmt.write", func() error { return colfmt.WriteLog(&buf, pl.Log) })
	if err != nil {
		return nil, nil, "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	var tab *colfmt.Table
	readS, err := timed(tr, root, "colfmt.read", func() (err error) {
		tab, _, err = colfmt.ReadTable(bytes.NewReader(buf.Bytes()))
		return err
	})
	if err != nil {
		return nil, nil, "", err
	}
	engS, _ := timed(tr, root, "features.engineer", func() error {
		pl.Vecs = features.EngineerColumns(tab)
		return nil
	})
	layers["colfmt.write_s"] = single("s", writeS)
	layers["colfmt.read_s"] = single("s", readS)
	layers["features.engineer_s"] = single("s", engS)
	return pl, layers, hex.EncodeToString(sum[:]), nil
}

// runOffline runs passes of repro or scale, each in a fresh child
// process, until the run's seconds have passed (one pass when traced).
func runOffline(rc *runConfig, kind string) (*outcome, error) {
	out := newOutcome()
	var setupS, passMS, rowsPerS, rssMB []float64
	var results []passResult
	start := time.Now()
	for n := 0; n == 0 || (!rc.traced && time.Since(start) < rc.seconds); n++ {
		work := filepath.Join(rc.work, kind+"-"+strconv.Itoa(n))
		if err := os.MkdirAll(work, 0o755); err != nil {
			return nil, err
		}
		args := []string{"-child", kind, "-seed", strconv.FormatInt(rc.seed, 10), "-work", work}
		if rc.traced {
			args = append(args, "-trace", "1")
		}
		out.Attempted++
		var genAt time.Time
		var last string
		t0 := time.Now()
		c, err := startChild(exec.Command(rc.self, args...), func(line string, at time.Time) {
			if line == "generated" {
				genAt = at
			} else {
				last = line
			}
		}, nil)
		if err != nil {
			return nil, err
		}
		err = c.wait()
		elapsed := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", kind, n, err)
		}
		var pr passResult
		if err := json.Unmarshal([]byte(last), &pr); err != nil {
			return nil, fmt.Errorf("%s pass %d output: %w", kind, n, err)
		}
		results = append(results, pr)
		setupS = append(setupS, genAt.Sub(t0).Seconds())
		passMS = append(passMS, float64(elapsed)/float64(time.Millisecond))
		rowsPerS = append(rowsPerS, float64(pr.Records)/elapsed.Seconds())
		rssMB = append(rssMB, pr.PeakRSSMB)
		if rc.traced {
			out.Layers = pr.Layers
			out.Spans = append(out.Spans, spanGroup{Source: kind + " pass", Spans: pr.Spans})
		}
	}
	out.E2E = map[string]Stat{
		"setup_s":     statOf("s", setupS),
		"p50_ms":      statOf("ms", passMS),
		"rows_per_s":  statOf("rows/s", rowsPerS),
		"peak_rss_mb": statOf("MB", rssMB),
	}
	out.Info["passes"] = len(results)
	out.Info["records"] = results[0].Records
	if kind == "repro" {
		checkRepro(out, rc.seed, results)
	} else {
		checkScale(out, rc.seed, results)
	}
	return out, nil
}

func checkRepro(out *outcome, seed int64, results []passResult) {
	first := results[0]
	out.Info["lin_mdape"] = first.LinMdAPE
	out.Info["xgb_mdape"] = first.XGBMdAPE
	same := true
	for _, r := range results[1:] {
		same = same && r.LinMdAPE == first.LinMdAPE && r.XGBMdAPE == first.XGBMdAPE
	}
	out.check("repro.passes_agree", same, "%d passes", len(results))
	if want, ok := golden.ReproHeadline[strconv.FormatInt(seed, 10)]; ok {
		out.check("repro.headline_golden", first.LinMdAPE == want.Lin && first.XGBMdAPE == want.XGB,
			"LR %v XGB %v, stored LR %v XGB %v", first.LinMdAPE, first.XGBMdAPE, want.Lin, want.XGB)
	} else {
		out.check("repro.xgb_below_lr", first.XGBMdAPE < first.LinMdAPE,
			"LR %v XGB %v", first.LinMdAPE, first.XGBMdAPE)
	}
}

func checkScale(out *outcome, seed int64, results []passResult) {
	first := results[0]
	out.Info["columnar_sha256"] = first.SHA256
	same, counts := true, true
	for _, r := range results {
		same = same && r.SHA256 == first.SHA256
		counts = counts && r.Vectors == r.Records
	}
	out.check("scale.vectors_equal_records", counts, "%d records, %d vectors", first.Records, first.Vectors)
	if want, ok := golden.ScaleSHA256[strconv.FormatInt(seed, 10)]; ok {
		out.check("scale.columnar_sha256_golden", first.SHA256 == want && same, "got %s, stored %s", first.SHA256, want)
	} else {
		out.check("scale.columnar_sha256_stable", same, "%d passes", len(results))
	}
}
