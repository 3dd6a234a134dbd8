// Command wanperf drives the reproduction of "Explaining Wide Area Data
// Transfer Performance" (HPDC'17): it simulates a Globus-like transfer
// fabric, engineers the paper's features, trains the models, regenerates
// every table and figure of the evaluation, and serves trained models as
// a long-running prediction daemon.
//
// Usage:
//
//	wanperf <command> [flags]
//
// Run `wanperf help` for the command table. Commands fall into three
// groups: paper experiments (table1..fig13, eq1, global, lmt, models,
// ablation, tuned, chaos, all), data tooling (simulate, edges, worldspec,
// convert, registry), and serving (serve — the production prediction
// daemon with hot reload, backpressure, and graceful drain; see
// internal/serve).
//
// Flags (shared):
//
//	-seed N           RNG seed (default 42)
//	-small            use the reduced workload (fast, for exploration)
//	-shards N         run one sub-engine per resource-sharing component on
//	                  N workers (0/1 = serial; output is byte-identical)
//	-out FILE         output path for simulate/worldspec/registry (default stdout)
//	-format FMT       simulate: output format, csv (default) or columnar
//	-in FILE          convert: input log (CSV or columnar, sniffed)
//	-to FMT           convert: target format (default: opposite of input)
//	-intensities LIST for chaos: comma-separated fault intensities
//	-gbt-bins N       histogram bins for boosted-tree training (default 256;
//	                  0 = exact presorted split search)
//	-metrics FILE     write engine/model/pool metrics as JSON
//	-trace FILE       write hierarchical phase spans as JSON
//	-pprof ADDR       serve net/http/pprof on ADDR (e.g. localhost:6060)
//
// Flags (serve):
//
//	-addr ADDR            listen address (default :8723)
//	-registry FILE        registry file to serve (required; watched for changes)
//	-queue N              admission-queue depth
//	-batch N              max rows coalesced per inference batch
//	-queue-timeout DUR    max queue wait before a request is shed
//	-request-timeout DUR  server-side end-to-end deadline
//	-drain-timeout DUR    hard deadline for SIGTERM drain
//	-watch DUR            registry-file poll period (negative disables)
//
// With -metrics or -trace a human-readable run summary is also printed to
// stderr at exit. Observability never perturbs results: instruments are
// outside every RNG stream, so instrumented runs are byte-identical to
// plain ones.
//
// Exit status is 0 on success, 1 on a runtime error, and 2 on a usage
// error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/logs/colfmt"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/serve"
	"repro/internal/simulate"
)

// errUsage marks errors that should print usage and exit with status 2.
var errUsage = errors.New("usage error")

// main is the only place the process exits, so deferred cleanup anywhere
// below it always runs; SIGINT/SIGTERM cancel ctx and the simulation
// returns promptly instead of being killed mid-write (for `serve`,
// cancellation triggers the graceful drain).
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string) int {
	cmd, cfg, opts, err := parseArgs(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage()
			return 0
		}
		fmt.Fprintln(os.Stderr, "wanperf:", err)
		usage()
		return 2
	}
	if opts.pprofAddr != "" {
		go func() {
			if serr := http.ListenAndServe(opts.pprofAddr, nil); serr != nil {
				fmt.Fprintln(os.Stderr, "wanperf: pprof:", serr)
			}
		}()
	}
	o := buildObs(cmd, opts)
	err = run(ctx, cmd, cfg, opts, o)
	if oerr := finishObs(opts, o); oerr != nil && err == nil {
		err = oerr
	}
	if err != nil {
		if errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, "wanperf:", err)
			usage()
			return 2
		}
		fmt.Fprintln(os.Stderr, "wanperf:", err)
		return 1
	}
	return 0
}

// ---- subcommand table ----

// cmdContext carries everything a subcommand can use: the cancellation
// context, the simulated pipeline (nil for commands that don't need one),
// its study edges, and the parsed configuration.
type cmdContext struct {
	ctx   context.Context
	pl    *core.Pipeline
	edges []core.EdgeData
	cfg   simulate.Config
	opts  options
	o     *obs.Obs
}

// cmdSpec is one subcommand: its usage summary, whether the dispatcher
// must simulate a pipeline first, and the implementation.
type cmdSpec struct {
	summary  string
	pipeline bool
	run      func(c cmdContext) error
}

// commandOrder fixes the usage listing (paper order, then tooling, then
// serving); commands holds the table itself. Every entry in one appears
// in the other — TestCommandTable pins this.
var commandOrder = []string{
	"simulate", "edges", "models",
	"table1", "table3", "table4", "table5",
	"fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig12", "fig13",
	"eq1", "global", "lmt", "ablation", "tuned", "worldspec", "chaos", "all",
	"convert", "registry", "serve", "stream",
}

var commands = map[string]*cmdSpec{
	"simulate": {summary: "generate a transfer log and write it (-format csv|columnar)", pipeline: true,
		run: cmdSimulate},
	"edges": {summary: "list the heavily used edges the study selects", pipeline: true,
		run: cmdEdges},
	"models": {summary: "train per-edge linear and nonlinear models (Figs 10, 11)", pipeline: true,
		run: cmdModels},
	"table1": {summary: "ESnet-testbed subsystem measurements and the Eq. 1 min rule",
		run: cmdTable1},
	"table3": {summary: "edge great-circle length percentiles", pipeline: true,
		run: cmdTable3},
	"table4": {summary: "edge type shares", pipeline: true,
		run: func(c cmdContext) error { fmt.Print(core.RenderTable4(c.pl.Table4(c.edges))); return nil }},
	"table5": {summary: "Pearson CC vs MIC per feature on the busiest edges", pipeline: true,
		run: cmdTable5},
	"fig3": {summary: "rate vs relative load on the controlled testbed",
		run: cmdFig3},
	"fig4": {summary: "aggregate rate vs concurrency with Weibull fits", pipeline: true,
		run: cmdFig4},
	"fig5": {summary: "rate vs total size × average file size", pipeline: true,
		run: cmdFig5},
	"fig6": {summary: "size vs distance scatter summary", pipeline: true,
		run: func(c cmdContext) error { _, s := c.pl.Fig6(); fmt.Print(core.RenderFig6(s)); return nil }},
	"fig8": {summary: "rate vs relative load on production edges", pipeline: true,
		run: func(c cmdContext) error { fmt.Print(core.RenderLoadCurves(c.pl.Fig8(c.edges, 4))); return nil }},
	"fig9": {summary: "linear-model coefficient map", pipeline: true,
		run: cmdFig9},
	"fig12": {summary: "nonlinear-model importance map", pipeline: true,
		run: cmdFig12},
	"fig13": {summary: "accuracy vs load threshold", pipeline: true,
		run: cmdFig13},
	"eq1": {summary: "the §3.2 production-edge analytical study", pipeline: true,
		run: cmdEq1},
	"global": {summary: "the single model for all edges (§5.4)", pipeline: true,
		run: cmdGlobal},
	"lmt": {summary: "the storage-monitoring experiment (§5.5.2)",
		run: cmdLMT},
	"ablation": {summary: "feature-group ablation study (which features carry accuracy)", pipeline: true,
		run: cmdAblation},
	"tuned": {summary: "what-if tuning of C and P on the busiest edges", pipeline: true,
		run: cmdTuned},
	"worldspec": {summary: "write the simulated world as a reusable spec", pipeline: true,
		run: cmdWorldspec},
	"chaos": {summary: "fault-intensity sweep: model accuracy vs injected disruption",
		run: cmdChaos},
	"convert": {summary: "convert a transfer log between CSV and columnar (-in FILE [-to FORMAT])",
		run: cmdConvert},
	"all": {summary: "everything above, in paper order", pipeline: true,
		run: func(c cmdContext) error { return runAll(c.ctx, c.pl, c.edges, c.cfg) }},
	"registry": {summary: "train the serving registry (per-edge + global models) and write it", pipeline: true,
		run: cmdRegistry},
	"serve": {summary: "run the prediction daemon on a registry file",
		run: cmdServe},
	"stream": {summary: "tail a growing transfer log and keep the serving registry fresh",
		run: cmdStream},
}

// needsPipeline reports whether the command requires a simulated log.
// The chaos sweep simulates internally, once per intensity; serve loads a
// prebuilt registry instead. Unknown commands take the default (pipeline)
// path and fail with a usage error at dispatch.
func needsPipeline(cmd string) bool {
	if c, ok := commands[cmd]; ok {
		return c.pipeline
	}
	return true
}

func run(ctx context.Context, cmd string, cfg simulate.Config, opts options, o *obs.Obs) error {
	var pl *core.Pipeline
	var edges []core.EdgeData
	if needsPipeline(cmd) {
		fmt.Fprintln(os.Stderr, "simulating...")
		var err error
		pl, err = core.RunObs(ctx, cfg, o)
		if err != nil {
			return err
		}
		pl.GBTBins = opts.gbtBins
		edges = pl.StudyEdges()
		fmt.Fprintf(os.Stderr, "%d transfers logged, %d study edges\n", len(pl.Log.Records), len(edges))
	}
	c, ok := commands[cmd]
	if !ok {
		return fmt.Errorf("%w: unknown command %q", errUsage, cmd)
	}
	return c.run(cmdContext{ctx: ctx, pl: pl, edges: edges, cfg: cfg, opts: opts, o: o})
}

func usage() {
	var b strings.Builder
	b.WriteString("usage: wanperf <command> [-seed N] [-small] [-shards N] [-out FILE] [-intensities LIST]\n")
	b.WriteString("                         [-gbt-bins N] [-metrics FILE] [-trace FILE] [-pprof ADDR]\n")
	b.WriteString("       wanperf simulate [-format csv|columnar] [-out FILE]\n")
	b.WriteString("       wanperf convert -in FILE [-to csv|columnar] [-out FILE]\n")
	b.WriteString("       wanperf serve -registry FILE [-addr ADDR] [-queue N] [-batch N]\n")
	b.WriteString("                     [-batchers N] [-queue-timeout DUR] [-request-timeout DUR]\n")
	b.WriteString("                     [-drain-timeout DUR] [-watch DUR]\n")
	b.WriteString("       wanperf stream -in FILE -registry FILE [-log-format auto|csv|columnar]\n")
	b.WriteString("                      [-poll DUR] [-window N] [-refresh-every N] [-min-train N]\n")
	b.WriteString("commands:\n")
	for _, name := range commandOrder {
		fmt.Fprintf(&b, "  %-10s %s\n", name, commands[name].summary)
	}
	fmt.Fprint(os.Stderr, strings.TrimRight(b.String(), "\n")+"\n")
}

// ---- flag parsing ----

// buildObs assembles the observability bundle the run feeds. Metrics and
// tracing are independent: either flag alone enables just that half, and
// with neither the bundle is nil so the whole stack runs uninstrumented.
func buildObs(cmd string, opts options) *obs.Obs {
	if opts.metrics == "" && opts.trace == "" {
		return nil
	}
	o := &obs.Obs{}
	if opts.metrics != "" {
		o.Metrics = obs.NewRegistry()
		pool.SetMetrics(o.Metrics)
	}
	if opts.trace != "" {
		o.Tracer = obs.NewTracer()
		o.Root = o.Tracer.Start("wanperf." + cmd)
	}
	return o
}

// finishObs closes the root span, writes the requested JSON artifacts, and
// prints the run summary to stderr. Called even when the run failed, so a
// partial trace is still available for debugging.
func finishObs(opts options, o *obs.Obs) error {
	if o == nil {
		return nil
	}
	pool.SetMetrics(nil)
	o.Root.End()
	if opts.metrics != "" {
		if err := withOutput(opts.metrics, o.Metrics.WriteJSON); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if opts.trace != "" {
		if err := withOutput(opts.trace, o.Tracer.WriteJSON); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return obs.WriteSummary(os.Stderr, o.Metrics.Snapshot(), o.Tracer.Snapshot())
}

// options carries the per-command flag values into run.
type options struct {
	out         string
	intensities []float64
	gbtBins     int    // histogram bins for GBT training (0 = exact search)
	metrics     string // JSON metrics output path ("" = disabled)
	trace       string // JSON trace output path ("" = disabled)
	pprofAddr   string // pprof listen address ("" = disabled)
	format      string // simulate: output format (csv or columnar)
	in          string // convert: input path
	to          string // convert: target format ("" = opposite of input)

	// serve flags.
	addr           string
	registry       string
	queueDepth     int
	batchMax       int
	batchers       int
	maxBatchRows   int
	queueTimeout   time.Duration
	requestTimeout time.Duration
	drainTimeout   time.Duration
	watch          time.Duration

	// stream flags.
	logFormat    string        // tailed log format: auto, csv, or columnar
	poll         time.Duration // tail poll interval (0 = default)
	window       int           // sliding-window capacity (0 = default)
	refreshEvery int           // records between retrains (0 = default)
	minTrain     int           // smallest window that may train (0 = default)
}

func parseArgs(args []string) (cmd string, cfg simulate.Config, opts options, err error) {
	cfg = simulate.DefaultConfig()
	if len(args) < 1 {
		return "", cfg, opts, fmt.Errorf("%w: no command", errUsage)
	}
	cmd = args[0]
	if cmd == "-h" || cmd == "-help" || cmd == "--help" || cmd == "help" {
		return "", cfg, opts, flag.ErrHelp
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "RNG seed")
	small := fs.Bool("small", false, "use the reduced workload")
	shards := fs.Int("shards", 0, "run one sub-engine per resource-sharing component on N workers (0/1 = serial; output is byte-identical)")
	out := fs.String("out", "", "output path for simulate/worldspec/registry (default stdout)")
	format := fs.String("format", "csv", "simulate: output format (csv or columnar)")
	in := fs.String("in", "", "convert: input log file (required)")
	to := fs.String("to", "", "convert: target format, csv or columnar (default: opposite of input)")
	intensities := fs.String("intensities", "0,0.5,1,2,4",
		"comma-separated fault intensities for the chaos sweep")
	gbtBins := fs.Int("gbt-bins", 256,
		"histogram bins for boosted-tree training (0 = exact presorted search)")
	metrics := fs.String("metrics", "", "write metrics JSON to this path")
	trace := fs.String("trace", "", "write trace-span JSON to this path")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address")
	addr := fs.String("addr", ":8723", "serve: listen address")
	registry := fs.String("registry", "", "serve: registry file (required)")
	queueDepth := fs.Int("queue", 0, "serve: admission-queue depth (0 = default)")
	batchMax := fs.Int("batch", 0, "serve: max rows per inference batch (0 = default)")
	batchers := fs.Int("batchers", 0, "serve: parallel batcher goroutines (0 = GOMAXPROCS)")
	maxBatchRows := fs.Int("max-batch-rows", 0, "serve: max rows per /predict/batch request (0 = default)")
	queueTimeout := fs.Duration("queue-timeout", 0, "serve: max queue wait before shedding (0 = default)")
	requestTimeout := fs.Duration("request-timeout", 0, "serve: end-to-end request deadline (0 = default)")
	drainTimeout := fs.Duration("drain-timeout", 0, "serve: hard deadline for graceful drain (0 = default)")
	watch := fs.Duration("watch", 0, "serve: registry poll period (0 = default, negative disables)")
	logFormat := fs.String("log-format", "auto", "stream: tailed log format (auto, csv, or columnar)")
	poll := fs.Duration("poll", 0, "stream: tail poll interval (0 = default)")
	window := fs.Int("window", 0, "stream: sliding-window capacity in records (0 = default)")
	refreshEvery := fs.Int("refresh-every", 0, "stream: records between retrains (0 = default)")
	minTrain := fs.Int("min-train", 0, "stream: smallest window that may train (0 = default)")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return "", cfg, opts, flag.ErrHelp
		}
		return "", cfg, opts, fmt.Errorf("%w: %v", errUsage, err)
	}
	if *small {
		cfg = simulate.SmallConfig()
	}
	cfg.Seed = *seed
	if *shards < 0 {
		return "", cfg, opts, fmt.Errorf("%w: -shards must be non-negative", errUsage)
	}
	cfg.Shards = *shards
	if *gbtBins < 0 || *gbtBins > 256 {
		return "", cfg, opts, fmt.Errorf("%w: -gbt-bins must be 0..256", errUsage)
	}
	if *format != "csv" && *format != "columnar" {
		return "", cfg, opts, fmt.Errorf("%w: -format must be csv or columnar, got %q", errUsage, *format)
	}
	opts.format = *format
	opts.in = *in
	opts.to = *to
	opts.out = *out
	opts.gbtBins = *gbtBins
	opts.metrics = *metrics
	opts.trace = *trace
	opts.pprofAddr = *pprofAddr
	opts.addr = *addr
	opts.registry = *registry
	opts.queueDepth = *queueDepth
	opts.batchMax = *batchMax
	opts.batchers = *batchers
	opts.maxBatchRows = *maxBatchRows
	opts.queueTimeout = *queueTimeout
	opts.requestTimeout = *requestTimeout
	opts.drainTimeout = *drainTimeout
	opts.watch = *watch
	switch *logFormat {
	case "auto", "csv", "columnar":
		opts.logFormat = *logFormat
	default:
		return "", cfg, opts, fmt.Errorf("%w: -log-format must be auto, csv, or columnar, got %q", errUsage, *logFormat)
	}
	opts.poll = *poll
	if *window < 0 || *refreshEvery < 0 || *minTrain < 0 {
		return "", cfg, opts, fmt.Errorf("%w: -window, -refresh-every, and -min-train must be non-negative", errUsage)
	}
	opts.window = *window
	opts.refreshEvery = *refreshEvery
	opts.minTrain = *minTrain
	if opts.intensities, err = parseIntensities(*intensities); err != nil {
		return "", cfg, opts, fmt.Errorf("%w: %v", errUsage, err)
	}
	return cmd, cfg, opts, nil
}

// parseIntensities parses the -intensities flag: a comma-separated list of
// non-negative fault-intensity multipliers.
func parseIntensities(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad intensity %q", part)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative intensity %g", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty intensity list")
	}
	return out, nil
}

// withOutput runs fn against the -out file (or stdout when unset) and
// surfaces both fn's and Close's error — a short write that only fails at
// close is still reported, and the single exit point in main guarantees
// the close actually happens.
func withOutput(out string, fn func(io.Writer) error) error {
	if out == "" {
		return fn(os.Stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	werr := fn(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ---- subcommand implementations ----

// cmdSimulate writes the generated log in the requested format: CSV (the
// compatibility path) or the columnar binary container (the bulk path).
func cmdSimulate(c cmdContext) error {
	if c.opts.format == "columnar" {
		return withOutput(c.opts.out, func(w io.Writer) error { return colfmt.WriteLog(w, c.pl.Log) })
	}
	return withOutput(c.opts.out, c.pl.Log.WriteCSV)
}

func cmdEdges(c cmdContext) error {
	for _, ed := range c.edges {
		fmt.Printf("%-30s transfers=%d qualifying=%d Rmax=%.1f MB/s\n",
			ed.Edge, len(ed.All), len(ed.Qualifying), ed.Rmax)
	}
	return nil
}

func cmdModels(c cmdContext) error {
	results, err := c.pl.EvaluateEdgesContext(c.ctx, c.edges)
	if err != nil {
		return err
	}
	fmt.Println("== Figure 10: per-edge APE distributions ==")
	fmt.Print(core.RenderFig10(results))
	fmt.Println("== Figure 11: per-edge MdAPE ==")
	fmt.Print(core.RenderFig11(results))
	return nil
}

func cmdTable1(c cmdContext) error {
	rows, err := core.Table1()
	if err != nil {
		return err
	}
	fmt.Print(core.RenderTable1(rows))
	return nil
}

func cmdTable3(c cmdContext) error {
	rows, err := c.pl.Table3(c.edges)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderTable3(rows))
	return nil
}

func cmdTable5(c cmdContext) error {
	n := 4
	if len(c.edges) < n {
		n = len(c.edges)
	}
	rows, err := c.pl.Table5(c.edges[:n])
	if err != nil {
		return err
	}
	fmt.Print(core.RenderTable5(rows))
	return nil
}

func cmdFig3(c cmdContext) error {
	curves, err := core.Fig3(120, c.cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderLoadCurves(curves))
	return nil
}

func cmdFig4(c cmdContext) error {
	curves, err := c.pl.Fig4(c.pl.BusiestEndpoints(4))
	if err != nil {
		return err
	}
	fmt.Print(core.RenderFig4(curves))
	return nil
}

func cmdFig5(c cmdContext) error {
	ed, err := fig5Edge(c.pl, c.edges)
	if err != nil {
		return err
	}
	buckets, err := c.pl.Fig5(ed, 20)
	if err != nil {
		return err
	}
	fmt.Printf("edge: %s\n", ed.Edge)
	fmt.Print(core.RenderFig5(buckets))
	return nil
}

func cmdFig9(c cmdContext) error {
	results, err := c.pl.EvaluateEdgesContext(c.ctx, c.edges)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderFig9(results))
	return nil
}

func cmdFig12(c cmdContext) error {
	results, err := c.pl.EvaluateEdgesContext(c.ctx, c.edges)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderFig12(results))
	return nil
}

func cmdFig13(c cmdContext) error {
	rows, err := c.pl.Fig13(core.MinEdgeTransfers, 8)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderFig13(rows))
	return nil
}

func cmdEq1(c cmdContext) error {
	rows, summary, err := c.pl.Section32(c.edges)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderSection32(rows, summary))
	return nil
}

func cmdGlobal(c cmdContext) error {
	res, err := c.pl.GlobalModelContext(c.ctx, c.edges)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderGlobal(res))
	return nil
}

func cmdLMT(c cmdContext) error {
	res, err := core.LMTExperiment(666, c.cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderLMT(res))
	return nil
}

func cmdAblation(c cmdContext) error {
	n := 6
	if len(c.edges) < n {
		n = len(c.edges)
	}
	rows, err := c.pl.AblateContext(c.ctx, c.edges, n)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderAblation(rows))
	fmt.Println("\nmean MdAPE increase when a group is removed:")
	summary := core.SummarizeAblation(rows)
	for _, g := range []string{"K (contending rates)", "S (contending streams)", "G (contending procs)", "all load (K+S+G)", "shape (Nb, Nf, Nd)", "tunables (C, P)"} {
		if v, ok := summary[g]; ok {
			fmt.Printf("  %-24s %+6.2f pp\n", g, v)
		}
	}
	return nil
}

func cmdTuned(c cmdContext) error {
	n := 4
	if len(c.edges) < n {
		n = len(c.edges)
	}
	rows, err := c.pl.TunedModels(c.edges, n)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderTuned(rows))
	return nil
}

func cmdWorldspec(c cmdContext) error {
	return withOutput(c.opts.out, func(w io.Writer) error {
		return simulate.WriteWorldSpec(w, simulate.SpecFromWorld(c.pl.Gen.World))
	})
}

func cmdChaos(c cmdContext) error {
	ccfg := chaos.DefaultConfig(c.cfg.Seed, c.cfg.Horizon)
	fmt.Fprintf(os.Stderr, "chaos sweep over intensities %v...\n", c.opts.intensities)
	points, err := core.ChaosSweep(c.ctx, c.cfg, ccfg, c.opts.intensities,
		core.MinEdgeTransfers, core.NumEdges)
	if err != nil {
		return err
	}
	fmt.Println("== model accuracy vs injected fault intensity ==")
	fmt.Print(core.RenderChaos(points))
	return nil
}

// cmdRegistry trains the serving registry from the simulated pipeline and
// writes it to -out (stdout by default) — the artifact `wanperf serve`
// loads.
func cmdRegistry(c cmdContext) error {
	fmt.Fprintf(os.Stderr, "training registry: %d edge models + global...\n", len(c.edges))
	reg, err := serve.Build(c.ctx, c.pl, c.edges)
	if err != nil {
		return err
	}
	return withOutput(c.opts.out, func(w io.Writer) error {
		return serve.WriteRegistry(w, reg)
	})
}

// cmdServe runs the prediction daemon until the signal context cancels,
// then drains gracefully. SIGHUP and registry-file changes hot-reload the
// models; see internal/serve for the full contract.
func cmdServe(c cmdContext) error {
	if c.opts.registry == "" {
		return fmt.Errorf("%w: serve requires -registry FILE", errUsage)
	}
	scfg := serve.Config{
		Addr:           c.opts.addr,
		RegistryPath:   c.opts.registry,
		QueueDepth:     c.opts.queueDepth,
		BatchMax:       c.opts.batchMax,
		Batchers:       c.opts.batchers,
		MaxBatchRows:   c.opts.maxBatchRows,
		QueueTimeout:   c.opts.queueTimeout,
		RequestTimeout: c.opts.requestTimeout,
		DrainTimeout:   c.opts.drainTimeout,
		WatchInterval:  c.opts.watch,
	}
	if c.o != nil && c.o.Metrics != nil {
		scfg.Metrics = c.o.Metrics
	}
	s, err := serve.New(scfg)
	if err != nil {
		return err
	}
	return s.Run(c.ctx)
}

// fig5Edge picks the edge where file-size effects are most visible: among
// busy server-to-server edges, the one whose average file sizes spread the
// widest (a wide spread makes the small-vs-big split meaningful, which is
// presumably why the paper chose JLAB→NERSC).
func fig5Edge(pl *core.Pipeline, edges []core.EdgeData) (core.EdgeData, error) {
	if len(edges) == 0 {
		return core.EdgeData{}, fmt.Errorf("no study edges")
	}
	best := edges[0]
	bestScore := -1.0
	for _, ed := range edges {
		if pl.Log.EndpointTypeOf(ed.Edge.Src).String() != "GCS" ||
			pl.Log.EndpointTypeOf(ed.Edge.Dst).String() != "GCS" {
			continue
		}
		if len(ed.All) < 500 {
			continue
		}
		// Spread of log average-file-size across the edge's transfers.
		var sum, sum2 float64
		for _, i := range ed.All {
			r := &pl.Log.Records[pl.Vecs[i].RecordIdx]
			av := r.Bytes / float64(r.Files)
			lg := math.Log(av)
			sum += lg
			sum2 += lg * lg
		}
		n := float64(len(ed.All))
		spread := sum2/n - (sum/n)*(sum/n)
		if spread > bestScore {
			bestScore = spread
			best = ed
		}
	}
	return best, nil
}

func runAll(ctx context.Context, pl *core.Pipeline, edges []core.EdgeData, cfg simulate.Config) error {
	section := func(name string) { fmt.Printf("\n===== %s =====\n", name) }

	section("Table 1 (testbed, Eq. 1)")
	rows1, err := core.Table1()
	if err != nil {
		return err
	}
	fmt.Print(core.RenderTable1(rows1))

	section("Table 3 (edge lengths)")
	rows3, err := pl.Table3(edges)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderTable3(rows3))

	section("Table 4 (edge types)")
	fmt.Print(core.RenderTable4(pl.Table4(edges)))

	section("Table 5 (CC vs MIC)")
	n := 4
	if len(edges) < n {
		n = len(edges)
	}
	rows5, err := pl.Table5(edges[:n])
	if err != nil {
		return err
	}
	fmt.Print(core.RenderTable5(rows5))

	section("Figure 3 (testbed load sweep)")
	f3, err := core.Fig3(120, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderLoadCurves(f3))

	section("Figure 4 (rate vs concurrency, Weibull)")
	f4, err := pl.Fig4(pl.BusiestEndpoints(4))
	if err != nil {
		return err
	}
	fmt.Print(core.RenderFig4(f4))

	section("Figure 5 (file characteristics)")
	ed5, err := fig5Edge(pl, edges)
	if err != nil {
		return err
	}
	f5, err := pl.Fig5(ed5, 20)
	if err != nil {
		return err
	}
	fmt.Printf("edge: %s\n", ed5.Edge)
	fmt.Print(core.RenderFig5(f5))

	section("Figure 6 (size vs distance)")
	_, f6 := pl.Fig6()
	fmt.Print(core.RenderFig6(f6))

	section("Figure 8 (production load sweep)")
	fmt.Print(core.RenderLoadCurves(pl.Fig8(edges, 4)))

	section("Equation 1 on production edges (§3.2)")
	eqRows, eqSummary, err := pl.Section32(edges)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderSection32(eqRows, eqSummary))

	section("Figures 9-12 + headline MdAPE")
	results, err := pl.EvaluateEdgesContext(ctx, edges)
	if err != nil {
		return err
	}
	fmt.Println("-- Figure 9 (linear coefficients) --")
	fmt.Print(core.RenderFig9(results))
	fmt.Println("-- Figure 10 (APE distributions) --")
	fmt.Print(core.RenderFig10(results))
	fmt.Println("-- Figure 11 (MdAPE per edge) --")
	fmt.Print(core.RenderFig11(results))
	fmt.Println("-- Figure 12 (XGB importance) --")
	fmt.Print(core.RenderFig12(results))

	section("Single model for all edges (§5.4)")
	g, err := pl.GlobalModelContext(ctx, edges)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderGlobal(g))

	section("Figure 13 (load thresholds)")
	f13, err := pl.Fig13(core.MinEdgeTransfers, 8)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderFig13(f13))

	section("LMT experiment (§5.5.2)")
	lr, err := core.LMTExperiment(666, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderLMT(lr))

	section("Feature-group ablation (extension)")
	abl, err := pl.AblateContext(ctx, edges, 6)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderAblation(abl))
	return nil
}
