package main

// metricDef declares one metric as BENCHMARK.json does; the harness test
// keeps the two identical.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are the metrics a caller of the system sees, reported by every
// workload. The unit of work behind p50_ms is a pass for repro and
// scale, a request timed from its due time for serve-single and
// serve-batch, and a promotion's freshness for refresh. Tails (p90, p99)
// swung by more than 10% between runs on the reference host, so they are
// per-layer metrics and result-file details instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the single-layer metrics of a traced run, reported by
// every workload on its own inputs.
var perLayer = []metricDef{
	{"simulate.generate_s", "s", "lower", 0},
	{"simulate.run_s", "s", "lower", 0},
	{"simulate.transfers_per_s", "transfers/s", "higher", 0},
	{"colfmt.write_s", "s", "lower", 0},
	{"colfmt.read_s", "s", "lower", 0},
	{"features.engineer_s", "s", "lower", 0},
	{"core.select_s", "s", "lower", 0},
	{"core.evaluate_s", "s", "lower", 0},
	{"gbt.train_busy_s", "s", "lower", 0},
	{"gbt.trees_built", "count", "lower", 0},
	{"linreg.fit_busy_s", "s", "lower", 0},
	{"gbt.predict_codes_ns_per_row", "ns/row", "lower", 0},
	{"dataset.quantize_ns_per_row", "ns/row", "lower", 0},
	{"serve.build_s", "s", "lower", 0},
	{"serve.load_registry_s", "s", "lower", 0},
	{"serve.single_handler_us", "us", "lower", 0},
	{"serve.single_sync_us", "us", "lower", 0},
	{"serve.single_frontdoor_us", "us", "lower", 0},
	{"serve.batch_handler_us_per_row", "us", "lower", 0},
	{"serve.batch_sync_us_per_row", "us", "lower", 0},
	{"serve.batch_frontdoor_us_per_row", "us", "lower", 0},
	{"serve.queue_wait_ms_mean", "ms", "lower", 0},
	{"serve.batch_size_mean", "rows", "higher", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.reloads", "count", "higher", 0},
	{"serve.reload_failures", "count", "lower", 0},
	{"http.svc_p50_ms", "ms", "lower", 0},
	{"http.svc_p99_ms", "ms", "lower", 0},
	{"loadgen.p99_ms", "ms", "lower", 0},
	{"loadgen.late_p50_ms", "ms", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.sent", "count", "higher", 0},
	{"loadgen.failed", "count", "lower", 0},
	{"stream.tail_us_per_record", "us", "lower", 0},
	{"stream.ingest_us_per_record", "us", "lower", 0},
	{"stream.refresh_p50_ms", "ms", "lower", 0},
	{"stream.refresh_max_ms", "ms", "lower", 0},
	{"stream.promotions", "count", "higher", 0},
	{"stream.rejections", "count", "lower", 0},
}
