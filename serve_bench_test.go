package repro

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/serve"
)

var (
	serveBenchOnce sync.Once
	serveBenchPath string
	serveBenchReqs []*serve.PredictRequest
	serveBenchErr  error
)

// serveBenchRegistry builds the serving registry from the bench pipeline
// (one model per study edge + global fallback) exactly once and writes it
// to a registry file. Models are histogram-trained with the CLI's default
// 256 bins — the production configuration — so they carry code-space
// forests and the serve benchmarks measure the quantized path a deployed
// daemon runs. Also prepares one request per row of the busiest edge —
// the same rows BenchmarkPredictAll scores, so the serving benchmarks
// compare against raw forest inference directly.
func serveBenchRegistry(b *testing.B) (string, []*serve.PredictRequest) {
	b.Helper()
	serveBenchOnce.Do(func() {
		pl, edges := benchPipeline(b)
		plb := *pl
		plb.GBTBins = 256
		reg, err := serve.Build(context.Background(), &plb, edges)
		if err != nil {
			serveBenchErr = err
			return
		}
		var buf bytes.Buffer
		if err := serve.WriteRegistry(&buf, reg); err != nil {
			serveBenchErr = err
			return
		}
		// Not b.TempDir(): that is torn down when the FIRST benchmark
		// finishes, and later benchmarks boot fresh servers off this path.
		dir, err := os.MkdirTemp("", "wanperf-serve-bench-*")
		if err != nil {
			serveBenchErr = err
			return
		}
		serveBenchPath = filepath.Join(dir, "registry.json")
		if serveBenchErr = os.WriteFile(serveBenchPath, buf.Bytes(), 0o644); serveBenchErr != nil {
			return
		}

		edge := edges[0]
		for _, v := range pl.VectorsAt(edge.Qualifying) {
			vals := v.Values(false)
			feats := make(map[string]float64, len(features.Names))
			for i, name := range features.Names {
				feats[name] = vals[i]
			}
			serveBenchReqs = append(serveBenchReqs, &serve.PredictRequest{
				Src:      edge.Edge.Src,
				Dst:      edge.Edge.Dst,
				Features: feats,
			})
		}
	})
	if serveBenchErr != nil {
		b.Fatal(serveBenchErr)
	}
	return serveBenchPath, serveBenchReqs
}

// serveBenchServer boots a fresh daemon on the shared registry file. A
// new server per benchmark (not a cached one) matters for the -cpu
// matrix: the batcher count defaults to GOMAXPROCS, which the harness
// varies per -cpu run, so a server cached at the first run's width would
// silently pin every later run to it.
func serveBenchServer(b *testing.B, mod func(*serve.Config)) (*serve.Server, []*serve.PredictRequest) {
	b.Helper()
	path, reqs := serveBenchRegistry(b)
	cfg := serve.Config{
		RegistryPath:   path,
		QueueDepth:     4096,
		QueueTimeout:   time.Minute,
		RequestTimeout: time.Minute,
		WatchInterval:  -1,
		Logf:           func(string, ...any) {},
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	b.Cleanup(func() { _ = srv.Drain() })
	return srv, reqs
}

// serveBenchBatch vectorizes (and optionally quantizes) the first `batch`
// requests against the registry, returning the edge model and both row
// representations.
const serveBenchBatchRows = 64

// BenchmarkServeBatchInference measures the exact inference call the
// daemon's batcher issues in steady state — a code-space walk over a
// coalesced batch of quantized rows through the registry's edge model —
// reported per row and in rows/sec. This is the quantized engine's
// headline number; BenchmarkServeBatchInferenceFloat is the float
// traversal of the same model on the same rows, and the committed
// bench/BENCH_pre-codespace artifact is the pre-engine baseline.
func BenchmarkServeBatchInference(b *testing.B) {
	srv, reqs := serveBenchServer(b, nil)
	const batch = serveBenchBatchRows
	if len(reqs) < batch {
		b.Fatalf("only %d rows", len(reqs))
	}
	reg := srv.Registry()
	m, _ := reg.Lookup(reqs[0].Src, reqs[0].Dst)
	if !m.CodeSpace() {
		b.Fatal("bench registry model has no code-space forest")
	}
	cxs := make([][]uint8, batch)
	x := make([]float64, len(reg.Features))
	for i := 0; i < batch; i++ {
		if err := reg.Vectorize(reqs[i].Features, x); err != nil {
			b.Fatal(err)
		}
		cxs[i] = make([]uint8, len(reg.Features))
		if err := m.QuantizeRow(x, cxs[i]); err != nil {
			b.Fatal(err)
		}
	}
	out := make([]float64, batch)
	// One warm call so pool-backed scratch inside the predictor is
	// populated before measurement starts.
	if err := m.PredictCodes(cxs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PredictCodes(cxs, out); err != nil {
			b.Fatal(err)
		}
	}
	// StopTimer before the derived metrics: ReportMetric itself
	// allocates, and with the clock still running those allocations used
	// to land in the measured window — the 0/1/3 B/op jitter that kept
	// bench-smoke from asserting 0 allocs/op strictly.
	b.StopTimer()
	rows := float64(b.N * batch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkServeBatchInferenceFloat is the same coalesced batch through
// the blocked float-forest walk (PredictBatch) — the in-tree A/B partner for
// BenchmarkServeBatchInference, isolating the code-space speedup from
// model or data drift between bench runs.
func BenchmarkServeBatchInferenceFloat(b *testing.B) {
	srv, reqs := serveBenchServer(b, nil)
	const batch = serveBenchBatchRows
	if len(reqs) < batch {
		b.Fatalf("only %d rows", len(reqs))
	}
	reg := srv.Registry()
	m, _ := reg.Lookup(reqs[0].Src, reqs[0].Dst)
	xs := make([][]float64, batch)
	for i := 0; i < batch; i++ {
		xs[i] = make([]float64, len(reg.Features))
		if err := reg.Vectorize(reqs[i].Features, xs[i]); err != nil {
			b.Fatal(err)
		}
	}
	out := make([]float64, batch)
	if err := m.PredictBatch(xs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PredictBatch(xs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rows := float64(b.N * batch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkQuantizeRow measures the input-side half of the code path:
// one request row quantized to uint8 codes against the model's cut
// points. This cost is paid once per row, then every tree level of every
// tree reads codes instead of floats.
func BenchmarkQuantizeRow(b *testing.B) {
	srv, reqs := serveBenchServer(b, nil)
	reg := srv.Registry()
	m, _ := reg.Lookup(reqs[0].Src, reqs[0].Dst)
	x := make([]float64, len(reg.Features))
	if err := reg.Vectorize(reqs[0].Features, x); err != nil {
		b.Fatal(err)
	}
	dst := make([]uint8, len(reg.Features))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.QuantizeRow(x, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePredict measures per-prediction throughput through the
// daemon's full serving path — admission (vectorize + edge resolution),
// the bounded queue, batcher coalescing, and grouped code-space inference —
// under concurrent clients, so batches actually fill. ns/op is the
// end-to-end cost of one served prediction; rows/s is the aggregate
// serving throughput, the number the ROADMAP's millions-per-second goal
// is scored against. Run with -cpu 1,4,8 (scripts/bench.sh does): the
// batcher count follows GOMAXPROCS, so the matrix shows multi-batcher
// scaling directly.
func BenchmarkServePredict(b *testing.B) {
	srv, reqs := serveBenchServer(b, nil)
	ctx := context.Background()
	b.ReportAllocs()
	// Enough concurrent clients per core that the batchers coalesce real
	// batches; a lone synchronous client would force batch size 1 and
	// measure queue overhead instead of batched throughput.
	b.SetParallelism(64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := reqs[i%len(reqs)]
			i++
			if _, err := srv.PredictSync(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkServePredictBatch measures the batch front door end to end:
// 256 pre-vectorized rows of one edge per PredictBatchSync call — one
// admission unit, one queue slot, one batcher wake, one quantize pass
// and one dense code-space walk — which is what POST /predict/batch does
// per request minus HTTP
// framing. ns/op is the cost of one 256-row batch; rows/s is the
// headline serving throughput the front-door rework is scored against.
// Steady state is allocation-free: job, slabs, and completion slot are
// all pooled.
func BenchmarkServePredictBatch(b *testing.B) { benchServePredictBatch(b, false) }

// BenchmarkServePredictBatchMixed is BenchmarkServePredictBatch with the
// 256 rows spread round-robin over every edge model in the registry and,
// one row in ten, an edge without a model of its own (the global
// fallback answers) — the request mix of a scheduler asking about many
// transfers at once, and of the wanbench serve-batch workload. Each batch
// is one grouped code-space walk per serving model, still allocation-free.
func BenchmarkServePredictBatchMixed(b *testing.B) { benchServePredictBatch(b, true) }

func benchServePredictBatch(b *testing.B, mixed bool) {
	srv, reqs := serveBenchServer(b, nil)
	reg := srv.Registry()
	edges := make([]string, 0, len(reg.Edges))
	for k := range reg.Edges {
		edges = append(edges, k)
	}
	sort.Strings(edges)
	const batch = 256
	rows := make([]serve.BatchRow, batch)
	for i := range rows {
		req := reqs[i%len(reqs)]
		x := make([]float64, len(reg.Features))
		if err := reg.Vectorize(req.Features, x); err != nil {
			b.Fatal(err)
		}
		src, dst := req.Src, req.Dst
		if mixed {
			src, dst, _ = strings.Cut(edges[i%len(edges)], "->")
			if i%10 == 9 {
				src, dst = "unmodelled-src", "unmodelled-dst"
			}
		}
		rows[i] = serve.BatchRow{Src: src, Dst: dst, X: x}
	}
	out := make([]serve.PredictResponse, batch)
	ctx := context.Background()
	// Warm the job pool and the batcher scratch before measuring.
	for i := 0; i < 4; i++ {
		if err := srv.PredictBatchSync(ctx, rows, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.PredictBatchSync(ctx, rows, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := float64(b.N) * batch
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
	b.ReportMetric(n/b.Elapsed().Seconds(), "rows/s")
}
