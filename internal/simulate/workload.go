package simulate

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geo"
	"repro/internal/logs"
	"repro/internal/obs"
)

// Config controls synthetic world and workload generation. The defaults
// produce a log with the gross structure of the Globus log the paper mines:
// a small set of heavily used edges (the paper's 30 edges with hundreds to
// thousands of transfers each) over shared hub endpoints, plus a long tail
// of rarely used edges, with endpoint-type shares following Table 4.
type Config struct {
	Seed    int64
	Horizon float64 // submission window in seconds

	HeavyEdges         int     // number of heavily used edges
	HeavyTransfersMean float64 // mean transfers per heavy edge
	TailEdges          int     // number of long-tail edges
	TailTransfersMax   int     // max transfers per tail edge

	HubEndpoints      int     // GCS endpoints shared by the heavy edges
	PersonalEndpoints int     // GCP endpoints
	NoisyFrac         float64 // fraction of endpoints with strong hidden load

	BurstMax int // max transfers submitted together (workflow bursts)

	// Clusters replicates the world and workload into this many mutually
	// disconnected copies: cluster c gets its own sites (names suffixed
	// "@c", same coordinates), its own endpoints, and its own workload
	// drawn from a derived seed. Clusters never share an endpoint or a
	// site pair, so each contributes independent resource-sharing
	// components — the structure the sharded engine (Shards) splits
	// across workers. Clusters <= 1 is the legacy single-cluster path,
	// byte-identical to configs that predate the field.
	Clusters int

	// Shards is handed to Engine.SetShards by the GenerateLog family:
	// 0 or 1 runs the serial event loop; a larger value runs one
	// sub-engine per resource-sharing component on that many workers,
	// with byte-identical output.
	Shards int
}

// DefaultConfig is the full-scale configuration behind the headline
// experiments (~35k transfers).
func DefaultConfig() Config {
	return Config{
		Seed:               42,
		Horizon:            45 * 24 * 3600,
		HeavyEdges:         38,
		HeavyTransfersMean: 1050,
		TailEdges:          160,
		TailTransfersMax:   8,
		HubEndpoints:       14,
		PersonalEndpoints:  24,
		NoisyFrac:          0.45,
		BurstMax:           4,
	}
}

// SmallConfig is a reduced configuration for fast tests and exploration
// (~6k transfers). It still yields several edges that clear the paper's
// ≥300-qualifying-transfers bar.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Horizon = 12 * 24 * 3600
	c.HeavyEdges = 8
	c.HeavyTransfersMean = 800
	c.TailEdges = 30
	c.HubEndpoints = 8
	c.PersonalEndpoints = 10
	return c
}

// LargeConfig is a clustered configuration for shard-scaling benchmarks:
// 24 disconnected clusters, each a scaled-down copy of the headline
// world (~300k transfers total). Shards defaults to 1 so callers choose
// the engine layout explicitly.
func LargeConfig() Config {
	c := DefaultConfig()
	c.Horizon = 30 * 24 * 3600
	c.HeavyEdges = 12
	c.HeavyTransfersMean = 900
	c.TailEdges = 40
	c.HubEndpoints = 10
	c.PersonalEndpoints = 12
	c.Clusters = 24
	return c
}

// XLargeConfig is the paper-scale configuration: 24 disconnected
// clusters totalling over a million transfers. Intended to run sharded
// (set Shards; see scripts/bench.sh) — the serial event loop works but
// pays the full O(active) scan at every event.
func XLargeConfig() Config {
	c := DefaultConfig()
	c.HeavyEdges = 38
	c.HeavyTransfersMean = 1400
	c.TailEdges = 120
	c.Clusters = 24
	return c
}

// edgeProfile captures the per-edge workload idiosyncrasies: habitual
// dataset shapes and tool settings differ strongly between communities,
// which is why the paper's per-edge models work so well. Transfer sizes are
// scaled to the edge's capacity so that every edge sustains a realistic
// offered load — a community moving data to a laptop moves gigabytes, a
// community moving data between DTNs moves terabytes.
type edgeProfile struct {
	src, dst     string
	medianBytes  float64 // median transfer size
	sigmaBytes   float64 // lognormal spread of size
	maxBytes     float64 // per-transfer cap (fixed multiple of edge capacity)
	singleProb   float64 // probability a transfer is one big file
	medianFileMB float64 // characteristic file size of the community
	fileSigma    float64 // lognormal spread of per-transfer file size
	dirsPerFiles float64 // directories per file
	concWeights  []int   // candidate C values
	parWeights   []int   // candidate P values
	count        int     // transfers to generate
}

// Generated bundles a generated world and its workload.
type Generated struct {
	World *World
	Specs []TransferSpec
	// HeavyEdges lists the source→destination pairs designated as heavily
	// used, in generation order.
	HeavyEdges []logs.EdgeKey
}

// Generate builds a world and workload from the configuration. With
// Clusters > 1 it builds every cluster independently and merges them into
// one world; the merged spec list stays grouped by cluster (the engine
// orders submissions by Start when it assigns stamps, so grouping does
// not affect the simulated schedule).
func Generate(cfg Config) (*Generated, error) {
	if cfg.HeavyEdges <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("simulate: config needs positive HeavyEdges and Horizon")
	}
	if cfg.Clusters <= 1 {
		return generateCluster(cfg, -1)
	}
	g := &Generated{}
	var eps []*Endpoint
	for c := 0; c < cfg.Clusters; c++ {
		sub, err := generateCluster(cfg, c)
		if err != nil {
			return nil, err
		}
		eps = append(eps, sub.World.Endpoints...)
		g.Specs = append(g.Specs, sub.Specs...)
		g.HeavyEdges = append(g.HeavyEdges, sub.HeavyEdges...)
	}
	g.World = NewWorld(eps)
	return g, nil
}

// generateCluster builds one cluster's world and workload. Cluster -1 is
// the legacy unsuffixed path (Clusters <= 1); cluster c >= 0 renames
// every site to "Name@c" and draws from a seed derived per cluster, so
// clusters are disjoint in endpoints, site pairs, and randomness.
func generateCluster(cfg Config, cluster int) (*Generated, error) {
	seed := cfg.Seed
	suffix := ""
	if cluster >= 0 {
		seed = cfg.Seed + int64(cluster+1)*7_919_911
		suffix = fmt.Sprintf("@%d", cluster)
	}
	rng := rand.New(rand.NewSource(seed))
	world, hubs, personals := buildWorld(cfg, rng, suffix)

	g := &Generated{World: world}

	// Heavy edges with the Table 4 type mix for the 30-edge set:
	// ~51% GCS→GCS, ~30% GCS→GCP, ~19% GCP→GCS. Offered load is budgeted
	// per endpoint so that no endpoint's aggregate demand exceeds its
	// capacity — queues stay bounded, as they do in a real deployment —
	// while still leaving plenty of transient contention.
	used := map[string]bool{}
	srcBudget := map[string]float64{}
	dstBudget := map[string]float64{}
	for i := 0; i < cfg.HeavyEdges; i++ {
		util := 0.04 + rng.Float64()*0.10
		var src, dst string
		ok := false
		for attempt := 0; attempt < 200; attempt++ {
			u := rng.Float64()
			switch {
			case u < 0.51 || len(personals) == 0:
				src = hubs[rng.Intn(len(hubs))]
				dst = hubs[rng.Intn(len(hubs))]
			case u < 0.81:
				src = hubs[rng.Intn(len(hubs))]
				dst = personals[rng.Intn(len(personals))]
			default:
				src = personals[rng.Intn(len(personals))]
				dst = hubs[rng.Intn(len(hubs))]
			}
			if src == dst || used[src+"|"+dst] {
				continue
			}
			if srcBudget[src]+util > 0.38 || dstBudget[dst]+util > 0.30 {
				continue
			}
			ok = true
			break
		}
		if !ok {
			continue
		}
		used[src+"|"+dst] = true
		srcBudget[src] += util
		dstBudget[dst] += util
		g.HeavyEdges = append(g.HeavyEdges, logs.EdgeKey{Src: src, Dst: dst})

		prof := randomProfile(world, src, dst, util, cfg, rng)
		g.Specs = append(g.Specs, generateEdgeTransfers(prof, cfg, rng)...)
	}

	// Long-tail edges with the all-edges type mix (~45/34/20).
	all := world.EndpointIDs()
	for i := 0; i < cfg.TailEdges; i++ {
		var src, dst string
		u := rng.Float64()
		switch {
		case u < 0.45 || len(personals) == 0:
			src = hubs[rng.Intn(len(hubs))]
			dst = all[rng.Intn(len(all))]
		case u < 0.79:
			src = all[rng.Intn(len(all))]
			dst = personals[rng.Intn(len(personals))]
		default:
			src = personals[rng.Intn(len(personals))]
			dst = hubs[rng.Intn(len(hubs))]
		}
		if src == dst {
			continue
		}
		prof := randomProfile(world, src, dst, 0.02+rng.Float64()*0.1, cfg, rng)
		prof.count = 1 + rng.Intn(cfg.TailTransfersMax)
		g.Specs = append(g.Specs, generateEdgeTransfers(prof, cfg, rng)...)
	}
	return g, nil
}

// GenerateLog is the one-call pipeline: generate a world and workload, run
// the engine, return the log alongside the generated structures.
func GenerateLog(cfg Config) (*logs.Log, *Generated, error) {
	return GenerateLogContext(context.Background(), cfg)
}

// GenerateLogContext is GenerateLog under a context: the simulation stops
// promptly with the context's error when ctx is cancelled or times out.
func GenerateLogContext(ctx context.Context, cfg Config) (*logs.Log, *Generated, error) {
	l, _, g, err := GenerateLogChaos(ctx, cfg, nil)
	return l, g, err
}

// GenerateLogChaos generates a world and workload, injects the disruption
// plan (nil for none), runs the engine under ctx, and self-validates any
// chaos run with CheckInvariants. The engine's Stats come back alongside
// the log so callers can see retries and abandonments that never reached
// it.
func GenerateLogChaos(ctx context.Context, cfg Config, plan *ChaosPlan) (*logs.Log, Stats, *Generated, error) {
	return GenerateLogChaosObs(ctx, cfg, plan, nil)
}

// GenerateLogChaosObs is GenerateLogChaos with the engine's metrics
// attached to reg (nil for uninstrumented; see Engine.SetObs). The
// instruments observe the run without touching its RNG streams, so an
// instrumented run produces a byte-identical log.
func GenerateLogChaosObs(ctx context.Context, cfg Config, plan *ChaosPlan, reg *obs.Registry) (*logs.Log, Stats, *Generated, error) {
	g, err := Generate(cfg)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	eng := NewEngine(g.World, cfg.Seed+1)
	eng.SetShards(cfg.Shards)
	eng.SetObs(reg)
	eng.Submit(g.Specs...)
	if err := eng.SetChaos(plan); err != nil {
		return nil, Stats{}, nil, err
	}
	l, err := eng.RunContext(ctx)
	if err != nil {
		return nil, eng.Stats(), nil, err
	}
	if !plan.Empty() {
		if err := eng.CheckInvariants(); err != nil {
			return nil, eng.Stats(), nil, err
		}
	}
	return l, eng.Stats(), g, nil
}

// buildWorld creates the endpoint fleet: hub DTNs at major facilities,
// extra GCS servers at remaining sites, and personal (GCP) endpoints.
// A non-empty suffix renames every site (and disambiguates personal
// endpoint IDs) so that clustered worlds share no site pair — WAN
// resources key on site names.
func buildWorld(cfg Config, rng *rand.Rand, suffix string) (w *World, hubs, personals []string) {
	sites := geo.Catalogue()
	if suffix != "" {
		renamed := make([]geo.Site, len(sites))
		for i, s := range sites {
			s.Name += suffix
			renamed[i] = s
		}
		sites = renamed
	}
	var eps []*Endpoint

	nicChoices := []float64{1250, 1250, 2500} // mostly 10G, some 20G aggregate

	hubCount := cfg.HubEndpoints
	if hubCount > len(sites) {
		hubCount = len(sites)
	}
	for i := 0; i < hubCount; i++ {
		site := sites[i]
		id := site.Name + "-dtn"
		noisy := rng.Float64() < cfg.NoisyFrac
		eps = append(eps, &Endpoint{
			ID:              id,
			Site:            site,
			Type:            logs.GCS,
			DiskReadMBps:    400 + rng.Float64()*1100,
			DiskWriteMBps:   300 + rng.Float64()*900,
			NICMBps:         nicChoices[rng.Intn(len(nicChoices))],
			PerProcDiskMBps: 80 + rng.Float64()*220,
			CPUKnee:         24 + rng.Float64()*36,
			CPUSteep:        1.5 + rng.Float64(),
			MaxActive:       10 + rng.Intn(10),
			Bg:              bgConfig(noisy, rng),
		})
		hubs = append(hubs, id)
	}
	// Secondary GCS endpoints at the remaining sites (long-tail servers).
	for i := hubCount; i < len(sites); i++ {
		site := sites[i]
		id := site.Name + "-dtn"
		noisy := rng.Float64() < cfg.NoisyFrac
		eps = append(eps, &Endpoint{
			ID:              id,
			Site:            site,
			Type:            logs.GCS,
			DiskReadMBps:    200 + rng.Float64()*600,
			DiskWriteMBps:   150 + rng.Float64()*500,
			NICMBps:         1250,
			PerProcDiskMBps: 60 + rng.Float64()*140,
			CPUKnee:         22 + rng.Float64()*38,
			CPUSteep:        1.5 + rng.Float64(),
			MaxActive:       6 + rng.Intn(6),
			Bg:              bgConfig(noisy, rng),
		})
	}
	// Personal endpoints: laptops/workstations near random sites.
	for i := 0; i < cfg.PersonalEndpoints; i++ {
		site := sites[rng.Intn(len(sites))]
		id := fmt.Sprintf("user%02d-gcp%s", i, suffix)
		eps = append(eps, &Endpoint{
			ID:              id,
			Site:            site,
			Type:            logs.GCP,
			DiskReadMBps:    60 + rng.Float64()*160,
			DiskWriteMBps:   50 + rng.Float64()*120,
			NICMBps:         12.5 + rng.Float64()*112.5, // 100 Mb/s – 1 Gb/s
			PerProcDiskMBps: 40 + rng.Float64()*80,
			CPUKnee:         6 + rng.Float64()*10,
			CPUSteep:        1.5 + rng.Float64(),
			MaxActive:       2 + rng.Intn(3),
			Bg:              bgConfig(rng.Float64() < cfg.NoisyFrac/2, rng),
		})
		personals = append(personals, id)
	}
	return NewWorld(eps), hubs, personals
}

func bgConfig(noisy bool, rng *rand.Rand) BgConfig {
	if noisy {
		return BgConfig{
			MaxFrac:      0.25 + rng.Float64()*0.25,
			MeanInterval: 600 + rng.Float64()*5400,
		}
	}
	return BgConfig{
		MaxFrac:      rng.Float64() * 0.12,
		MeanInterval: 1800 + rng.Float64()*7200,
	}
}

// randomProfile draws the workload idiosyncrasies of one edge. The transfer
// count is drawn around the configured mean, then the size distribution is
// solved backwards from a target edge utilization so that the offered load
// (count × mean size / horizon) stays a modest fraction of the edge's
// end-to-end capacity — the regime real deployments run in, where
// congestion is frequent but queues drain.
func randomProfile(w *World, src, dst string, util float64, cfg Config, rng *rand.Rand) edgeProfile {
	// Each edge has a habitual (usually default) concurrency and
	// parallelism; only a small minority of its users override them. This
	// matches the paper's observation that C and P "do not vary greatly in
	// the log data" — they are eliminated from the per-edge models for low
	// variance (Figures 9, 12).
	concChoices := []int{2, 4, 8}
	parChoices := []int{2, 4, 8}
	defC := concChoices[rng.Intn(len(concChoices))]
	defP := parChoices[rng.Intn(len(parChoices))]
	concWeights := make([]int, 0, 50)
	parWeights := make([]int, 0, 50)
	for i := 0; i < 49; i++ { // ~98% of transfers use the edge default
		concWeights = append(concWeights, defC)
		parWeights = append(parWeights, defP)
	}
	// The rare override halves the habitual setting (users back off when a
	// destination struggles); upward overrides are rare enough in real
	// logs that C and P end up low-variance on almost every edge.
	concWeights = append(concWeights, maxInt(1, defC/2))
	parWeights = append(parWeights, maxInt(1, defP/2))

	count := int(cfg.HeavyTransfersMean * (0.4 + rng.Float64()*1.6))
	if count < 1 {
		count = 1
	}
	capMBps := edgeCapacityMBps(w, src, dst)
	sigma := 1.0 + rng.Float64()*0.8
	meanBytes := util * cfg.Horizon * capMBps * 1e6 / float64(count)
	medianBytes := meanBytes / math.Exp(sigma*sigma/2)

	return edgeProfile{
		src:          src,
		dst:          dst,
		medianBytes:  medianBytes,
		sigmaBytes:   sigma,
		maxBytes:     capMBps * 1e6 * 5400, // 90 minutes at full edge speed
		singleProb:   0.03 + rng.Float64()*0.15,
		medianFileMB: math.Exp(3.4 + rng.NormFloat64()*1.5), // ~0.3 MB – 3 GB across edges
		fileSigma:    0.6 + rng.Float64()*0.6,
		dirsPerFiles: 0.02 + rng.Float64()*0.12,
		concWeights:  concWeights,
		parWeights:   parWeights,
		count:        count,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// edgeCapacityMBps estimates the end-to-end ceiling of an edge: the minimum
// of the endpoint NICs, disk bandwidths, and the WAN path.
func edgeCapacityMBps(w *World, src, dst string) float64 {
	s, err := w.Endpoint(src)
	if err != nil {
		return 100
	}
	d, err := w.Endpoint(dst)
	if err != nil {
		return 100
	}
	c := math.Min(s.NICMBps, d.NICMBps)
	c = math.Min(c, s.DiskReadMBps)
	c = math.Min(c, d.DiskWriteMBps)
	c = math.Min(c, w.WANCap(s.Site, d.Site))
	return c
}

// generateEdgeTransfers produces the arrival process for one edge: bursts
// of transfers (workflows submit in batches), each transfer drawing dataset
// shape and tool settings from the edge profile.
func generateEdgeTransfers(p edgeProfile, cfg Config, rng *rand.Rand) []TransferSpec {
	specs := make([]TransferSpec, 0, p.count)
	burstMax := cfg.BurstMax
	if burstMax < 1 {
		burstMax = 1
	}
	t := rng.Float64() * cfg.Horizon / 20
	for len(specs) < p.count && t < cfg.Horizon {
		burst := 1 + rng.Intn(burstMax)
		if burst > p.count-len(specs) {
			burst = p.count - len(specs)
		}
		bt := t
		for b := 0; b < burst; b++ {
			specs = append(specs, randomTransfer(p, bt, rng))
			bt += rng.ExpFloat64() * 45
		}
		// Next burst: keep the mean pace needed to fit `count` bursts of
		// average size into the horizon.
		meanGap := cfg.Horizon / (float64(p.count)/(float64(burstMax+1)/2) + 1)
		t += rng.ExpFloat64() * meanGap
	}
	return specs
}

func randomTransfer(p edgeProfile, start float64, rng *rand.Rand) TransferSpec {
	bytes := lognormal(rng, p.medianBytes, p.sigmaBytes)
	bytes = clamp(bytes, 1e5, p.maxBytes)

	// File count follows from the community's characteristic file size:
	// a transfer with smaller-than-usual files has proportionally more of
	// them, which is what drags its rate down (Figure 5).
	files := 1
	if rng.Float64() > p.singleProb {
		fileMB := lognormal(rng, p.medianFileMB, p.fileSigma)
		fileMB = clamp(fileMB, 0.2, 1e5)
		files = int(clamp(bytes/1e6/fileMB+1, 1, 3e5))
	}
	dirs := int(clamp(float64(files)*p.dirsPerFiles, 0, 2000))
	if dirs < 1 && files > 1 {
		dirs = 1
	}

	return TransferSpec{
		Src:   p.src,
		Dst:   p.dst,
		Start: start,
		Bytes: bytes,
		Files: files,
		Dirs:  dirs,
		Conc:  p.concWeights[rng.Intn(len(p.concWeights))],
		Par:   p.parWeights[rng.Intn(len(p.parWeights))],
	}
}

// lognormal draws a lognormal sample with the given median and log-space
// standard deviation.
func lognormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(rng.NormFloat64()*sigma)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
