package simulate

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/pool"
)

// componentCount is the test's own count of resource-sharing components:
// endpoints joined by a spec, and by a shared directed site-pair path.
func componentCount(g *Generated) int {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if p, ok := parent[x]; ok && p != x {
			r := find(p)
			parent[x] = r
			return r
		}
		parent[x] = x
		return x
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	site := map[string]string{}
	for _, ep := range g.World.Endpoints {
		site[ep.ID] = ep.Site.Name
	}
	used := map[string]bool{}
	for _, s := range g.Specs {
		used[s.Src], used[s.Dst] = true, true
		union(s.Src, s.Dst)
		if s.Src != s.Dst && !s.SkipNetwork {
			union(s.Src, "path "+site[s.Src]+"|"+site[s.Dst])
		}
	}
	roots := map[string]bool{}
	for id := range used {
		roots[find(id)] = true
	}
	return len(roots)
}

// TestShardCountInvariance runs a six-cluster world at worker budgets
// below, at and above its component count: the log bytes, Stats and
// violation list must not depend on the budget, every sharded run must
// launch exactly one sub-engine per component, and sim.components must
// report that count.
func TestShardCountInvariance(t *testing.T) {
	cfg := SmallConfig()
	cfg.Horizon = 3 * 24 * 3600
	cfg.HeavyTransfersMean = 200
	cfg.Clusters = 6
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := componentCount(g)
	if want < cfg.Clusters {
		t.Fatalf("%d components, want at least one per cluster (%d)", want, cfg.Clusters)
	}
	ids := g.World.EndpointIDs()
	plan := &ChaosPlan{
		Outages: []OutageEvent{
			{EndpointID: ids[0], Start: cfg.Horizon / 5, End: cfg.Horizon / 2, Abort: true},
			{EndpointID: g.Specs[len(g.Specs)/2].Dst, Start: g.Specs[len(g.Specs)/2].Start + 1, End: cfg.Horizon / 2},
		},
		WANFaults: []WANFault{{Start: cfg.Horizon / 6, End: cfg.Horizon / 2, CapFactor: 0.4}},
		Storms:    []FaultStorm{{Start: 0, End: cfg.Horizon / 3, HazardFactor: 20}},
	}

	for _, p := range []*ChaosPlan{nil, plan} {
		type result struct {
			log   []byte
			stats Stats
			viol  []string
		}
		var serial result
		for _, shards := range []int{1, 2, 3, 6, 7} {
			reg := obs.NewRegistry()
			pool.SetMetrics(reg)
			eng := NewEngine(g.World, cfg.Seed+1)
			eng.SetShards(shards)
			eng.SetObs(reg)
			eng.Submit(g.Specs...)
			if err := eng.SetChaos(p); err != nil {
				t.Fatal(err)
			}
			l, err := eng.RunContext(context.Background())
			pool.SetMetrics(nil)
			if err != nil {
				t.Fatalf("chaos=%v shards=%d: %v", p != nil, shards, err)
			}
			if err := eng.CheckInvariants(); err != nil {
				t.Fatalf("chaos=%v shards=%d: %v", p != nil, shards, err)
			}
			var buf bytes.Buffer
			if err := l.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			got := result{buf.Bytes(), eng.Stats(), eng.violations}
			if p != nil && (got.stats.OutageAborts == 0 || got.stats.OutageStalls == 0) {
				t.Fatalf("shards=%d: chaos plan hit no transfer: %+v", shards, got.stats)
			}
			if shards == 1 {
				serial = got
				continue
			}
			if !bytes.Equal(got.log, serial.log) {
				t.Errorf("chaos=%v shards=%d: log diverged from serial", p != nil, shards)
			}
			if got.stats != serial.stats {
				t.Errorf("chaos=%v shards=%d: stats %+v, serial %+v", p != nil, shards, got.stats, serial.stats)
			}
			if !slices.Equal(got.viol, serial.viol) {
				t.Errorf("chaos=%v shards=%d: violations %q, serial %q", p != nil, shards, got.viol, serial.viol)
			}
			s := reg.Snapshot()
			if n := s.Gauges["sim.components"]; n != float64(want) {
				t.Errorf("chaos=%v shards=%d: sim.components = %g, want %d", p != nil, shards, n, want)
			}
			if n := s.Counters["pool.tasks"]; n != int64(want) {
				t.Errorf("chaos=%v shards=%d: %d sub-engines ran, want one per component (%d)", p != nil, shards, n, want)
			}
		}
	}
}
