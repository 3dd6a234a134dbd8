package simulate

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// randomConfig derives a small but varied workload configuration from the
// shared meta-RNG. Worlds stay tiny (a few heavy edges, a few days) so the
// sweep over many of them finishes in seconds.
func randomConfig(meta *rand.Rand) Config {
	return Config{
		Seed:               meta.Int63n(1 << 30),
		Horizon:            float64(2+meta.Intn(5)) * 24 * 3600,
		HeavyEdges:         2 + meta.Intn(4),
		HeavyTransfersMean: 40 + meta.Float64()*160,
		TailEdges:          meta.Intn(12),
		TailTransfersMax:   1 + meta.Intn(5),
		HubEndpoints:       4 + meta.Intn(5),
		PersonalEndpoints:  meta.Intn(7),
		NoisyFrac:          meta.Float64() * 0.9,
		BurstMax:           1 + meta.Intn(4),
	}
}

// randomPlan builds a disruption plan against the world cfg generates:
// a fault storm over the first third of the horizon plus one endpoint
// outage. Generate is deterministic in cfg, so probing it here yields the
// same endpoint IDs the real run will see.
func randomPlan(t *testing.T, cfg Config, meta *rand.Rand) *ChaosPlan {
	t.Helper()
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := g.World.EndpointIDs()
	if len(ids) == 0 {
		return nil
	}
	return &ChaosPlan{
		Storms: []FaultStorm{{Start: 0, End: cfg.Horizon / 3, HazardFactor: 5 + meta.Float64()*30}},
		Outages: []OutageEvent{{
			EndpointID: ids[meta.Intn(len(ids))],
			Start:      cfg.Horizon / 4,
			End:        cfg.Horizon / 2,
			Abort:      meta.Intn(2) == 0,
		}},
	}
}

// TestPropertyRandomWorlds is the simulator's property-based sweep: across
// many random configurations (a third of them under chaos plans), every
// run must satisfy the engine's invariants and the log-consistency checks,
// and an instrumented re-run with the same seed must produce a
// byte-identical log — the determinism contract the observability layer
// promises to preserve.
func TestPropertyRandomWorlds(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 10
	}
	meta := rand.New(rand.NewSource(20260805))
	for i := 0; i < n; i++ {
		cfg := randomConfig(meta)
		var plan *ChaosPlan
		if i%3 == 0 {
			plan = randomPlan(t, cfg, meta)
		}
		t.Run(fmt.Sprintf("cfg%02d", i), func(t *testing.T) {
			runOnce := func(reg *obs.Registry, ref bool, shards int) ([]byte, Stats) {
				t.Helper()
				g, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng := NewEngine(g.World, cfg.Seed+1)
				setReference(eng, ref)
				eng.SetShards(shards)
				eng.SetObs(reg)
				eng.Submit(g.Specs...)
				if err := eng.SetChaos(plan); err != nil {
					t.Fatal(err)
				}
				l, err := eng.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.CheckInvariants(); err != nil {
					t.Fatalf("config %+v: %v", cfg, err)
				}
				if err := CheckLog(l); err != nil {
					t.Fatalf("config %+v: %v", cfg, err)
				}
				var buf bytes.Buffer
				if err := l.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), eng.Stats()
			}

			plain, plainStats := runOnce(nil, false, 1)
			checkEngineDigest(t, plain, plainStats)
			reg := obs.NewRegistry()
			instrumented, _ := runOnce(reg, false, 1)
			if !bytes.Equal(plain, instrumented) {
				t.Error("instrumented run diverged from plain run with the same seed")
			}
			if s := reg.Snapshot(); s.Counters["sim.events"] == 0 {
				t.Error("instrumented run recorded no engine events")
			}
			// The optimized event core (indexed heaps + dirty-component
			// resolution) must be byte-identical to the reference core on
			// every config — same RNG draws, same event order, same floats.
			reference, refStats := runOnce(nil, true, 1)
			if !bytes.Equal(plain, reference) {
				t.Error("optimized engine log diverged from reference engine log")
			}
			if plainStats != refStats {
				t.Errorf("optimized stats %+v diverged from reference stats %+v", plainStats, refStats)
			}
			// The component-sharded driver must reproduce the serial log
			// byte for byte at every shard count, chaos plans included
			// (DESIGN.md §12). Submitted is counted by the parent either
			// way, so whole-Stats equality holds too.
			for _, shards := range []int{2, 4} {
				sharded, shardedStats := runOnce(nil, false, shards)
				if !bytes.Equal(plain, sharded) {
					t.Errorf("shards=%d log diverged from serial log", shards)
				}
				if plainStats != shardedStats {
					t.Errorf("shards=%d stats %+v diverged from serial stats %+v", shards, shardedStats, plainStats)
				}
			}
		})
	}
}
