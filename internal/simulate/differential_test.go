package simulate

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/logs"
)

// differential_test.go pins the production event core (indexed heaps,
// incremental dirty-component resolution, per-endpoint waiting queues) to
// the reference core (refcore_test.go) byte for byte: same RNG draws, same
// event order, same float results. The property sweep covers random workloads; the tests
// here construct the adversarial structure the sweep rarely hits — mass
// deadline ties, single-slot FIFO queues, chain/retry/chaos interleavings —
// and a fuzz target searches for more.

// diffWorld builds a small contention-heavy world: low CPU knees so the
// process count moves effective disk capacity, background load on every
// endpoint, fault hazard and per-transfer jitter enabled. Two endpoints
// share a site so WAN resources are shared and same-site transfers skip it.
func diffWorld(t testing.TB) *World {
	t.Helper()
	mk := func(id, site string, maxActive int) *Endpoint {
		s, ok := geo.FindSite(site)
		if !ok {
			t.Fatalf("unknown site %s", site)
		}
		return &Endpoint{
			ID: id, Site: s, Type: logs.GCS,
			DiskReadMBps:    900,
			DiskWriteMBps:   700,
			NICMBps:         1250,
			PerProcDiskMBps: 180,
			CPUKnee:         6,
			CPUSteep:        2,
			MaxActive:       maxActive,
			Bg:              BgConfig{MaxFrac: 0.5, MeanInterval: 1800},
		}
	}
	return NewWorld([]*Endpoint{
		mk("a", "ANL", 3),
		mk("b", "BNL", 2),
		mk("c", "NERSC", 2),
		mk("d", "ANL", 1),
	})
}

// runDiffPair runs the same setup through both engine cores, serial and
// component-sharded, and requires byte-identical CSV logs and identical
// run stats across all four modes.
func runDiffPair(t *testing.T, w *World, setup func(e *Engine)) {
	t.Helper()
	modes := []struct {
		ref    bool
		shards int
	}{{false, 1}, {true, 1}, {false, 4}, {true, 4}}
	out := make([][]byte, len(modes))
	st := make([]Stats, len(modes))
	for mode, m := range modes {
		eng := NewEngine(w, 42)
		setReference(eng, m.ref)
		eng.SetShards(m.shards)
		setup(eng)
		l, err := eng.Run()
		if err != nil {
			t.Fatalf("ref=%v shards=%d: %v", m.ref, m.shards, err)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("ref=%v shards=%d: %v", m.ref, m.shards, err)
		}
		var buf bytes.Buffer
		if err := l.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		out[mode] = buf.Bytes()
		st[mode] = eng.Stats()
	}
	for mode := 1; mode < len(modes); mode++ {
		if !bytes.Equal(out[0], out[mode]) {
			t.Errorf("ref=%v shards=%d log diverged from optimized serial log",
				modes[mode].ref, modes[mode].shards)
		}
		if st[0] != st[mode] {
			t.Errorf("ref=%v shards=%d stats %+v diverged from %+v",
				modes[mode].ref, modes[mode].shards, st[mode], st[0])
		}
	}
	checkEngineDigest(t, out[0], st[0])
}

// TestDifferentialContention drives overlapping transfers through CPU
// contention, background resamples, fault stalls, jittered rates, and a
// closed-loop chain — the full set of dirty-marking events short of chaos.
func TestDifferentialContention(t *testing.T) {
	w := diffWorld(t)
	runDiffPair(t, w, func(e *Engine) {
		ids := []string{"a", "b", "c", "d"}
		for i := 0; i < 28; i++ {
			src, dst := ids[i%4], ids[(i+1+i/4)%4]
			if src == dst {
				dst = ids[(i+2)%4]
			}
			e.Submit(TransferSpec{
				Src: src, Dst: dst,
				Start: float64(i%7) * 900,
				Bytes: 2e9 + float64(i)*3e8,
				Files: 1 + i%40, Conc: 1 + i%4, Par: 1 + i%8,
			})
		}
		// Same-endpoint transfer: disk-only resource set, srcIdx == dstIdx.
		e.Submit(TransferSpec{Src: "a", Dst: "a", Start: 100, Bytes: 5e9, Files: 10, Conc: 2, Par: 2})
		// Testbed-style partial resource sets.
		e.Submit(TransferSpec{Src: "b", Dst: "c", Start: 200, Bytes: 4e9, Files: 4, Conc: 2, Par: 4, SkipSrcDisk: true})
		e.Submit(TransferSpec{Src: "c", Dst: "b", Start: 300, Bytes: 4e9, Files: 4, Conc: 2, Par: 4, SkipDstDisk: true})
		e.SubmitChain(
			TransferSpec{Src: "a", Dst: "c", Start: 0, Bytes: 1e9, Files: 2, Conc: 2, Par: 4},
			TransferSpec{Src: "c", Dst: "a", Bytes: 1e9, Files: 2, Conc: 2, Par: 4},
			TransferSpec{Src: "a", Dst: "c", Bytes: 1e9, Files: 2, Conc: 2, Par: 4},
		)
	})
}

// TestDifferentialDeadlineTies is the heap-adversarial case: zero setup
// time and identical specs submitted at identical quantized instants, so
// phase transitions and completion deadlines collide in large groups and
// single-slot endpoints force long FIFO cascades at one timestamp.
func TestDifferentialDeadlineTies(t *testing.T) {
	w := diffWorld(t)
	w.SetupTime = 0
	w.PerFileCost = 0
	w.PerDirCost = 0
	w.JitterSigma = 0 // identical rates → exactly simultaneous completions
	runDiffPair(t, w, func(e *Engine) {
		ids := []string{"a", "b", "c", "d"}
		for i := 0; i < 24; i++ {
			e.Submit(TransferSpec{
				Src: ids[i%4], Dst: ids[(i+1)%4],
				Start: float64(i % 3), // three big arrival ties
				Bytes: 1e9,            // equal payloads → completion ties
				Files: 4, Conc: 2, Par: 4,
			})
		}
	})
}

// TestDifferentialChaos exercises every chaos boundary against both cores:
// an abort outage (retry backoff timers, abandonment), a stall outage, a
// WAN capacity window over lazily created paths, and a fault storm, all
// overlapping a queued workload.
func TestDifferentialChaos(t *testing.T) {
	w := diffWorld(t)
	w.MaxRetries = 2
	w.RetryBackoffBase = 60
	plan := &ChaosPlan{
		Outages: []OutageEvent{
			{EndpointID: "b", Start: 2000, End: 9000, Abort: true},
			{EndpointID: "c", Start: 4000, End: 12000, Abort: false},
		},
		WANFaults: []WANFault{
			{SiteA: "ANL", SiteB: "BNL", Start: 1000, End: 30000, CapFactor: 0.25},
		},
		Storms: []FaultStorm{
			{Start: 0, End: 20000, HazardFactor: 25},
		},
	}
	runDiffPair(t, w, func(e *Engine) {
		ids := []string{"a", "b", "c", "d"}
		for i := 0; i < 30; i++ {
			e.Submit(TransferSpec{
				Src: ids[i%4], Dst: ids[(i+2)%4],
				Start: float64(i) * 400,
				Bytes: 3e9,
				Files: 8, Conc: 2, Par: 4,
			})
		}
		if err := e.SetChaos(plan); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDifferentialSharded builds a world whose traffic genuinely splits
// into multiple resource-sharing components — including two endpoints at
// the same site whose paths never share a WAN resource — and drives
// chaos whose scope spans shards: per-component outages (abort and
// stall), a path-scoped WAN fault, an all-paths WAN fault, and a global
// storm. The sharded merge must be byte-identical to the serial run at
// every shard count, including counts above the component count.
func TestDifferentialSharded(t *testing.T) {
	mk := func(id, site string, maxActive int) *Endpoint {
		s, ok := geo.FindSite(site)
		if !ok {
			t.Fatalf("unknown site %s", site)
		}
		return &Endpoint{
			ID: id, Site: s, Type: logs.GCS,
			DiskReadMBps:    900,
			DiskWriteMBps:   700,
			NICMBps:         1250,
			PerProcDiskMBps: 180,
			CPUKnee:         6,
			CPUSteep:        2,
			MaxActive:       maxActive,
			Bg:              BgConfig{MaxFrac: 0.5, MeanInterval: 1800},
		}
	}
	w := NewWorld([]*Endpoint{
		// Component 1: g1a <-> g1b over ANL|BNL.
		mk("g1a", "ANL", 2), mk("g1b", "BNL", 2),
		// Component 2: g2a <-> g2b over NERSC|ORNL.
		mk("g2a", "NERSC", 1), mk("g2b", "ORNL", 2),
		// Component 3: g3a -> g3b over LBL|CERN, plus g3c at ANL — same
		// site as g1a, but its only path is ANL|LBL, so it shares no
		// resource with component 1.
		mk("g3a", "LBL", 2), mk("g3b", "CERN", 2), mk("g3c", "ANL", 1),
		// Idle endpoint: belongs to no component, must not break merge.
		mk("idle", "TACC", 2),
	})
	w.MaxRetries = 2
	w.RetryBackoffBase = 60
	plan := &ChaosPlan{
		Outages: []OutageEvent{
			{EndpointID: "g1b", Start: 2000, End: 9000, Abort: true},
			{EndpointID: "g2a", Start: 4000, End: 12000, Abort: false},
		},
		WANFaults: []WANFault{
			{SiteA: "LBL", SiteB: "CERN", Start: 1000, End: 30000, CapFactor: 0.25},
			{Start: 5000, End: 20000, CapFactor: 0.6}, // all paths
		},
		Storms: []FaultStorm{{Start: 0, End: 25000, HazardFactor: 25}},
	}
	pairs := [][2]string{{"g1a", "g1b"}, {"g2a", "g2b"}, {"g3a", "g3b"}, {"g3c", "g3a"}}
	setup := func(e *Engine) {
		for i := 0; i < 36; i++ {
			p := pairs[i%len(pairs)]
			src, dst := p[0], p[1]
			if i%7 == 3 {
				src, dst = dst, src
			}
			e.Submit(TransferSpec{
				Src: src, Dst: dst,
				Start: float64(i%9) * 700,
				Bytes: 2e9 + float64(i)*2.5e8,
				Files: 1 + i%30, Conc: 1 + i%4, Par: 1 + i%8,
			})
		}
		// Closed-loop chain inside component 2.
		e.SubmitChain(
			TransferSpec{Src: "g2a", Dst: "g2b", Start: 0, Bytes: 1e9, Files: 2, Conc: 2, Par: 4},
			TransferSpec{Src: "g2b", Dst: "g2a", Bytes: 1e9, Files: 2, Conc: 2, Par: 4},
			TransferSpec{Src: "g2a", Dst: "g2b", Bytes: 1e9, Files: 2, Conc: 2, Par: 4},
		)
		if err := e.SetChaos(plan); err != nil {
			t.Fatal(err)
		}
	}

	var serial []byte
	var serialStats Stats
	for _, shards := range []int{1, 2, 3, 8} {
		eng := NewEngine(w, 42)
		eng.SetShards(shards)
		setup(eng)
		l, err := eng.Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var buf bytes.Buffer
		if err := l.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			serial = buf.Bytes()
			serialStats = eng.Stats()
			checkEngineDigest(t, serial, serialStats)
			continue
		}
		if !bytes.Equal(serial, buf.Bytes()) {
			t.Errorf("shards=%d log diverged from serial log", shards)
		}
		if got := eng.Stats(); got != serialStats {
			t.Errorf("shards=%d stats %+v diverged from serial %+v", shards, got, serialStats)
		}
	}
}

// intervalRec captures one monitor callback with a deep copy of the loads.
type intervalRec struct {
	t0, t1 float64
	loads  []EndpointLoad
}

type recordingMonitor struct{ recs []intervalRec }

func (m *recordingMonitor) OnInterval(t0, t1 float64, loads []EndpointLoad) {
	cp := make([]EndpointLoad, len(loads))
	copy(cp, loads)
	m.recs = append(m.recs, intervalRec{t0, t1, cp})
}

// TestDifferentialMonitor pins the monitor view: both cores must report
// exactly the same interval sequence and bit-identical endpoint loads —
// the snapshot path reads the incrementally maintained procsAt/resLoad —
// and both runs must pass CheckInvariants, which is where the reference
// core's per-step heap check reports.
func TestDifferentialMonitor(t *testing.T) {
	w := diffWorld(t)
	var mons [2]*recordingMonitor
	for mode, ref := range []bool{false, true} {
		eng := NewEngine(w, 7)
		setReference(eng, ref)
		eng.SetShards(4) // a monitor forces the serial path; must be a no-op
		mon := &recordingMonitor{}
		eng.SetMonitor(mon)
		ids := []string{"a", "b", "c", "d"}
		for i := 0; i < 12; i++ {
			eng.Submit(TransferSpec{
				Src: ids[i%4], Dst: ids[(i+1)%4],
				Start: float64(i) * 600,
				Bytes: 2e9,
				Files: 5, Conc: 2, Par: 4,
			})
		}
		if _, err := eng.Run(); err != nil {
			t.Fatalf("ref=%v: %v", ref, err)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("ref=%v: %v", ref, err)
		}
		mons[mode] = mon
	}
	if len(mons[0].recs) != len(mons[1].recs) {
		t.Fatalf("interval count mismatch: optimized %d vs reference %d", len(mons[0].recs), len(mons[1].recs))
	}
	for i := range mons[0].recs {
		a, b := mons[0].recs[i], mons[1].recs[i]
		if a.t0 != b.t0 || a.t1 != b.t1 {
			t.Fatalf("interval %d bounds mismatch: [%v,%v) vs [%v,%v)", i, a.t0, a.t1, b.t0, b.t1)
		}
		for j := range a.loads {
			if a.loads[j] != b.loads[j] {
				t.Fatalf("interval %d endpoint %d load mismatch:\n%+v\n%+v", i, j, a.loads[j], b.loads[j])
			}
		}
	}
}

// FuzzEngineSchedules searches for schedules that split the two cores:
// the fuzzer controls the arrival quantum (coarser quanta → more
// simultaneous deadlines), slot pressure, chaos, and the workload shape;
// every interesting input must still produce byte-identical logs.
func FuzzEngineSchedules(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(1), uint8(1), true, true)
	f.Add(int64(2), uint8(20), uint8(0), uint8(2), false, false)
	f.Add(int64(3), uint8(16), uint8(3), uint8(0), true, false)
	f.Add(int64(4), uint8(24), uint8(2), uint8(1), false, true)

	f.Fuzz(func(t *testing.T, seed int64, n, quant, slots uint8, chaosOn, abort bool) {
		nx := int(n%24) + 2
		q := float64(quant%4) + 1 // arrival quantum, seconds
		maxActive := int(slots%3) + 1
		meta := rand.New(rand.NewSource(seed))

		w := diffWorld(t)
		w.SetupTime = float64(quant % 2) // 0 → phase-end ties with arrivals
		for _, ep := range w.Endpoints {
			ep.MaxActive = maxActive
		}
		var plan *ChaosPlan
		if chaosOn {
			plan = &ChaosPlan{
				Outages: []OutageEvent{{
					EndpointID: []string{"a", "b", "c", "d"}[meta.Intn(4)],
					Start:      q * float64(meta.Intn(10)), // collides with arrival ticks
					End:        q*float64(meta.Intn(10)) + 5000,
					Abort:      abort,
				}},
				Storms: []FaultStorm{{Start: 0, End: 10000, HazardFactor: 1 + float64(meta.Intn(40))}},
			}
		}

		// Mode 2 runs the optimized core component-sharded; the shard count
		// rides on the seed so the fuzzer explores 2..5 without widening the
		// (committed) corpus signature.
		var out [3][]byte
		for mode, ref := range []bool{false, true, false} {
			eng := NewEngine(w, seed)
			setReference(eng, ref)
			if mode == 2 {
				eng.SetShards(2 + int(uint64(seed)&3))
			}
			gen := rand.New(rand.NewSource(seed + 1))
			ids := []string{"a", "b", "c", "d"}
			for i := 0; i < nx; i++ {
				src := ids[gen.Intn(4)]
				dst := ids[gen.Intn(4)]
				eng.Submit(TransferSpec{
					Src: src, Dst: dst,
					Start: q * float64(gen.Intn(8)),
					Bytes: 1e8 + float64(gen.Intn(5))*1e9,
					Files: 1 + gen.Intn(12),
					Conc:  1 + gen.Intn(4),
					Par:   1 + gen.Intn(8),
				})
			}
			if plan != nil {
				if err := eng.SetChaos(plan); err != nil {
					t.Fatal(err)
				}
			}
			l, err := eng.Run()
			if err != nil {
				t.Fatalf("ref=%v: %v", ref, err)
			}
			if err := eng.CheckInvariants(); err != nil {
				t.Fatalf("ref=%v: %v", ref, err)
			}
			var buf bytes.Buffer
			if err := l.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			out[mode] = buf.Bytes()
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Error("optimized log diverged from reference log")
		}
		if !bytes.Equal(out[0], out[2]) {
			t.Error("sharded log diverged from serial log")
		}
	})
}

// TestEngineHeapOrdering unit-tests the indexed heap itself: updates,
// removals, and min tracking against a linear-scan oracle.
func TestEngineHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var h indexedHeap
	keys := map[int]float64{}
	oracleMin := func() float64 {
		m := inf()
		for _, k := range keys {
			if k < m {
				m = k
			}
		}
		return m
	}
	for step := 0; step < 5000; step++ {
		id := rng.Intn(60)
		switch rng.Intn(3) {
		case 0, 1:
			k := rng.Float64() * 1000
			if rng.Intn(10) == 0 {
				k = inf() // Inf keys park idle sources in the heap
			}
			h.update(id, k)
			keys[id] = k
		case 2:
			h.remove(id)
			delete(keys, id)
		}
		if got, want := h.min(), oracleMin(); got != want {
			t.Fatalf("step %d: heap min %v, oracle %v (%s)", step, got, want, fmt.Sprint(keys))
		}
	}
}

func inf() float64 { return math.Inf(1) }
