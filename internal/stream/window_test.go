package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/features"
	"repro/internal/logs"
	"repro/internal/logs/colfmt"
	"repro/internal/simulate"
)

// diffWindow compares the window's incremental vectors against a from-
// scratch batch engineering of the same records, field for field.
func diffWindow(t *testing.T, w *Window, where string) {
	t.Helper()
	got := w.Vectors()
	want := features.Engineer(w.Records())
	if len(got) != len(want) {
		t.Fatalf("%s: window has %d vectors, batch has %d", where, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: vector %d diverges\nincremental: %+v\nbatch:       %+v", where, i, got[i], want[i])
		}
	}
}

// TestWindowMatchesBatchEveryAdd feeds a small random log record by
// record, past capacity so eviction churns, and demands the incremental
// vectors equal the batch path's bit for bit after every single add.
func TestWindowMatchesBatchEveryAdd(t *testing.T) {
	cfg := simulate.Config{
		Seed: 7, Horizon: 24 * 3600, HeavyEdges: 3, HeavyTransfersMean: 40,
		TailEdges: 4, TailTransfersMax: 3, HubEndpoints: 5, PersonalEndpoints: 3,
		NoisyFrac: 0.5, BurstMax: 3,
	}
	l, _, err := simulate.GenerateLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) < 50 {
		t.Fatalf("world too small for the test: %d records", len(l.Records))
	}
	w := NewWindow(len(l.Records) / 3)
	for i, r := range l.Records {
		evicted := w.Add(r)
		if w.Len() > w.Cap() {
			t.Fatalf("add %d: window holds %d > capacity %d", i, w.Len(), w.Cap())
		}
		if i >= w.Cap() && len(evicted) == 0 {
			t.Fatalf("add %d: full window evicted nothing", i)
		}
		diffWindow(t, w, fmt.Sprintf("after add %d", i))
	}
	st := w.Stats()
	if st.Added != uint64(len(l.Records)) {
		t.Fatalf("Added = %d, want %d", st.Added, len(l.Records))
	}
	if st.Evicted != st.Added-uint64(w.Len()) {
		t.Fatalf("Evicted = %d, want %d", st.Evicted, st.Added-uint64(w.Len()))
	}
	if st.CacheHits == 0 {
		t.Fatal("incremental maintenance never served a cached vector — it is recomputing everything")
	}
}

// TestWindowDifferentialSweep is the streaming layer's property sweep:
// across many random worlds (every third under a chaos plan, so retries
// and faults appear in the stream), the incremental window must match
// batch feature engineering exactly at every refresh boundary, including
// once the window is saturated and evicting. One boundary per config is
// additionally checked against the columnar EngineerColumns path.
func TestWindowDifferentialSweep(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 10
	}
	meta := rand.New(rand.NewSource(20260808))
	for i := 0; i < n; i++ {
		cfg := simulate.Config{
			Seed:               meta.Int63n(1 << 30),
			Horizon:            float64(1+meta.Intn(3)) * 24 * 3600,
			HeavyEdges:         2 + meta.Intn(3),
			HeavyTransfersMean: 30 + meta.Float64()*90,
			TailEdges:          meta.Intn(8),
			TailTransfersMax:   1 + meta.Intn(4),
			HubEndpoints:       4 + meta.Intn(4),
			PersonalEndpoints:  meta.Intn(5),
			NoisyFrac:          meta.Float64() * 0.9,
			BurstMax:           1 + meta.Intn(3),
		}
		var plan *simulate.ChaosPlan
		if i%3 == 0 {
			plan = &simulate.ChaosPlan{
				Storms: []simulate.FaultStorm{{Start: 0, End: cfg.Horizon / 3, HazardFactor: 5 + meta.Float64()*25}},
			}
		}
		capFrac := 2 + meta.Intn(3) // capacity = len/capFrac → saturation + eviction
		t.Run(fmt.Sprintf("cfg%02d", i), func(t *testing.T) {
			l, _, _, err := simulate.GenerateLogChaos(t.Context(), cfg, plan)
			if err != nil {
				t.Fatal(err)
			}
			if len(l.Records) < 20 {
				t.Skip("world too small")
			}
			if plan != nil {
				var retries int
				for _, r := range l.Records {
					retries += r.Retries
				}
				if retries == 0 {
					t.Log("chaos plan produced no retries in this world")
				}
			}
			w := NewWindow(len(l.Records) / capFrac)
			step := len(l.Records) / 8
			if step < 1 {
				step = 1
			}
			for k, r := range l.Records {
				w.Add(r)
				if (k+1)%step == 0 {
					diffWindow(t, w, fmt.Sprintf("boundary at record %d", k+1))
				}
			}
			diffWindow(t, w, "final boundary")

			// The columnar read path engineers the same vectors.
			var buf bytes.Buffer
			if err := colfmt.WriteLog(&buf, w.Records()); err != nil {
				t.Fatal(err)
			}
			tb, _, err := colfmt.ReadTable(&buf)
			if err != nil {
				t.Fatal(err)
			}
			tb.SortByStart()
			colVecs := features.EngineerColumns(tb)
			incVecs := w.Vectors()
			if len(colVecs) != len(incVecs) {
				t.Fatalf("columnar path has %d vectors, window has %d", len(colVecs), len(incVecs))
			}
			for j := range colVecs {
				if colVecs[j] != incVecs[j] {
					t.Fatalf("columnar vector %d diverges\nincremental: %+v\ncolumnar:    %+v", j, incVecs[j], colVecs[j])
				}
			}
		})
	}
}

// TestWindowTieOrdering pins the stable-sort contract: records with equal
// (Ts, ID) must keep arrival order, exactly as logs.Log.SortByStart's
// stable sort would leave them.
func TestWindowTieOrdering(t *testing.T) {
	base := logs.Record{Src: "S1", Dst: "D1", Ts: 100, Te: 200, Bytes: 1e9, Files: 1, Conc: 1, Par: 1}
	w := NewWindow(16)
	l := logs.NewLog()
	for i := 0; i < 6; i++ {
		r := base
		r.ID = i % 2 // duplicate IDs at the same Ts
		w.Add(r)
		l.Append(r)
		got := w.Vectors()
		want := features.Engineer(l)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("after add %d: vector %d diverges: %+v vs %+v", i, j, got[j], want[j])
			}
		}
	}
}

// checkIndex checks the window's endpoint index against a batch index
// built from scratch over w.Records(), the way features.Engineer builds
// one: the residents are in (Ts, ID) order; each endpoint list holds the
// batch list's records in the batch order, with the running maximum end
// of a fresh scan; From agrees with the batch index for every resident;
// only endpoints with residents keep an entry; and every slot is either
// resident or free.
func checkIndex(t testing.TB, w *Window, where string) {
	t.Helper()
	recs := w.Records().Records
	batch := map[string]*features.Endpoint{}
	get := func(id string) *features.Endpoint {
		if batch[id] == nil {
			batch[id] = &features.Endpoint{}
		}
		return batch[id]
	}
	for i := range recs {
		r := &recs[i]
		if i > 0 && (r.Ts < recs[i-1].Ts || r.Ts == recs[i-1].Ts && r.ID < recs[i-1].ID) {
			t.Fatalf("%s: resident %d sorts before resident %d", where, i, i-1)
		}
		s, d := &get(r.Src).AsSrc, &get(r.Dst).AsDst
		s.Insert(len(s.IDs), int32(i), r.Te)
		d.Insert(len(d.IDs), int32(i), r.Te)
	}
	if len(w.eps) != len(batch) {
		t.Fatalf("%s: window indexes %d endpoints, its residents use %d", where, len(w.eps), len(batch))
	}
	if len(w.slots) != len(w.order)+len(w.free) {
		t.Fatalf("%s: %d slots, %d resident and %d free", where, len(w.slots), len(w.order), len(w.free))
	}
	pos := make(map[int32]int32, len(w.order))
	for k, s := range w.order {
		pos[s] = int32(k)
	}
	for id, b := range batch {
		e := w.eps[id]
		if e == nil {
			t.Fatalf("%s: endpoint %q has residents but no index entry", where, id)
		}
		for _, l := range [2][2]*features.EpList{{&e.AsSrc, &b.AsSrc}, {&e.AsDst, &b.AsDst}} {
			wl, bl := l[0], l[1]
			if len(wl.IDs) != len(bl.IDs) || len(wl.MaxEnd) != len(wl.IDs) {
				t.Fatalf("%s: endpoint %q list holds %d ids and %d maxima, batch holds %d",
					where, id, len(wl.IDs), len(wl.MaxEnd), len(bl.IDs))
			}
			var m float64
			for j, s := range wl.IDs {
				if pos[s] != bl.IDs[j] {
					t.Fatalf("%s: endpoint %q list entry %d is resident %d, batch has %d", where, id, j, pos[s], bl.IDs[j])
				}
				if te := w.load.Te[s]; j == 0 || te > m {
					m = te
				}
				if wl.MaxEnd[j] != m {
					t.Fatalf("%s: endpoint %q MaxEnd[%d] = %v, running maximum is %v", where, id, j, wl.MaxEnd[j], m)
				}
			}
		}
	}
	for k := range recs {
		r := &recs[k]
		for _, id := range [2]string{r.Src, r.Dst} {
			e, b := w.eps[id], batch[id]
			if e.AsSrc.From(r.Ts) != b.AsSrc.From(r.Ts) || e.AsDst.From(r.Ts) != b.AsDst.From(r.Ts) {
				t.Fatalf("%s: resident %d: From at endpoint %q differs from the batch index", where, k, id)
			}
		}
	}
}

// TestWindowIndexInvariants replays a small random log past capacity and
// checks the endpoint index after every add, then drains the window one
// eviction at a time and checks it after each.
func TestWindowIndexInvariants(t *testing.T) {
	cfg := simulate.Config{
		Seed: 11, Horizon: 24 * 3600, HeavyEdges: 3, HeavyTransfersMean: 40,
		TailEdges: 6, TailTransfersMax: 3, HubEndpoints: 5, PersonalEndpoints: 4,
		NoisyFrac: 0.5, BurstMax: 3,
	}
	l, _, err := simulate.GenerateLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWindow(len(l.Records) / 4)
	for i, r := range l.Records {
		w.Add(r)
		checkIndex(t, w, fmt.Sprintf("after add %d", i))
	}
	for w.Len() > 0 {
		w.evictOldest()
		checkIndex(t, w, fmt.Sprintf("after eviction to %d residents", w.Len()))
		diffWindow(t, w, fmt.Sprintf("after eviction to %d residents", w.Len()))
	}
	if len(w.eps) != 0 {
		t.Fatalf("empty window still indexes %d endpoints", len(w.eps))
	}
}

// TestWindowReleasesEndpoints replays a log whose endpoints churn: every
// few records move to endpoints never seen before. Once a departed
// endpoint's last resident is evicted, its index entry must go too.
func TestWindowReleasesEndpoints(t *testing.T) {
	w := NewWindow(8)
	for i := 0; i < 400; i++ {
		ts := float64(i)
		w.Add(logs.Record{
			ID: i, Src: fmt.Sprintf("src%d", i/3), Dst: fmt.Sprintf("dst%d", i/5),
			Ts: ts, Te: ts + 4, Bytes: 1e8, Files: 2, Conc: 2, Par: 2,
		})
	}
	distinct := map[string]bool{}
	for _, r := range w.Records().Records {
		distinct[r.Src], distinct[r.Dst] = true, true
	}
	if len(w.eps) != len(distinct) {
		t.Fatalf("window indexes %d endpoints, its %d residents use %d", len(w.eps), w.Len(), len(distinct))
	}
	checkIndex(t, w, "after churn")
}

// TestWindowScanWidth pins the window's Eq. 2 scan to the batch scan on
// a SmallConfig replay at the refresh loop's default capacity: the folds
// of every resident visit exactly the candidates a batch index over the
// residents gives. It logs candidates per resident beside the scan the
// window ran before it shared the batch kernel: every competitor
// starting in [Ts − maxDur, Te], with maxDur the longest duration the
// endpoint ever saw.
func TestWindowScanWidth(t *testing.T) {
	l, _, err := simulate.GenerateLog(simulate.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWindow(4096)
	maxDur := map[string]float64{}
	for _, r := range l.Records {
		w.Add(r)
		for _, id := range [2]string{r.Src, r.Dst} {
			maxDur[id] = math.Max(maxDur[id], r.Duration())
		}
	}
	recs := w.Records().Records
	// visits counts the entries of list a fold of r scans from first.
	visits := func(ids []int32, first int, ts func(int32) float64, r *logs.Record) (n int) {
		for _, c := range ids[first:] {
			if ts(c) > r.Te {
				break
			}
			n++
		}
		return n
	}
	batch := map[string]*features.Endpoint{}
	for i := range recs {
		for side, id := range [2]string{recs[i].Src, recs[i].Dst} {
			if batch[id] == nil {
				batch[id] = &features.Endpoint{}
			}
			e := &batch[id].AsSrc
			if side == 1 {
				e = &batch[id].AsDst
			}
			e.Insert(len(e.IDs), int32(i), recs[i].Te)
		}
	}
	winTs := func(s int32) float64 { return w.load.Ts[s] }
	rowTs := func(i int32) float64 { return recs[i].Ts }
	var nWin, nBatch, nOld int
	for k := range recs {
		r := &recs[k]
		for _, id := range [2]string{r.Src, r.Dst} {
			e, b := w.eps[id], batch[id]
			for side, wl := range [2]*features.EpList{&e.AsSrc, &e.AsDst} {
				bl := [2]*features.EpList{&b.AsSrc, &b.AsDst}[side]
				nWin += visits(wl.IDs, wl.From(r.Ts), winTs, r)
				nBatch += visits(bl.IDs, bl.From(r.Ts), rowTs, r)
				old := sort.Search(len(bl.IDs), func(j int) bool { return recs[bl.IDs[j]].Ts >= r.Ts-maxDur[id] })
				nOld += visits(bl.IDs, old, rowTs, r)
			}
		}
	}
	if nWin != nBatch {
		t.Fatalf("window folds visit %d candidates, a batch index over the residents %d", nWin, nBatch)
	}
	n := float64(len(recs))
	t.Logf("%d residents of %d records; candidates per resident: window %.1f, batch %.1f, monotone-maxDur scan %.1f",
		len(recs), len(l.Records), float64(nWin)/n, float64(nBatch)/n, float64(nOld)/n)
}

// fuzzRecLen is the byte length of one record in FuzzWindow's input.
const fuzzRecLen = 12

// fuzzCount decodes a file, concurrency or parallelism count: small
// values as they are, and with the top bit set, a count just above 2^31,
// which the CSV reader accepts.
func fuzzCount(b byte) int {
	if b&0x80 != 0 {
		return int(int64(1)<<31 + int64(b&0x7f))
	}
	return int(b)
}

// decodeWindowInput turns fuzz bytes into a window capacity (1–8) and up
// to 64 records as the lenient readers deliver them: finite times with
// Te ≥ Ts. Six endpoint names, four IDs and quarter-second start times
// make (Ts, ID) ties and self-loops common.
func decodeWindowInput(data []byte) (int, []logs.Record) {
	if len(data) == 0 {
		return 1, nil
	}
	capacity := 1 + int(data[0]%8)
	var recs []logs.Record
	for b := data[1:]; len(b) >= fuzzRecLen && len(recs) < 64; b = b[fuzzRecLen:] {
		ts := float64(uint16(b[3])|uint16(b[4])<<8) / 4
		recs = append(recs, logs.Record{
			ID:     int(b[2] % 4),
			Src:    fmt.Sprintf("e%d", b[0]%6),
			Dst:    fmt.Sprintf("e%d", b[1]%6),
			Ts:     ts,
			Te:     ts + float64(b[5])/4,
			Bytes:  float64(uint16(b[6])|uint16(b[7])<<8) * 1e4,
			Files:  fuzzCount(b[8]),
			Conc:   fuzzCount(b[9]),
			Par:    fuzzCount(b[10]),
			Dirs:   int(b[11] % 8),
			Faults: int(b[11] >> 5),
		})
	}
	return capacity, recs
}

// fuzzRec encodes one record for FuzzWindow's seed corpus.
func fuzzRec(src, dst, id byte, ts uint16, dur, files, conc, par byte) []byte {
	return []byte{src, dst, id, byte(ts), byte(ts >> 8), dur, 0x10, 0x27, files, conc, par, 0x21}
}

// FuzzWindow is the window's differential fuzzer: after every add of a
// decoded record sequence, the incremental vectors must equal batch
// engineering of the residents, and the endpoint index must match one
// built from scratch.
func FuzzWindow(f *testing.F) {
	seed := func(capacity byte, recs ...[]byte) {
		f.Add(append([]byte{capacity}, bytes.Join(recs, nil)...))
	}
	// Equal (Ts, ID) ties at one endpoint pair, arriving out of order.
	seed(3, fuzzRec(0, 1, 1, 40, 20, 2, 2, 2), fuzzRec(0, 1, 1, 40, 8, 1, 3, 1),
		fuzzRec(0, 1, 0, 40, 30, 4, 1, 2), fuzzRec(0, 1, 1, 36, 12, 2, 2, 2), fuzzRec(1, 0, 1, 40, 20, 2, 2, 2))
	// Zero durations, alone and inside longer transfers.
	seed(4, fuzzRec(2, 3, 0, 100, 0, 1, 1, 1), fuzzRec(2, 3, 1, 80, 80, 2, 2, 2),
		fuzzRec(3, 2, 2, 100, 0, 3, 3, 3), fuzzRec(2, 4, 3, 120, 0, 1, 1, 1))
	// Self-loops, which sit in both lists of one endpoint.
	seed(2, fuzzRec(5, 5, 0, 10, 40, 2, 2, 2), fuzzRec(5, 5, 1, 20, 40, 2, 2, 2),
		fuzzRec(5, 0, 2, 30, 10, 1, 1, 1), fuzzRec(0, 5, 3, 25, 40, 2, 1, 3))
	// Files, concurrency and parallelism above 2^31.
	seed(5, fuzzRec(1, 2, 0, 0, 200, 0x81, 0x82, 0x83), fuzzRec(1, 2, 1, 50, 100, 0x90, 0xff, 0x80),
		fuzzRec(2, 1, 2, 60, 60, 0xff, 0x84, 2), fuzzRec(1, 3, 3, 70, 10, 3, 0x85, 0xc0))
	seed(0)

	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, recs := decodeWindowInput(data)
		w := NewWindow(capacity)
		for i, r := range recs {
			w.Add(r)
			where := fmt.Sprintf("after add %d", i)
			diffWindow(t, w, where)
			checkIndex(t, w, where)
		}
	})
}
