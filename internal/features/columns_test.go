package features

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/logs"
	"repro/internal/logs/colfmt"
)

// randomBusyLog builds a log with heavy overlap across a handful of
// endpoints so every feature accumulates nontrivial sums.
func randomBusyLog(n int, seed int64) *logs.Log {
	rng := rand.New(rand.NewSource(seed))
	eps := []string{"a", "b", "c", "d", "e"}
	l := logs.NewLog()
	for _, id := range eps {
		l.AddEndpoint(logs.Endpoint{ID: id, Site: "ANL", Type: logs.GCS})
	}
	for i := 0; i < n; i++ {
		s := eps[rng.Intn(len(eps))]
		d := eps[rng.Intn(len(eps))]
		for d == s {
			d = eps[rng.Intn(len(eps))]
		}
		ts := rng.Float64() * 5000
		l.Append(logs.Record{
			ID:     i + 1,
			Src:    s,
			Dst:    d,
			Ts:     ts,
			Te:     ts + 1 + rng.Float64()*800,
			Bytes:  1e7 + rng.Float64()*1e10,
			Files:  1 + rng.Intn(200),
			Dirs:   rng.Intn(20),
			Conc:   1 + rng.Intn(8),
			Par:    1 + rng.Intn(8),
			Faults: rng.Intn(4),
		})
	}
	return l
}

// TestEngineerColumnsMatchesRows pins the columnar feature path to the
// row path: the same records, routed through the columnar container,
// must produce bitwise-identical vectors — same candidate windows, same
// overlap fractions, same accumulation order.
func TestEngineerColumnsMatchesRows(t *testing.T) {
	for _, seed := range []int64{1, 7, 20260808} {
		l := randomBusyLog(400, seed)
		var buf bytes.Buffer
		if err := colfmt.WriteLog(&buf, l); err != nil {
			t.Fatal(err)
		}
		tab, _, err := colfmt.ReadTable(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		rowVecs := Engineer(l)
		colVecs := EngineerColumns(tab)
		if len(rowVecs) != len(colVecs) {
			t.Fatalf("seed %d: %d row vectors vs %d column vectors", seed, len(rowVecs), len(colVecs))
		}
		for i := range rowVecs {
			if rowVecs[i] != colVecs[i] {
				t.Fatalf("seed %d: vector %d differs\nrow: %+v\ncol: %+v", seed, i, rowVecs[i], colVecs[i])
			}
			// Both paths sort by (Ts, ID); the vectors must describe the
			// same transfer.
			if l.Records[rowVecs[i].RecordIdx].ID != int(tab.ID[colVecs[i].RecordIdx]) {
				t.Fatalf("seed %d: vector %d indexes different records", seed, i)
			}
		}
	}
}

// TestEngineerColumnsWideStreams pins the column path to the row path
// when a competitor drives more than 2^31 TCP streams: min(C, Nf) × P
// must not wrap in the table's int32 columns.
func TestEngineerColumnsWideStreams(t *testing.T) {
	l := logs.NewLog()
	l.Append(logs.Record{ID: 1, Src: "a", Dst: "b", Ts: 0, Te: 100, Bytes: 1e9, Files: 1, Conc: 1, Par: 1})
	l.Append(logs.Record{ID: 2, Src: "a", Dst: "c", Ts: 50, Te: 150, Bytes: 1e9, Files: 70000, Conc: 70000, Par: 70000})
	var buf bytes.Buffer
	if err := colfmt.WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	tab, _, err := colfmt.ReadTable(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := Engineer(l), EngineerColumns(tab)
	if want := 0.5 * 70000 * 70000; rows[0].Ssout != want {
		t.Fatalf("row path Ssout = %v, want %v", rows[0].Ssout, want)
	}
	for i := range rows {
		if rows[i] != cols[i] {
			t.Fatalf("vector %d differs\nrow: %+v\ncol: %+v", i, rows[i], cols[i])
		}
	}
}

// TestEngineerColumnsSerialMatches pins the columnar pool path to a
// single-worker run, mirroring the row path's serial-equivalence test.
func TestEngineerColumnsSerialMatches(t *testing.T) {
	l := randomBusyLog(200, 99)
	var buf bytes.Buffer
	if err := colfmt.WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	tab1, _, err := colfmt.ReadTable(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tab2, _, err := colfmt.ReadTable(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	par := engineerColumns(tab1, 8)
	ser := engineerColumns(tab2, 1)
	for i := range par {
		if par[i] != ser[i] {
			t.Fatalf("vector %d differs between 8 workers and 1", i)
		}
	}
}
