package colfmt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/logs"
)

// refSortLog is the sort.SliceStable code logs.Log.SortByStart replaced,
// kept as the reference its typed in-place sort must match.
func refSortLog(l *logs.Log) {
	sort.SliceStable(l.Records, func(i, j int) bool {
		if l.Records[i].Ts != l.Records[j].Ts {
			return l.Records[i].Ts < l.Records[j].Ts
		}
		return l.Records[i].ID < l.Records[j].ID
	})
}

// refSortTable is the permutation code Table.SortByStart replaced.
func refSortTable(t *Table) {
	perm := make([]int, t.Len())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		i, j := perm[a], perm[b]
		if t.Ts[i] != t.Ts[j] {
			return t.Ts[i] < t.Ts[j]
		}
		return t.ID[i] < t.ID[j]
	})
	rows := make([]row, len(perm))
	for i, p := range perm {
		rows[i] = t.row(p)
	}
	for i, r := range rows {
		t.setRow(i, r)
	}
}

// sortCase is one input row: a start time and an ID. Each row also
// carries its input position in Files, so stability shows in the output.
type sortCase struct {
	ts float64
	id int
}

var sortDict = []string{"a", "b", "c"}

func caseLog(rows []sortCase) *logs.Log {
	l := logs.NewLog()
	for i, r := range rows {
		l.Append(logs.Record{
			ID: r.id, Src: sortDict[i%3], Dst: sortDict[(i+1)%3],
			Ts: r.ts, Te: float64(i), Bytes: float64(i) * 1e6,
			Files: i, Dirs: i % 2, Conc: 1 + i%3, Par: 1 + i%5, Faults: i % 4, Retries: i % 3,
		})
	}
	return l
}

func caseTable(rows []sortCase) *Table {
	t := &Table{Dict: sortDict}
	for i, r := range caseLog(rows).Records {
		t.ID = append(t.ID, int64(r.ID))
		t.Src = append(t.Src, uint32(i%3))
		t.Dst = append(t.Dst, uint32((i+1)%3))
		t.Ts = append(t.Ts, r.Ts)
		t.Te = append(t.Te, r.Te)
		t.Bytes = append(t.Bytes, r.Bytes)
		t.Files = append(t.Files, int32(r.Files))
		t.Dirs = append(t.Dirs, int32(r.Dirs))
		t.Conc = append(t.Conc, int32(r.Conc))
		t.Par = append(t.Par, int32(r.Par))
		t.Faults = append(t.Faults, int32(r.Faults))
		t.Retries = append(t.Retries, int32(r.Retries))
	}
	return t
}

// sameRecord compares every field, Ts and Te by bit pattern so a -0/+0
// swap shows.
func sameRecord(a, b logs.Record) bool {
	ta, tb := a, b
	ta.Ts, tb.Ts, ta.Te, tb.Te = 0, 0, 0, 0
	return ta == tb &&
		math.Float64bits(a.Ts) == math.Float64bits(b.Ts) &&
		math.Float64bits(a.Te) == math.Float64bits(b.Te)
}

// checkSortByStart sorts rows with both new SortByStarts and checks them
// against each other, against the documented order, against MergeByStart
// of the input's sorted pieces, and — when no Ts is NaN, the only case
// the old comparator ordered consistently — against the reference code
// byte for byte.
func checkSortByStart(t *testing.T, rows []sortCase) {
	t.Helper()
	got := caseLog(rows)
	got.SortByStart()
	tab := caseTable(rows)
	tab.SortByStart()

	seen := make([]bool, len(rows))
	for i, r := range got.Records {
		if !sameRecord(tab.Record(i), r) {
			t.Fatalf("row %d: Table %+v, Log %+v", i, tab.Record(i), r)
		}
		if r.Files < 0 || r.Files >= len(rows) || seen[r.Files] {
			t.Fatalf("row %d: input row %d placed twice or out of range", i, r.Files)
		}
		seen[r.Files] = true
		if i == 0 {
			continue
		}
		p := got.Records[i-1]
		// NaN first, then numbers ascending (-0 == +0), then ID, then
		// input position.
		pn, rn := math.IsNaN(p.Ts), math.IsNaN(r.Ts)
		switch {
		case pn && !rn:
		case !pn && rn:
			t.Fatalf("row %d: NaN start after %v", i, p.Ts)
		case !pn && p.Ts != r.Ts:
			if p.Ts > r.Ts {
				t.Fatalf("row %d: start %v after %v", i, r.Ts, p.Ts)
			}
		case p.ID != r.ID:
			if p.ID > r.ID {
				t.Fatalf("row %d: tied start, ID %d after %d", i, r.ID, p.ID)
			}
		case p.Files > r.Files:
			t.Fatalf("row %d: tie (%v, %d) not stable", i, r.Ts, r.ID)
		}
	}

	// Merging the sorted consecutive pieces of the input gives the sort
	// of the whole.
	all := caseLog(rows).Records
	var runs [][]logs.Record
	for lo, step := 0, 1; lo < len(all); lo, step = lo+step, step*2 {
		piece := &logs.Log{Records: all[lo:min(lo+step, len(all))]}
		piece.SortByStart()
		runs = append(runs, piece.Records)
	}
	merged := logs.MergeByStart(nil, runs)
	if len(merged) != len(rows) {
		t.Fatalf("MergeByStart returned %d of %d rows", len(merged), len(rows))
	}
	for i := range merged {
		if !sameRecord(merged[i], got.Records[i]) {
			t.Fatalf("row %d: MergeByStart %+v, SortByStart %+v", i, merged[i], got.Records[i])
		}
	}

	for _, r := range rows {
		if math.IsNaN(r.ts) {
			return
		}
	}
	want := caseLog(rows)
	refSortLog(want)
	wantTab := caseTable(rows)
	refSortTable(wantTab)
	for i := range want.Records {
		if !sameRecord(got.Records[i], want.Records[i]) {
			t.Fatalf("row %d: Log.SortByStart %+v, reference %+v", i, got.Records[i], want.Records[i])
		}
		if !sameRecord(tab.Record(i), wantTab.Record(i)) {
			t.Fatalf("row %d: Table.SortByStart %+v, reference %+v", i, tab.Record(i), wantTab.Record(i))
		}
	}
}

func TestSortByStartMatchesStableSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := map[string][]sortCase{
		"empty":           nil,
		"one":             {{1, 1}},
		"sorted":          {{0, 1}, {1, 2}, {1, 3}, {2, 1}, {5, 0}},
		"reversed":        {{5, 4}, {4, 3}, {3, 2}, {2, 1}, {1, 0}},
		"tied starts":     {{3, 5}, {3, 1}, {1, 9}, {3, 2}, {1, 0}},
		"duplicate IDs":   {{2, 7}, {1, 7}, {2, 7}, {1, 7}, {2, 6}},
		"signed zeros":    {{0, 1}, {negZero, 1}, {0, 0}, {negZero, 0}, {-1, 3}},
		"infinities":      {{math.Inf(1), 0}, {math.Inf(-1), 0}, {0, 0}, {math.Inf(1), -1}},
		"NaN starts":      {{2, 1}, {math.NaN(), 3}, {1, 1}, {math.NaN(), 0}, {math.NaN(), 3}},
		"NaN only":        {{math.NaN(), 2}, {math.NaN(), 1}, {math.NaN(), 2}},
		"negative IDs":    {{1, -1}, {1, -5}, {0, 2}},
		"sorted but ties": {{1, 1}, {1, 1}, {1, 1}},
	}
	for name, rows := range cases {
		t.Run(name, func(t *testing.T) { checkSortByStart(t, rows) })
	}

	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		rows := make([]sortCase, 1+rng.Intn(300))
		for i := range rows {
			rows[i] = sortCase{float64(rng.Intn(20)), rng.Intn(6)}
			if rng.Intn(10) == 0 {
				rows[i].ts = math.Copysign(0, -1)
			}
		}
		t.Run(fmt.Sprint("random", n), func(t *testing.T) { checkSortByStart(t, rows) })
	}
}

// TestSortByStartSortedIsFree pins the early return: rows already in
// order (ties included) are checked, not sorted, so neither sort
// allocates.
func TestSortByStartSortedIsFree(t *testing.T) {
	rows := []sortCase{{0, 1}, {1, 1}, {1, 1}, {1, 2}, {3, 0}}
	tab, l := caseTable(rows), caseLog(rows)
	if n := testing.AllocsPerRun(10, tab.SortByStart); n != 0 {
		t.Errorf("Table.SortByStart on sorted rows: %v allocs", n)
	}
	if n := testing.AllocsPerRun(10, l.SortByStart); n != 0 {
		t.Errorf("Log.SortByStart on sorted rows: %v allocs", n)
	}
}

// sortPalette maps a fuzz byte below len(sortPalette) to a start time the
// order has to get right; larger bytes map to coarse integers, so ties
// are common.
var sortPalette = []float64{
	math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0,
	-1, 0.5, 1, 1e300, -1e300, math.SmallestNonzeroFloat64,
}

// FuzzSortByStart decodes pairs of bytes into (Ts, ID) rows and runs
// checkSortByStart on them: Log and Table agree, the output is the
// documented total order and stable, MergeByStart agrees, and without
// NaN it equals the old sort.SliceStable code byte for byte.
func FuzzSortByStart(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{20, 1, 24, 2, 28, 3})             // sorted
	f.Add([]byte{40, 3, 36, 2, 32, 1, 28, 0})      // reversed
	f.Add([]byte{20, 5, 20, 1, 20, 5, 20, 1})      // tied starts, duplicate IDs
	f.Add([]byte{4, 1, 3, 1, 4, 0, 3, 0})          // +0 and -0
	f.Add([]byte{20, 1, 0, 2, 24, 0, 0, 1, 1, 1})  // NaN and -Inf
	f.Add([]byte{2, 0, 8, 3, 9, 3, 10, 7, 255, 0}) // extremes
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		rows := make([]sortCase, len(data)/2)
		for i := range rows {
			b, id := data[2*i], data[2*i+1]
			ts := float64(b >> 2)
			if int(b) < len(sortPalette) {
				ts = sortPalette[b]
			}
			rows[i] = sortCase{ts, int(id%8) - 2}
		}
		checkSortByStart(t, rows)
	})
}
