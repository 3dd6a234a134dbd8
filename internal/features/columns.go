package features

// columns.go runs the §4 feature engineering directly over a columnar
// table (colfmt.Table), so paper-scale logs stream from disk into the
// overlap analysis without ever materializing a row-oriented logs.Log.
// The table lends its Ts and Te columns to the Load; the rest of the work
// is the row path's: the same Load, index and Eq. 2 kernel, so the output
// is bitwise identical to Engineer on the equivalent log
// (TestEngineerColumnsMatchesRows pins this).

import (
	"repro/internal/logs/colfmt"
	"repro/internal/pool"
)

// EngineerColumns computes feature vectors for every row of the table,
// which is sorted by (Ts, ID) as a side effect — the same order Engineer
// leaves a log in. Vector.RecordIdx indexes the sorted table's rows.
func EngineerColumns(t *colfmt.Table) []Vector {
	return engineerColumns(t, pool.Workers())
}

func engineerColumns(t *colfmt.Table, workers int) []Vector {
	t.SortByStart()
	n := t.Len()

	// Canonicalize dictionary codes by endpoint ID so duplicate dict
	// entries (legal in the container) collapse like map keys do in the
	// row path.
	canon := make([]int32, len(t.Dict))
	byName := make(map[string]int32, len(t.Dict))
	for i, s := range t.Dict {
		c, ok := byName[s]
		if !ok {
			c = int32(len(byName))
			byName[s] = c
		}
		canon[i] = c
	}

	// Set rewrites each Ts and Te with the value the table already holds.
	ld := Load{Ts: t.Ts, Te: t.Te,
		Rate: make([]float64, n), Streams: make([]float64, n), Procs: make([]float64, n)}
	src, dst := make([]int32, n), make([]int32, n)
	for i := 0; i < n; i++ {
		r := t.Record(i)
		ld.Set(i, &r)
		src[i], dst[i] = canon[t.Src[i]], canon[t.Dst[i]]
	}
	return engineerLoad(&ld, src, dst, len(byName), workers, func(k int) Vector {
		r := t.Record(k)
		return NewVector(&r)
	})
}
