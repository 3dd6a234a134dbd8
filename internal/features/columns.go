package features

// columns.go runs the §4 feature engineering directly over a columnar
// table (colfmt.Table), so paper-scale logs stream from disk into the
// overlap analysis without ever materializing row-oriented logs.Record
// values. The arithmetic — the overlap scan, overlap fractions,
// Eq. 2 accumulation — is performed in the same order as the row path,
// so the output is bitwise identical to Engineer on the equivalent log
// (TestEngineerColumnsMatchesRows pins this).

import (
	"repro/internal/logs/colfmt"
	"repro/internal/pool"
)

// colIndex is the columnar counterpart of epIndex: row indices using the
// endpoint as source and as destination (sorted by start time), with the
// running maximum end time along each list.
type colIndex struct {
	asSrc, asDst   []int32
	srcEnd, dstEnd []float64
}

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
	nEp := int32(0)
	for i, s := range t.Dict {
		c, ok := byName[s]
		if !ok {
			c = nEp
			nEp++
			byName[s] = c
		}
		canon[i] = c
	}
	srcOf := make([]int32, n)
	dstOf := make([]int32, n)
	idx := make([]colIndex, nEp)
	for i := 0; i < n; i++ {
		s, d := canon[t.Src[i]], canon[t.Dst[i]]
		srcOf[i], dstOf[i] = s, d
		idx[s].asSrc = append(idx[s].asSrc, int32(i))
		idx[s].srcEnd = appendMaxEnd(idx[s].srcEnd, t.Te[i])
		idx[d].asDst = append(idx[d].asDst, int32(i))
		idx[d].dstEnd = appendMaxEnd(idx[d].dstEnd, t.Te[i])
	}

	out := make([]Vector, n)
	pool.Do(n, workers, func(k int) {
		v := Vector{
			RecordIdx: k,
			Rate:      colRate(t, k),
			C:         float64(t.Conc[k]),
			P:         float64(t.Par[k]),
			Nf:        float64(t.Files[k]),
			Nd:        float64(t.Dirs[k]),
			Nb:        t.Bytes[k],
			Nflt:      float64(t.Faults[k]),
		}
		src := &idx[srcOf[k]]
		dst := &idx[dstOf[k]]

		var g1, g2 float64
		v.Ksout, v.Ssout, g1 = colAccumulate(t, src.asSrc, src.srcEnd, k)
		v.Ksin, v.Ssin, g2 = colAccumulate(t, src.asDst, src.dstEnd, k)
		v.Gsrc = g1 + g2
		v.Kdout, v.Sdout, g1 = colAccumulate(t, dst.asSrc, dst.srcEnd, k)
		v.Kdin, v.Sdin, g2 = colAccumulate(t, dst.asDst, dst.dstEnd, k)
		v.Gdst = g1 + g2

		out[k] = v
	})
	return out
}

// colRate mirrors logs.Record.Rate on columns.
func colRate(t *colfmt.Table, i int) float64 {
	d := t.Te[i] - t.Ts[i]
	if d <= 0 {
		return 0
	}
	return t.Bytes[i] / d / 1e6
}

// colProcesses mirrors logs.Record.Processes: min(C, Nf).
func colProcesses(t *colfmt.Table, i int) int32 {
	if t.Files[i] < t.Conc[i] {
		return t.Files[i]
	}
	return t.Conc[i]
}

// colOverlap mirrors overlap: O(i,k) = max(0, min(Tei,Tek) − max(Tsi,Tsk)).
func colOverlap(t *colfmt.Table, i, k int) float64 {
	lo := t.Ts[i]
	if t.Ts[k] > lo {
		lo = t.Ts[k]
	}
	hi := t.Te[i]
	if t.Te[k] < hi {
		hi = t.Te[k]
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// colAccumulate mirrors accumulate: the Eq. 2 overlap-scaled aggregate
// rate (K), TCP stream count (S) and GridFTP process count (G) for one
// directional competitor set, in one pass over the rows that can
// overlap row k.
func colAccumulate(t *colfmt.Table, list []int32, maxEnd []float64, k int) (kRate, sStreams, g float64) {
	dur := t.Te[k] - t.Ts[k]
	if dur <= 0 {
		return 0, 0, 0
	}
	for _, i32 := range list[firstOverlap(maxEnd, t.Ts[k]):] {
		i := int(i32)
		if t.Ts[i] > t.Te[k] {
			break
		}
		if i == k {
			continue
		}
		o := colOverlap(t, i, k)
		if o <= 0 {
			continue
		}
		frac := o / dur
		procs := colProcesses(t, i)
		kRate += frac * colRate(t, i)
		sStreams += frac * float64(procs*t.Par[i])
		g += frac * float64(procs)
	}
	return kRate, sStreams, g
}
