package features

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/logs"
	"repro/internal/logs/colfmt"
	"repro/internal/simulate"
)

// The reference Eq. 2 scan: every competitor whose start lies in
// [Ts(k) − maxDur, Te(k)], where maxDur is the longest duration the
// endpoint ever saw, with K and S folded in one pass and G in a second.
// It is what Engineer ran before the scan was bounded by the running
// maximum end time; the production scan must produce the same terms in
// the same order, so the vectors are bit-identical.

type refIndex struct {
	asSrc, asDst []int
	maxDur       float64
}

func refCandidates(recs []logs.Record, list []int, rk *logs.Record, maxDur float64) []int {
	lo := sort.Search(len(list), func(i int) bool { return recs[list[i]].Ts >= rk.Ts-maxDur })
	hi := sort.Search(len(list), func(i int) bool { return recs[list[i]].Ts > rk.Te })
	return list[lo:hi]
}

func refAccumulate(recs []logs.Record, list []int, rk *logs.Record, k int, maxDur float64) (kRate, sStreams float64) {
	dur := rk.Duration()
	if dur <= 0 {
		return 0, 0
	}
	for _, i := range refCandidates(recs, list, rk, maxDur) {
		if i == k {
			continue
		}
		ri := &recs[i]
		o := overlap(ri, rk)
		if o <= 0 {
			continue
		}
		frac := o / dur
		kRate += frac * ri.Rate()
		sStreams += frac * float64(ri.Streams())
	}
	return kRate, sStreams
}

func refInstances(recs []logs.Record, list []int, rk *logs.Record, k int, maxDur float64) float64 {
	dur := rk.Duration()
	if dur <= 0 {
		return 0
	}
	var g float64
	for _, i := range refCandidates(recs, list, rk, maxDur) {
		if i == k {
			continue
		}
		ri := &recs[i]
		o := overlap(ri, rk)
		if o <= 0 {
			continue
		}
		g += o / dur * float64(ri.Processes())
	}
	return g
}

// engineerReference is Engineer with the reference scan, serial. It
// also reports the candidates it visited, for the scan-width check.
func engineerReference(l *logs.Log) ([]Vector, int) {
	l.SortByStart()
	recs := l.Records
	idx := map[string]*refIndex{}
	get := func(id string) *refIndex {
		if idx[id] == nil {
			idx[id] = &refIndex{}
		}
		return idx[id]
	}
	for i := range recs {
		r := &recs[i]
		src, dst := get(r.Src), get(r.Dst)
		src.asSrc = append(src.asSrc, i)
		dst.asDst = append(dst.asDst, i)
		d := r.Duration()
		src.maxDur = math.Max(src.maxDur, d)
		dst.maxDur = math.Max(dst.maxDur, d)
	}
	out := make([]Vector, len(recs))
	visited := 0
	for k := range recs {
		rk := &recs[k]
		v := Vector{
			RecordIdx: k, Rate: rk.Rate(),
			C: float64(rk.Conc), P: float64(rk.Par),
			Nf: float64(rk.Files), Nd: float64(rk.Dirs), Nb: rk.Bytes,
			Nflt: float64(rk.Faults),
		}
		src, dst := idx[rk.Src], idx[rk.Dst]
		for _, list := range [][]int{src.asSrc, src.asDst} {
			visited += len(refCandidates(recs, list, rk, src.maxDur))
		}
		for _, list := range [][]int{dst.asSrc, dst.asDst} {
			visited += len(refCandidates(recs, list, rk, dst.maxDur))
		}
		v.Ksout, v.Ssout = refAccumulate(recs, src.asSrc, rk, k, src.maxDur)
		v.Ksin, v.Ssin = refAccumulate(recs, src.asDst, rk, k, src.maxDur)
		v.Kdout, v.Sdout = refAccumulate(recs, dst.asSrc, rk, k, dst.maxDur)
		v.Kdin, v.Sdin = refAccumulate(recs, dst.asDst, rk, k, dst.maxDur)
		v.Gsrc = refInstances(recs, src.asSrc, rk, k, src.maxDur) +
			refInstances(recs, src.asDst, rk, k, src.maxDur)
		v.Gdst = refInstances(recs, dst.asSrc, rk, k, dst.maxDur) +
			refInstances(recs, dst.asDst, rk, k, dst.maxDur)
		out[k] = v
	}
	return out, visited
}

// sameVectorBits compares two vectors field by field on float bits, so
// a signed-zero difference counts.
func sameVectorBits(a, b *Vector) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Int() != fb.Int() {
			return false
		}
	}
	return true
}

// TestEngineerMatchesReferenceScan pins the bounded Eq. 2 scan to the
// reference on busy random logs and on a SmallConfig simulation, through
// both the row and the columnar path, bit for bit.
func TestEngineerMatchesReferenceScan(t *testing.T) {
	small, _, err := simulate.GenerateLog(simulate.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	logsUnder := map[string]*logs.Log{
		"busy1":  randomBusyLog(600, 1),
		"busy2":  randomBusyLog(600, 2),
		"small":  small,
		"single": randomBusyLog(1, 3),
	}
	for name, l := range logsUnder {
		var buf bytes.Buffer
		if err := colfmt.WriteLog(&buf, l); err != nil {
			t.Fatal(err)
		}
		tab, _, err := colfmt.ReadTable(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		ref, visited := engineerReference(l)
		rows := Engineer(l)
		cols := EngineerColumns(tab)
		for i := range ref {
			if !sameVectorBits(&rows[i], &ref[i]) {
				t.Fatalf("%s: vector %d differs from the reference scan\n got  %+v\n want %+v", name, i, rows[i], ref[i])
			}
			if !sameVectorBits(&cols[i], &ref[i]) {
				t.Fatalf("%s: columnar vector %d differs from the reference scan", name, i)
			}
		}
		if name == "small" {
			t.Logf("%s: %d records; candidates per record: reference scan %.1f, bounded scan %.1f",
				name, len(ref), float64(visited)/float64(len(ref)), boundedVisits(l)/float64(len(ref)))
		}
	}
}

// boundedVisits counts the competitors the production scan visits over
// the four lists of every record of a start-sorted log.
func boundedVisits(l *logs.Log) float64 {
	recs := l.Records
	idx := map[string]*epIndex{}
	for i := range recs {
		for side, ep := range []string{recs[i].Src, recs[i].Dst} {
			e := idx[ep]
			if e == nil {
				e = &epIndex{}
				idx[ep] = e
			}
			if side == 0 {
				e.asSrc, e.srcEnd = append(e.asSrc, i), appendMaxEnd(e.srcEnd, recs[i].Te)
			} else {
				e.asDst, e.dstEnd = append(e.asDst, i), appendMaxEnd(e.dstEnd, recs[i].Te)
			}
		}
	}
	var n int
	for k := range recs {
		rk := &recs[k]
		for _, e := range []*epIndex{idx[rk.Src], idx[rk.Dst]} {
			for side, list := range [][]int{e.asSrc, e.asDst} {
				maxEnd := [][]float64{e.srcEnd, e.dstEnd}[side]
				for _, i := range list[firstOverlap(maxEnd, rk.Ts):] {
					if recs[i].Ts > rk.Te {
						break
					}
					n++
				}
			}
		}
	}
	return float64(n)
}
