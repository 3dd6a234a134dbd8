// Package features implements §4 of the paper: turning raw transfer-log
// records into the 15 model features of Table 2 (plus the explanatory
// fault count). The heart of the package is the overlap-weighted
// time-series analysis of Equation 2, which converts the set of transfers
// that ran simultaneously with a given transfer into scalar measures of
// competing load: equivalent contending transfer rates (K), contending TCP
// stream counts (S), and contending GridFTP process counts (G), each scaled
// by the fraction of time the competitor overlapped the subject transfer.
package features

import (
	"fmt"
	"sort"

	"repro/internal/logs"
	"repro/internal/ml/dataset"
	"repro/internal/pool"
)

// Names lists the model features in canonical order, matching the columns
// of Figures 9 and 12 (Nflt excluded; see NamesWithFaults).
var Names = []string{
	"Ksout", "Kdin", "C", "P",
	"Ssout", "Ssin", "Sdout", "Sdin",
	"Ksin", "Kdout", "Nd", "Nb",
	"Gsrc", "Gdst", "Nf",
}

// NamesWithFaults appends the fault count, which the paper uses for
// explanation (Figures 9, 12) but not prediction, since it is unknown
// before the transfer runs.
var NamesWithFaults = append(append([]string{}, Names...), "Nflt")

// Vector is the engineered feature set for one transfer.
type Vector struct {
	RecordIdx int     // index into the source log's Records
	Rate      float64 // achieved average rate in MB/s (the model target)

	Ksout, Ksin, Kdin, Kdout float64 // contending transfer rates (Eq. 2), MB/s
	Ssout, Ssin, Sdin, Sdout float64 // contending TCP stream counts
	Gsrc, Gdst               float64 // contending GridFTP instance counts
	C, P                     float64 // the transfer's own tunables
	Nf, Nd, Nb               float64 // dataset shape: files, dirs, bytes
	Nflt                     float64 // faults (explanation only)
}

// Values returns the feature values in Names order; withFaults appends
// Nflt (NamesWithFaults order).
func (v *Vector) Values(withFaults bool) []float64 {
	n := len(Names)
	if withFaults {
		n++
	}
	out := make([]float64, n)
	v.fill(out, withFaults)
	return out
}

// fill writes the feature values in Names order into dst, which must have
// room for 15 values (16 with faults). Dataset assembly uses it to pack
// every row into one preallocated block instead of allocating per row.
func (v *Vector) fill(dst []float64, withFaults bool) {
	dst[0], dst[1], dst[2], dst[3] = v.Ksout, v.Kdin, v.C, v.P
	dst[4], dst[5], dst[6], dst[7] = v.Ssout, v.Ssin, v.Sdout, v.Sdin
	dst[8], dst[9], dst[10], dst[11] = v.Ksin, v.Kdout, v.Nd, v.Nb
	dst[12], dst[13], dst[14] = v.Gsrc, v.Gdst, v.Nf
	if withFaults {
		dst[15] = v.Nflt
	}
}

// RelativeExternalLoad implements §3.2's definition: the greater of the
// relative endpoint external loads at source and destination,
// max(Ksout/(R+Ksout), Kdin/(R+Kdin)). It is 0 when the transfer ran alone
// and approaches 1 as competing Globus traffic dominates.
func (v *Vector) RelativeExternalLoad() float64 {
	var s, d float64
	if v.Rate+v.Ksout > 0 {
		s = v.Ksout / (v.Rate + v.Ksout)
	}
	if v.Rate+v.Kdin > 0 {
		d = v.Kdin / (v.Rate + v.Kdin)
	}
	if s > d {
		return s
	}
	return d
}

// epIndex holds, for one endpoint, the indices of log records that use it
// as source and as destination, each sorted by start time, with the
// running maximum end time along each list (see firstOverlap).
type epIndex struct {
	asSrc, asDst   []int
	srcEnd, dstEnd []float64
}

// Engineer computes feature vectors for every record in the log. The log
// is sorted by start time as a side effect. The per-record overlap
// analysis runs on a worker pool sized to the available CPUs; each record
// only reads the shared index and writes its own output slot, so the
// result is identical to the serial computation (engineerSerial in the
// tests pins this).
func Engineer(l *logs.Log) []Vector {
	return engineer(l, pool.Workers())
}

func engineer(l *logs.Log, workers int) []Vector {
	l.SortByStart()
	recs := l.Records

	idx := map[string]*epIndex{}
	get := func(id string) *epIndex {
		e, ok := idx[id]
		if !ok {
			e = &epIndex{}
			idx[id] = e
		}
		return e
	}
	for i := range recs {
		r := &recs[i]
		src, dst := get(r.Src), get(r.Dst)
		src.asSrc = append(src.asSrc, i)
		src.srcEnd = appendMaxEnd(src.srcEnd, r.Te)
		dst.asDst = append(dst.asDst, i)
		dst.dstEnd = appendMaxEnd(dst.dstEnd, r.Te)
	}
	// Records are in start order already, so the per-endpoint index lists
	// are sorted by Ts too. From here the index is read-only.

	out := make([]Vector, len(recs))
	pool.Do(len(recs), workers, func(k int) {
		rk := &recs[k]
		v := Vector{
			RecordIdx: k,
			Rate:      rk.Rate(),
			C:         float64(rk.Conc),
			P:         float64(rk.Par),
			Nf:        float64(rk.Files),
			Nd:        float64(rk.Dirs),
			Nb:        rk.Bytes,
			Nflt:      float64(rk.Faults),
		}
		src := idx[rk.Src]
		dst := idx[rk.Dst]

		// G counts every competing transfer touching the endpoint in
		// either direction (§4.3.1: "all transfers except k that have
		// srck as their source or destination").
		var g1, g2 float64
		v.Ksout, v.Ssout, g1 = accumulate(recs, src.asSrc, src.srcEnd, rk, k)
		v.Ksin, v.Ssin, g2 = accumulate(recs, src.asDst, src.dstEnd, rk, k)
		v.Gsrc = g1 + g2
		v.Kdout, v.Sdout, g1 = accumulate(recs, dst.asSrc, dst.srcEnd, rk, k)
		v.Kdin, v.Sdin, g2 = accumulate(recs, dst.asDst, dst.dstEnd, rk, k)
		v.Gdst = g1 + g2

		out[k] = v
	})
	return out
}

// appendMaxEnd extends a list's running maximum of end times by te.
func appendMaxEnd(maxEnd []float64, te float64) []float64 {
	if n := len(maxEnd); n > 0 && maxEnd[n-1] > te {
		te = maxEnd[n-1]
	}
	return append(maxEnd, te)
}

// firstOverlap returns the first position of a start-sorted list whose
// running maximum end exceeds ts. Every entry before it ended by ts, so
// its overlap with a transfer starting at ts is zero: the Eq. 2 scan can
// begin there without dropping a single nonzero term.
func firstOverlap(maxEnd []float64, ts float64) int {
	lo, hi := 0, len(maxEnd)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if maxEnd[mid] > ts {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Overlap exposes the Eq. 2 overlap O(i,k) for incremental consumers
// (internal/stream's sliding window) that must reproduce Engineer's
// arithmetic bit for bit.
func Overlap(a, b *logs.Record) float64 { return overlap(a, b) }

// overlap returns O(i,k) = max(0, min(Tei,Tek) − max(Tsi,Tsk)).
func overlap(a, b *logs.Record) float64 {
	lo := a.Ts
	if b.Ts > lo {
		lo = b.Ts
	}
	hi := a.Te
	if b.Te < hi {
		hi = b.Te
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// accumulate computes the Eq. 2 sums for one directional competitor set
// in one pass: the overlap-scaled aggregate rate (K), TCP stream count
// (S) and GridFTP process count (G). The scan runs from firstOverlap to
// the first competitor starting after rk ends, so it visits only
// transfers that can overlap rk, in list order — the same terms, summed
// in the same order, as a scan over every candidate.
func accumulate(recs []logs.Record, list []int, maxEnd []float64, rk *logs.Record, k int) (kRate, sStreams, g float64) {
	dur := rk.Duration()
	if dur <= 0 {
		return 0, 0, 0
	}
	for _, i := range list[firstOverlap(maxEnd, rk.Ts):] {
		ri := &recs[i]
		if ri.Ts > rk.Te {
			break
		}
		if i == k {
			continue
		}
		o := overlap(ri, rk)
		if o <= 0 {
			continue
		}
		frac := o / dur
		kRate += frac * ri.Rate()
		sStreams += frac * float64(ri.Streams())
		g += frac * float64(ri.Processes())
	}
	return kRate, sStreams, g
}

// Dataset assembles a modeling dataset from the chosen vectors. When
// withFaults is true the Nflt column is included (explanation models);
// prediction models exclude it because faults are unknown in advance.
// All rows are carved out of one preallocated block (full-capacity
// subslices, so a row can never grow into its neighbour), which drops the
// per-row allocation the experiment loops used to pay thousands of times.
func Dataset(vecs []Vector, withFaults bool) (*dataset.Dataset, error) {
	names := Names
	if withFaults {
		names = NamesWithFaults
	}
	w := len(names)
	block := make([]float64, len(vecs)*w)
	x := make([][]float64, len(vecs))
	y := make([]float64, len(vecs))
	for i := range vecs {
		row := block[i*w : (i+1)*w : (i+1)*w]
		vecs[i].fill(row, withFaults)
		x[i] = row
		y[i] = vecs[i].Rate
	}
	return dataset.New(append([]string(nil), names...), x, y)
}

// EndpointCaps holds the §5.4 endpoint-capability features derived from the
// log: the maximum outgoing and incoming rates ever observed at an
// endpoint, with the transfer's own contending traffic added back
// (ROmax = max(Rx + Ksout(x)), RImax = max(Rx + Kdin(x))).
type EndpointCaps struct {
	ROmax map[string]float64
	RImax map[string]float64
}

// ComputeEndpointCaps derives ROmax/RImax for every endpoint appearing in
// the log from the already-engineered vectors.
func ComputeEndpointCaps(l *logs.Log, vecs []Vector) EndpointCaps {
	caps := EndpointCaps{ROmax: map[string]float64{}, RImax: map[string]float64{}}
	for i := range vecs {
		v := &vecs[i]
		r := &l.Records[v.RecordIdx]
		if out := v.Rate + v.Ksout; out > caps.ROmax[r.Src] {
			caps.ROmax[r.Src] = out
		}
		if in := v.Rate + v.Kdin; in > caps.RImax[r.Dst] {
			caps.RImax[r.Dst] = in
		}
	}
	return caps
}

// GlobalNames is the column layout of the single-model-for-all-edges
// dataset of §5.4: the 15 prediction features plus ROmax of the source and
// RImax of the destination.
var GlobalNames = append(append([]string{}, Names...), "ROmaxSrc", "RImaxDst")

// GlobalDataset assembles the §5.4 pooled dataset: every vector is extended
// with its source endpoint's ROmax and destination endpoint's RImax. Rows
// share one preallocated block, like Dataset.
func GlobalDataset(l *logs.Log, vecs []Vector, caps EndpointCaps) (*dataset.Dataset, error) {
	w := len(GlobalNames)
	block := make([]float64, len(vecs)*w)
	x := make([][]float64, len(vecs))
	y := make([]float64, len(vecs))
	for i := range vecs {
		v := &vecs[i]
		r := &l.Records[v.RecordIdx]
		row := block[i*w : (i+1)*w : (i+1)*w]
		v.fill(row, false)
		row[w-2] = caps.ROmax[r.Src]
		row[w-1] = caps.RImax[r.Dst]
		x[i] = row
		y[i] = v.Rate
	}
	return dataset.New(append([]string(nil), GlobalNames...), x, y)
}

// ConcurrencySample is one interval of an endpoint's load history: the
// instantaneous GridFTP instance count (total concurrency) and the
// aggregate incoming transfer rate, weighted by interval duration.
// Figure 4 plots aggregate incoming rate against total concurrency.
type ConcurrencySample struct {
	Concurrency float64 // GridFTP instances active at the endpoint
	InRateMBps  float64 // aggregate incoming transfer rate
	Duration    float64 // seconds the state persisted
}

// ConcurrencySeries reconstructs the (concurrency, incoming-rate) history
// of one endpoint from the log, assuming each transfer sustains its average
// rate across its lifetime (the best reconstruction available from the
// fields the log provides).
func ConcurrencySeries(l *logs.Log, endpoint string) ([]ConcurrencySample, error) {
	type ev struct {
		t     float64
		dConc float64
		dRate float64
	}
	var evs []ev
	for i := range l.Records {
		r := &l.Records[i]
		if r.Src != endpoint && r.Dst != endpoint {
			continue
		}
		procs := float64(r.Processes())
		inRate := 0.0
		if r.Dst == endpoint {
			inRate = r.Rate()
		}
		evs = append(evs, ev{t: r.Ts, dConc: procs, dRate: inRate})
		evs = append(evs, ev{t: r.Te, dConc: -procs, dRate: -inRate})
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("features: endpoint %q has no transfers", endpoint)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })

	var out []ConcurrencySample
	var conc, rate float64
	for i := 0; i < len(evs); {
		t := evs[i].t
		for i < len(evs) && evs[i].t == t {
			conc += evs[i].dConc
			rate += evs[i].dRate
			i++
		}
		if i < len(evs) {
			d := evs[i].t - t
			if d > 0 {
				out = append(out, ConcurrencySample{
					Concurrency: nonNeg(conc),
					InRateMBps:  nonNeg(rate),
					Duration:    d,
				})
			}
		}
	}
	return out, nil
}

func nonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
