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

// NewVector returns the vector of r's own fields: its rate, tunables and
// dataset shape. The contending-load fields are zero until Contend fills
// them, and RecordIdx is left to the caller.
func NewVector(r *logs.Record) Vector {
	return Vector{
		Rate: r.Rate(),
		C:    float64(r.Conc),
		P:    float64(r.Par),
		Nf:   float64(r.Files),
		Nd:   float64(r.Dirs),
		Nb:   r.Bytes,
		Nflt: float64(r.Faults),
	}
}

// Load holds, per row, the columns the Eq. 2 fold reads: start and end
// times, achieved rate, and TCP stream and GridFTP process counts. The
// counts are stored as the float64 of logs.Record's int methods, so they
// hold any value those return. Batch engineering keeps one row per
// record; the stream window keeps one row per resident slot.
type Load struct {
	Ts, Te, Rate, Streams, Procs []float64
}

// Set stores r as row i. When i is the current row count, Set appends
// the row.
func (ld *Load) Set(i int, r *logs.Record) {
	if i == len(ld.Ts) {
		ld.Ts, ld.Te, ld.Rate = append(ld.Ts, 0), append(ld.Te, 0), append(ld.Rate, 0)
		ld.Streams, ld.Procs = append(ld.Streams, 0), append(ld.Procs, 0)
	}
	ld.Ts[i], ld.Te[i], ld.Rate[i] = r.Ts, r.Te, r.Rate()
	ld.Streams[i], ld.Procs[i] = float64(r.Streams()), float64(r.Processes())
}

// Overlap returns O(i,k) = max(0, min(Tei,Tek) − max(Tsi,Tsk)).
func (ld *Load) Overlap(i, k int) float64 {
	lo := ld.Ts[i]
	if ld.Ts[k] > lo {
		lo = ld.Ts[k]
	}
	hi := ld.Te[i]
	if ld.Te[k] < hi {
		hi = ld.Te[k]
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// EpList is one endpoint's rows in one direction, ordered by start time,
// with the running maximum of their end times (MaxEnd[j] is the latest
// end among IDs[:j+1]).
type EpList struct {
	IDs    []int32
	MaxEnd []float64
}

// From returns the first position whose running maximum end exceeds ts.
// Every entry before it ended by ts, so its overlap with a transfer
// starting at ts is zero: an Eq. 2 scan can begin there without dropping
// a single nonzero term.
func (e *EpList) From(ts float64) int {
	maxEnd := e.MaxEnd
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

// Insert puts row id, which ends at te, at position i and raises the
// running maximum of the entries after it, up to the first that already
// reaches te.
func (e *EpList) Insert(i int, id int32, te float64) {
	m := te
	if i > 0 && e.MaxEnd[i-1] > m {
		m = e.MaxEnd[i-1]
	}
	e.IDs, e.MaxEnd = append(e.IDs, id), append(e.MaxEnd, m)
	if i == len(e.IDs)-1 {
		return
	}
	copy(e.IDs[i+1:], e.IDs[i:])
	copy(e.MaxEnd[i+1:], e.MaxEnd[i:])
	e.IDs[i], e.MaxEnd[i] = id, m
	for j := i + 1; j < len(e.MaxEnd) && e.MaxEnd[j] < te; j++ {
		e.MaxEnd[j] = te
	}
}

// DropHead removes the first entry and recomputes the running maximum
// from the front, reading end times from te, up to the first entry it
// leaves unchanged.
func (e *EpList) DropHead(te []float64) {
	e.IDs, e.MaxEnd = e.IDs[1:], e.MaxEnd[1:]
	for j, id := range e.IDs {
		m := te[id]
		if j > 0 && e.MaxEnd[j-1] > m {
			m = e.MaxEnd[j-1]
		}
		if e.MaxEnd[j] == m {
			return
		}
		e.MaxEnd[j] = m
	}
}

// Endpoint indexes the rows that use one endpoint as source and as
// destination.
type Endpoint struct {
	AsSrc, AsDst EpList
}

// Fold is the Eq. 2 kernel: the overlap-scaled aggregate rate (K), TCP
// stream count (S) and GridFTP process count (G) of row k's competitors
// in one directional list, in one pass. The scan runs from From(Ts[k])
// to the first competitor starting after row k ends and skips k itself,
// so it visits only rows that can overlap k, in list order.
func (ld *Load) Fold(e *EpList, k int) (kRate, sStreams, g float64) {
	te := ld.Te[k]
	dur := te - ld.Ts[k]
	if dur <= 0 {
		return 0, 0, 0
	}
	for _, id := range e.IDs[e.From(ld.Ts[k]):] {
		i := int(id)
		if ld.Ts[i] > te {
			break
		}
		if i == k {
			continue
		}
		o := ld.Overlap(i, k)
		if o <= 0 {
			continue
		}
		frac := o / dur
		kRate += frac * ld.Rate[i]
		sStreams += frac * ld.Streams[i]
		g += frac * ld.Procs[i]
	}
	return kRate, sStreams, g
}

// Contend fills v's contending-load fields for row k from the lists of
// its source and destination endpoints. G counts every competing
// transfer touching the endpoint in either direction (§4.3.1: "all
// transfers except k that have srck as their source or destination").
func (ld *Load) Contend(v *Vector, k int, src, dst *Endpoint) {
	var g1, g2 float64
	v.Ksout, v.Ssout, g1 = ld.Fold(&src.AsSrc, k)
	v.Ksin, v.Ssin, g2 = ld.Fold(&src.AsDst, k)
	v.Gsrc = g1 + g2
	v.Kdout, v.Sdout, g1 = ld.Fold(&dst.AsSrc, k)
	v.Kdin, v.Sdin, g2 = ld.Fold(&dst.AsDst, k)
	v.Gdst = g1 + g2
}

// Engineer computes feature vectors for every record in the log. The log
// is sorted by start time as a side effect. The per-record overlap
// analysis runs on a worker pool sized to the available CPUs; each record
// only reads the shared index and writes its own output slot, so the
// result is identical to the serial computation
// (TestEngineerParallelMatchesSerial pins this).
func Engineer(l *logs.Log) []Vector {
	return engineer(l, pool.Workers())
}

func engineer(l *logs.Log, workers int) []Vector {
	l.SortByStart()
	recs := l.Records
	n := len(recs)
	ld := Load{Ts: make([]float64, n), Te: make([]float64, n),
		Rate: make([]float64, n), Streams: make([]float64, n), Procs: make([]float64, n)}
	src, dst := make([]int32, n), make([]int32, n)
	codes := map[string]int32{}
	code := func(id string) int32 {
		c, ok := codes[id]
		if !ok {
			c = int32(len(codes))
			codes[id] = c
		}
		return c
	}
	for i := range recs {
		r := &recs[i]
		ld.Set(i, r)
		src[i], dst[i] = code(r.Src), code(r.Dst)
	}
	return engineerLoad(&ld, src, dst, len(codes), workers, func(k int) Vector { return NewVector(&recs[k]) })
}

// engineerLoad is the batch body shared by the row and column paths. The
// rows of ld are in (Ts, ID) order; src and dst give each row's endpoint
// codes in [0, nEp); own returns row k's NewVector.
func engineerLoad(ld *Load, src, dst []int32, nEp, workers int, own func(k int) Vector) []Vector {
	eps := make([]Endpoint, nEp)
	for i := range src {
		s, d := &eps[src[i]].AsSrc, &eps[dst[i]].AsDst
		s.Insert(len(s.IDs), int32(i), ld.Te[i])
		d.Insert(len(d.IDs), int32(i), ld.Te[i])
	}
	// Rows are in start order, so every list is too. From here the index
	// is read-only.
	out := make([]Vector, len(src))
	pool.Do(len(out), workers, func(k int) {
		v := own(k)
		v.RecordIdx = k
		ld.Contend(&v, k, &eps[src[k]], &eps[dst[k]])
		out[k] = v
	})
	return out
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
