// Package serve is the prediction daemon behind `wanperf serve`: a
// long-running HTTP/JSON service that loads the per-edge + global model
// registry and answers "how fast will this transfer go?" at production
// throughput. It is engineered for failure first:
//
//   - Hot model reload. The registry lives behind an atomic pointer; a
//     SIGHUP or a registry-file change loads and *validates* the new file
//     off to the side, then promotes it with one atomic swap. In-flight
//     requests finish on the snapshot they started with, so zero requests
//     are dropped across a reload, and a corrupt file fails validation
//     and leaves the last good registry serving.
//
//   - Backpressure. Requests pass through a bounded admission queue into
//     a batcher that coalesces them into the models' batch inference
//     kernels. When the queue is full, or a request has waited past its
//     deadline, the daemon sheds it with 429 + Retry-After instead of
//     letting latency collapse for everyone.
//
//   - Graceful lifecycle. /healthz liveness, /readyz readiness that flips
//     during startup and drain, SIGTERM drain with a hard deadline, and
//     per-request panic isolation.
//
//   - Observability. Every decision above is counted in an obs.Registry
//     exposed in Prometheus text format on /metrics, including per-edge
//     latency histograms.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"

	"repro/internal/jsonwire"
	"repro/internal/ml/gbt"
)

// registryVersion is the registry file format version. Version 2 is the
// code-space era: promotion additionally replays every probe through the
// quantized (uint8) inference path when the probed model carries one,
// requiring EXACT agreement with the float path — so a registry can
// never serve a code-space forest that diverges from its float twin.
// Version-1 files fail closed (ErrBadRegistry): they predate that gate,
// and the deployment story is retrain-and-rewrite, not silent upgrade.
const registryVersion = 2

// defaultTolerance bounds the relative error a probe may show before the
// registry is rejected. Predictions are deterministic and JSON round-trips
// float64 exactly, so a healthy file reproduces probes bit-for-bit; any
// slack here only exists to keep the gate robust if a future trainer
// writes probes from a slightly different code path.
const defaultTolerance = 1e-9

// ErrBadRegistry is returned when a registry file is malformed, fails
// structural validation, or fails its sanity probes.
var ErrBadRegistry = errors.New("serve: bad registry")

// Probe is one golden-tolerance sanity prediction embedded in the
// registry: model input X must predict Want (within the registry's
// tolerance) or the file is rejected at load. Probes are the promotion
// gate that keeps a corrupt or truncated model file from ever serving.
type Probe struct {
	Edge string    `json:"edge,omitempty"` // "" probes the global model
	X    []float64 `json:"x"`
	Want float64   `json:"want"`
}

// Registry is one immutable serving snapshot: the per-edge models, the
// global fallback, and the feature layout every request is vectorized
// against. The server swaps whole registries atomically and never mutates
// a published one, so any number of batches may read it concurrently.
type Registry struct {
	Features  []string              // request feature layout, in column order
	Global    *gbt.Model            // fallback for edges without their own model
	Edges     map[string]*gbt.Model // keyed "SRC->DST"
	Probes    []Probe
	Tolerance float64

	// Generation is stamped by the server when the registry is promoted
	// (1 for the boot registry, +1 per successful reload). It is not part
	// of the file: a registry file does not know when it will be adopted.
	Generation int64 `json:"-"`

	nameIdx map[string]int // feature name -> column, built at load

	// srcIdx is the allocation-free edge index built at load: src ->
	// dst -> precomputed entry. Lookup through it costs two map hits and
	// zero string concatenation, which is what lets the admission path
	// resolve a serving model per row without allocating the "SRC->DST"
	// key the Edges map is keyed by.
	srcIdx map[string]map[string]*edgeEntry
	global *edgeEntry
}

// edgeEntry is one resolved serving assignment, precomputed at registry
// load so the request path never rebuilds strings: the canonical key
// halves (for interning src/dst out of a transient request buffer), the
// response label, its JSON-escaped wire form for the pooled response
// encoder, and the per-edge latency metric name.
type edgeEntry struct {
	m        *gbt.Model
	src, dst string
	label    string // "edge:SRC->DST", or "global" for the fallback entry
	jlabel   []byte // label as a JSON string literal, escaped exactly like encoding/json
	latKey   string // `serve.latency_ms{edge="SRC->DST"}`; "" on the fallback
	isGlobal bool
}

// registryFile is the on-disk form, and the wire struct the
// encoding/json reference path decodes into. gbt.Model decodes through
// the same validated payload gbt.Save/Load use, so every structural
// guarantee of the model format (forward child indices, in-range
// features) holds for registry-embedded models too.
type registryFile struct {
	Version   int                   `json:"version"`
	Features  []string              `json:"features"`
	Tolerance float64               `json:"tolerance,omitempty"`
	Global    *gbt.Model            `json:"global"`
	Edges     map[string]*gbt.Model `json:"edges,omitempty"`
	Probes    []Probe               `json:"probes,omitempty"`
}

// WriteRegistry writes the registry in the versioned file format, in one
// write: byte for byte what json.NewEncoder(w).Encode(&registryFile{...})
// emits (edge keys sorted and HTML-escaped, models embedded compact,
// trailing newline) and failing with the same errors, but appended
// directly — models through gbt.Model.AppendJSON, with no reflection and
// no re-compaction of their output.
func WriteRegistry(w io.Writer, r *Registry) error {
	if err := r.init(); err != nil {
		return err
	}
	b, err := appendRegistry(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// appendRegistry appends the registry file in registryFile's field order.
func appendRegistry(b []byte, r *Registry) ([]byte, error) {
	var err error
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, registryVersion, 10)
	b = append(b, `,"features":`...)
	b = jsonwire.AppendStrings(b, r.Features)
	if r.Tolerance != 0 {
		b = append(b, `,"tolerance":`...)
		if b, err = jsonwire.AppendFiniteFloat(b, r.Tolerance); err != nil {
			return nil, err
		}
	}
	b = append(b, `,"global":`...)
	if b, err = appendModel(b, r.Global); err != nil {
		return nil, err
	}
	if len(r.Edges) > 0 {
		keys := make([]string, 0, len(r.Edges))
		for k := range r.Edges {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, `,"edges":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonwire.AppendString(b, k)
			b = append(b, ':')
			if b, err = appendModel(b, r.Edges[k]); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	if len(r.Probes) > 0 {
		b = append(b, `,"probes":[`...)
		for i, p := range r.Probes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '{')
			if p.Edge != "" {
				b = append(b, `"edge":`...)
				b = jsonwire.AppendString(b, p.Edge)
				b = append(b, ',')
			}
			b = append(b, `"x":`...)
			if b, err = jsonwire.AppendFloats(b, p.X); err != nil {
				return nil, err
			}
			b = append(b, `,"want":`...)
			if b, err = jsonwire.AppendFiniteFloat(b, p.Want); err != nil {
				return nil, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// appendModel embeds one model; its errors are wrapped the way
// encoding/json wraps a failing Marshaler.
func appendModel(b []byte, m *gbt.Model) ([]byte, error) {
	if m == nil {
		return append(b, "null"...), nil
	}
	b, err := m.AppendJSON(b)
	if err != nil {
		return nil, &json.MarshalerError{Type: reflect.TypeOf(m), Err: err}
	}
	return b, nil
}

// ReadRegistry parses and fully validates a registry: structure, feature
// layouts, and every sanity probe. It never returns a registry that is
// unsafe to promote. The file is read whole and decoded in one pass when
// it has the shape WriteRegistry emits (scanRegistry); anything else goes
// through encoding/json, which keeps its accept set and error messages.
func ReadRegistry(rd io.Reader) (*Registry, error) {
	var f *registryFile
	err := jsonwire.Decode(rd, func(data []byte) bool {
		f = scanRegistry(data)
		return f != nil
	}, func(rd io.Reader) error {
		f = new(registryFile)
		if err := json.NewDecoder(rd).Decode(f); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRegistry, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if f.Version != registryVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadRegistry, f.Version)
	}
	r := &Registry{
		Features:  f.Features,
		Global:    f.Global,
		Edges:     f.Edges,
		Probes:    f.Probes,
		Tolerance: f.Tolerance,
	}
	if err := r.init(); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// scanRegistry decodes a whole registry file in one pass, or returns nil
// to defer to encoding/json: on unknown or repeated keys (a repeated
// "edges" object merges there), null anywhere but a probe's inputs, and
// whatever gbt.ScanJSON defers.
func scanRegistry(data []byte) *registryFile {
	s := jsonwire.NewScanner(data)
	f := new(registryFile)
	var seen uint8
	ok := s.Object(func(key []byte) bool {
		var bit uint8
		ok := false
		switch string(key) {
		case "version":
			bit = 1
			f.Version, ok = s.Int()
		case "features":
			bit = 2
			f.Features, ok = s.Strings()
		case "tolerance":
			bit = 4
			f.Tolerance, ok = s.Float()
		case "global":
			bit = 8
			f.Global, ok = gbt.ScanJSON(s)
		case "edges":
			bit = 16
			f.Edges = map[string]*gbt.Model{}
			ok = s.Object(func(key []byte) bool {
				edge := string(key)
				if _, dup := f.Edges[edge]; dup {
					return false
				}
				m, ok := gbt.ScanJSON(s)
				f.Edges[edge] = m
				return ok
			})
		case "probes":
			bit = 32
			f.Probes = []Probe{}
			ok = s.Array(func() bool {
				var p Probe
				ok := scanProbe(s, &p)
				f.Probes = append(f.Probes, p)
				return ok
			})
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
	if !ok || !s.End() {
		return nil
	}
	return f
}

// scanProbe decodes one probe object; absent keys stay zero, and a null
// input vector (what WriteRegistry writes for a nil one) stays nil.
func scanProbe(s *jsonwire.Scanner, p *Probe) bool {
	var seen uint8
	return s.Object(func(key []byte) bool {
		var bit uint8
		ok := false
		switch string(key) {
		case "edge":
			bit = 1
			p.Edge, ok = s.String()
		case "x":
			bit = 2
			if ok = s.Null(); !ok {
				p.X, ok = s.Floats()
			}
		case "want":
			bit = 4
			p.Want, ok = s.Float()
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
}

// LoadRegistryFile reads and validates the registry at path.
func LoadRegistryFile(path string) (*Registry, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	r, err := ReadRegistry(file)
	if err != nil {
		return nil, fmt.Errorf("registry %s: %w", path, err)
	}
	return r, nil
}

// init checks the registry's structure and builds the feature index.
func (r *Registry) init() error {
	if len(r.Features) == 0 {
		return fmt.Errorf("%w: no features", ErrBadRegistry)
	}
	if r.Global == nil {
		return fmt.Errorf("%w: no global model", ErrBadRegistry)
	}
	if r.Tolerance < 0 {
		return fmt.Errorf("%w: negative tolerance", ErrBadRegistry)
	}
	r.nameIdx = make(map[string]int, len(r.Features))
	for i, name := range r.Features {
		if name == "" {
			return fmt.Errorf("%w: empty feature name at column %d", ErrBadRegistry, i)
		}
		if _, dup := r.nameIdx[name]; dup {
			return fmt.Errorf("%w: duplicate feature %q", ErrBadRegistry, name)
		}
		r.nameIdx[name] = i
	}
	if err := r.checkModel("global", r.Global); err != nil {
		return err
	}
	r.global = &edgeEntry{m: r.Global, label: "global", jlabel: jsonwire.AppendString(nil, "global"), isGlobal: true}
	r.srcIdx = make(map[string]map[string]*edgeEntry, len(r.Edges))
	for edge, m := range r.Edges {
		if err := r.checkModel("edge "+edge, m); err != nil {
			return err
		}
		e := &edgeEntry{
			m:      m,
			label:  "edge:" + edge,
			latKey: fmt.Sprintf("serve.latency_ms{edge=%q}", edge),
		}
		e.jlabel = jsonwire.AppendString(nil, e.label)
		// Register the entry under every (src, dst) split of the key, so
		// the index answers exactly the pairs whose src+"->"+dst
		// concatenation equals this key — including pathological keys
		// with "->" inside src or dst, which are ambiguous by the same
		// rule the flat Edges map applies.
		for i := 0; i+2 <= len(edge); i++ {
			if edge[i] != '-' || i+1 >= len(edge) || edge[i+1] != '>' {
				continue
			}
			src, dst := edge[:i], edge[i+2:]
			byDst := r.srcIdx[src]
			if byDst == nil {
				byDst = make(map[string]*edgeEntry)
				r.srcIdx[src] = byDst
			}
			if prev := byDst[dst]; prev == nil {
				se := *e
				se.src, se.dst = src, dst
				byDst[dst] = &se
			}
		}
	}
	return nil
}

// checkModel verifies one model's feature layout matches the registry's.
func (r *Registry) checkModel(what string, m *gbt.Model) error {
	if m == nil {
		return fmt.Errorf("%w: %s model is null", ErrBadRegistry, what)
	}
	if len(m.Names) != len(r.Features) {
		return fmt.Errorf("%w: %s model has %d features, registry has %d",
			ErrBadRegistry, what, len(m.Names), len(r.Features))
	}
	for i, name := range m.Names {
		if name != r.Features[i] {
			return fmt.Errorf("%w: %s model feature %d is %q, registry says %q",
				ErrBadRegistry, what, i, name, r.Features[i])
		}
	}
	return nil
}

// Validate runs every sanity probe against its model. This is the
// golden-tolerance gate: a registry whose serialized weights were
// corrupted in a way that still parses will predict off-probe and be
// refused promotion.
func (r *Registry) Validate() error {
	if len(r.Probes) == 0 {
		return fmt.Errorf("%w: no sanity probes", ErrBadRegistry)
	}
	tol := r.Tolerance
	if tol <= 0 {
		tol = defaultTolerance
	}
	for i, p := range r.Probes {
		m := r.Global
		what := "global"
		if p.Edge != "" {
			m = r.Edges[p.Edge]
			what = "edge " + p.Edge
			if m == nil {
				return fmt.Errorf("%w: probe %d references unknown %s", ErrBadRegistry, i, what)
			}
		}
		if len(p.X) != len(r.Features) {
			return fmt.Errorf("%w: probe %d has %d inputs, want %d", ErrBadRegistry, i, len(p.X), len(r.Features))
		}
		got, err := m.Predict(p.X)
		if err != nil {
			return fmt.Errorf("%w: probe %d (%s): %v", ErrBadRegistry, i, what, err)
		}
		if !(math.Abs(got-p.Want) <= tol*math.Max(1, math.Abs(p.Want))) {
			return fmt.Errorf("%w: probe %d (%s) predicted %v, want %v (tolerance %g)",
				ErrBadRegistry, i, what, got, p.Want, tol)
		}
		// Code-space gate: a model carrying a quantized forest must
		// reproduce the float answer BIT-identically on every probe it
		// can quantize — no tolerance. Divergence here means the cuts or
		// packed nodes were corrupted in a way the float probes can't
		// see, and the file must not serve.
		if m.CodeSpace() {
			codes := make([]uint8, len(p.X))
			if qerr := m.QuantizeRow(p.X, codes); qerr == nil {
				var cout [1]float64
				if cerr := m.PredictCodes([][]uint8{codes}, cout[:]); cerr != nil {
					return fmt.Errorf("%w: probe %d (%s) code path: %v", ErrBadRegistry, i, what, cerr)
				}
				if cout[0] != got {
					return fmt.Errorf("%w: probe %d (%s) code path predicted %v, float path %v — quantized forest diverges",
						ErrBadRegistry, i, what, cout[0], got)
				}
			}
		}
	}
	return nil
}

// Lookup returns the model serving the src→dst edge — the edge's own
// model when the registry has one, the global fallback otherwise — plus
// the label the response and metrics report.
func (r *Registry) Lookup(src, dst string) (*gbt.Model, string) {
	e := r.lookupEntry(src, dst)
	return e.m, e.label
}

// lookupEntry resolves the serving entry for one src→dst pair with two
// map hits and zero allocations — the per-row resolver on the admission
// and batch paths. Registries that skipped init (hand-built in tests)
// fall back to the flat key concatenation.
func (r *Registry) lookupEntry(src, dst string) *edgeEntry {
	if byDst := r.srcIdx[src]; byDst != nil {
		if e := byDst[dst]; e != nil {
			return e
		}
	}
	if r.global == nil {
		key := src + "->" + dst
		if m := r.Edges[key]; m != nil {
			return &edgeEntry{m: m, src: src, dst: dst, label: "edge:" + key,
				jlabel: jsonwire.AppendString(nil, "edge:"+key),
				latKey: fmt.Sprintf("serve.latency_ms{edge=%q}", key)}
		}
		return &edgeEntry{m: r.Global, label: "global", jlabel: jsonwire.AppendString(nil, "global"), isGlobal: true}
	}
	return r.global
}

// lookupEntryB is lookupEntry over byte slices still aliasing a request
// buffer — the map lookups compile to zero-copy string views, so the
// codec can resolve an edge before interning src/dst.
func (r *Registry) lookupEntryB(src, dst []byte) *edgeEntry {
	if byDst := r.srcIdx[string(src)]; byDst != nil {
		if e := byDst[string(dst)]; e != nil {
			return e
		}
	}
	if r.global == nil {
		return r.lookupEntry(string(src), string(dst))
	}
	return r.global
}

// Vectorize fills dst (len(Features)) with the request's named feature
// values in registry column order; names the registry does not know are
// reported in err. Missing features default to zero — a request is a
// sparse map, not a fixed-width row.
func (r *Registry) Vectorize(feats map[string]float64, dst []float64) error {
	for i := range dst {
		dst[i] = 0
	}
	for name, v := range feats {
		j, ok := r.nameIdx[name]
		if !ok {
			return fmt.Errorf("unknown feature %q", name)
		}
		dst[j] = v
	}
	return nil
}
