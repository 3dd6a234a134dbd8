package gbt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/jsonwire"
)

// Serialization: a trained ensemble round-trips through a compact JSON
// form, so models can be trained offline (e.g. from historical logs) and
// shipped to the scheduler or prediction service that uses them. The wire
// format — nodes flattened in pre-order with explicit child indices — is
// also the in-memory layout, so Save/Load are direct field mappings.
// Encoding appends bytes directly (AppendJSON); decoding scans the shape
// AppendJSON writes in one pass (ScanJSON) and defers everything else to
// encoding/json over the wire structs below, the reference for what is
// accepted and for every error message.

// jsonNode is the serialized form of one tree node, flattened into an
// array with child indices (index 0 is the root, -1 means no child).
type jsonNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Weight    float64 `json:"w,omitempty"`
	Gain      float64 `json:"g,omitempty"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
}

// jsonModel is the serialized ensemble. Bins and Cuts record histogram
// training provenance (Params.Bins and the per-feature quantile cut
// points). Files written before training was always binned carry
// neither; they still load, and serve through the float path only.
type jsonModel struct {
	Version int          `json:"version"`
	Base    float64      `json:"base"`
	Names   []string     `json:"names"`
	Bins    int          `json:"bins,omitempty"`
	Cuts    [][]float64  `json:"cuts,omitempty"`
	Trees   [][]jsonNode `json:"trees"`
}

const serializationVersion = 1

// ErrBadModel is returned when deserialization encounters a malformed or
// unsupported payload.
var ErrBadModel = errors.New("gbt: malformed model payload")

// Save writes the model as JSON, one line.
func (m *Model) Save(w io.Writer) error {
	b, err := m.AppendJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// MarshalJSON implements json.Marshaler with the same payload Save
// writes, so a *Model embeds directly in larger documents.
func (m *Model) MarshalJSON() ([]byte, error) {
	return m.AppendJSON(nil)
}

// AppendJSON appends the model's wire form to b: byte for byte what
// json.Marshal of the wire struct (jsonModel) produces — the same float
// format, HTML-escaped names, omitted zero fields, and the same
// UnsupportedValueError for a non-finite number — but written directly,
// with no per-node struct copy and no reflection. serve.WriteRegistry
// embeds models through it.
func (m *Model) AppendJSON(b []byte) ([]byte, error) {
	if len(m.trees) == 0 {
		return b, ErrNotTrained
	}
	if need := m.jsonSizeHint(); cap(b)-len(b) < need {
		b = append(b[:cap(b)], make([]byte, max(need, cap(b)))...)[:len(b)]
	}
	var err error
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, serializationVersion, 10)
	b = append(b, `,"base":`...)
	if b, err = jsonwire.AppendFiniteFloat(b, m.Base); err != nil {
		return b, err
	}
	b = append(b, `,"names":`...)
	b = jsonwire.AppendStrings(b, m.Names)
	if m.bins != 0 {
		b = append(b, `,"bins":`...)
		b = strconv.AppendInt(b, int64(m.bins), 10)
	}
	if len(m.cuts) != 0 {
		b = append(b, `,"cuts":[`...)
		for f, cuts := range m.cuts {
			if f > 0 {
				b = append(b, ',')
			}
			if b, err = jsonwire.AppendFloats(b, cuts); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"trees":[`...)
	for ti := range m.trees {
		if ti > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i, n := range m.trees[ti].nodes {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendNode(b, &n); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// appendNode appends one node in jsonNode's field order: f, t, w, g, l,
// r, with t, w and g omitted when zero. A leaf carries only its weight
// and -1 children; a split carries no weight.
func appendNode(b []byte, n *node) ([]byte, error) {
	var err error
	if n.feature < 0 {
		b = append(b, `{"f":-1`...)
		if n.weight != 0 {
			b = append(b, `,"w":`...)
			if b, err = jsonwire.AppendFiniteFloat(b, n.weight); err != nil {
				return b, err
			}
		}
		return append(b, `,"l":-1,"r":-1}`...), nil
	}
	b = append(b, `{"f":`...)
	b = strconv.AppendInt(b, int64(n.feature), 10)
	if n.threshold != 0 {
		b = append(b, `,"t":`...)
		if b, err = jsonwire.AppendFiniteFloat(b, n.threshold); err != nil {
			return b, err
		}
	}
	if n.gain != 0 {
		b = append(b, `,"g":`...)
		if b, err = jsonwire.AppendFiniteFloat(b, n.gain); err != nil {
			return b, err
		}
	}
	b = append(b, `,"l":`...)
	b = strconv.AppendInt(b, int64(n.left), 10)
	b = append(b, `,"r":`...)
	b = strconv.AppendInt(b, int64(n.right), 10)
	return append(b, '}'), nil
}

// jsonSizeHint estimates the encoded size, so AppendJSON grows its
// buffer once per model instead of doubling its way up.
func (m *Model) jsonSizeHint() int {
	n := 256
	for ti := range m.trees {
		n += 56 * len(m.trees[ti].nodes)
	}
	for _, c := range m.cuts {
		n += 24 * len(c)
	}
	return n
}

// Load reads a model previously written by Save. It reads r to EOF,
// decodes the shape Save writes in one pass (ScanJSON), and hands
// anything else to encoding/json, which keeps its accept set and error
// messages.
func Load(r io.Reader) (*Model, error) {
	var m *Model
	err := jsonwire.Decode(r, func(data []byte) bool {
		m = scanModelDoc(data)
		return m != nil
	}, func(r io.Reader) error {
		var jm jsonModel
		if err := json.NewDecoder(r).Decode(&jm); err != nil {
			return fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		var err error
		m, err = fromJSON(&jm)
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalJSON implements json.Unmarshaler for payloads written by Save
// or MarshalJSON, with the full structural validation Load applies.
func (m *Model) UnmarshalJSON(data []byte) error {
	if fm := scanModelDoc(data); fm != nil {
		*m = *fm
		return nil
	}
	var jm jsonModel
	if err := json.Unmarshal(data, &jm); err != nil {
		return fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	loaded, err := fromJSON(&jm)
	if err != nil {
		return err
	}
	*m = *loaded
	return nil
}

// scanModelDoc decodes data holding exactly one model, or returns nil to
// defer to encoding/json.
func scanModelDoc(data []byte) *Model {
	s := jsonwire.NewScanner(data)
	if m, ok := ScanJSON(s); ok && s.End() {
		return m
	}
	return nil
}

// ScanJSON decodes one model at the scanner's position in a single
// pass: the shape AppendJSON writes, in any key order and whitespace,
// with or without bins and cuts. It returns false — to defer to
// encoding/json (json.Unmarshal into a *Model) — on anything it is not
// certain encoding/json would decode identically and fromJSON would
// accept: unknown or repeated keys, null, numbers off the strict
// grammar, and every structural error. It never rejects on its own.
func ScanJSON(s *jsonwire.Scanner) (*Model, bool) {
	var (
		version, bins int
		base          float64
		names         []string
		cuts          [][]float64
		trees         []tree
		seen          uint8
	)
	ok := s.Object(func(key []byte) bool {
		var bit uint8
		ok := false
		switch string(key) {
		case "version":
			bit = 1
			version, ok = s.Int()
		case "base":
			bit = 2
			base, ok = s.Float()
		case "names":
			bit = 4
			names, ok = s.Strings()
		case "bins":
			bit = 8
			bins, ok = s.Int()
		case "cuts":
			bit = 16
			cuts = [][]float64{}
			ok = s.Array(func() bool {
				c, ok := s.Floats()
				cuts = append(cuts, c)
				return ok
			})
		case "trees":
			bit = 32
			trees, ok = scanTrees(s)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
	if !ok || checkHeader(version, len(names), len(trees), bins, cuts) != nil {
		return nil, false
	}
	for _, t := range trees {
		for _, n := range t.nodes {
			if int(n.feature) >= len(names) {
				return nil, false
			}
		}
	}
	m := &Model{Base: base, Names: names, trees: trees, bins: bins, cuts: cuts}
	m.buildQuantizer()
	m.buildFlat()
	return m, true
}

// scanTrees decodes the trees array into nodes, applying unflatten's
// rules as it goes: any negative feature is a leaf keeping only its
// weight; a split keeps its threshold, gain and children, which must
// point forward and inside the tree. The feature range is checked by
// the caller once the names are known.
func scanTrees(s *jsonwire.Scanner) ([]tree, bool) {
	trees := []tree{}
	var nodes []node
	ok := s.Array(func() bool {
		nodes = nodes[:0]
		ok := s.Array(func() bool {
			var jn jsonNode
			if !scanNode(s, &jn) {
				return false
			}
			i := len(nodes)
			if jn.Feature < 0 {
				nodes = append(nodes, node{feature: -1, weight: jn.Weight})
				return true
			}
			if jn.Feature > math.MaxInt32 || jn.Left <= i || jn.Right <= i ||
				jn.Left > math.MaxInt32 || jn.Right > math.MaxInt32 {
				return false
			}
			nodes = append(nodes, node{
				feature:   int32(jn.Feature),
				threshold: jn.Threshold,
				gain:      jn.Gain,
				left:      int32(jn.Left),
				right:     int32(jn.Right),
			})
			return true
		})
		if !ok || len(nodes) == 0 {
			return false
		}
		for _, n := range nodes {
			if n.feature >= 0 && (int(n.left) >= len(nodes) || int(n.right) >= len(nodes)) {
				return false
			}
		}
		trees = append(trees, tree{nodes: append([]node(nil), nodes...)})
		return true
	})
	return trees, ok
}

// scanNode decodes one node object; absent keys stay zero, as in
// encoding/json.
func scanNode(s *jsonwire.Scanner, jn *jsonNode) bool {
	var seen uint8
	return s.Object(func(key []byte) bool {
		var bit uint8
		ok := false
		switch string(key) {
		case "f":
			bit = 1
			jn.Feature, ok = s.Int()
		case "t":
			bit = 2
			jn.Threshold, ok = s.Float()
		case "w":
			bit = 4
			jn.Weight, ok = s.Float()
		case "g":
			bit = 8
			jn.Gain, ok = s.Float()
		case "l":
			bit = 16
			jn.Left, ok = s.Int()
		case "r":
			bit = 32
			jn.Right, ok = s.Int()
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
}

// checkHeader applies fromJSON's model-level checks.
func checkHeader(version, names, trees, bins int, cuts [][]float64) error {
	if version != serializationVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadModel, version)
	}
	if names == 0 || trees == 0 {
		return fmt.Errorf("%w: empty model", ErrBadModel)
	}
	if bins < 0 || bins > 256 {
		return fmt.Errorf("%w: bins %d out of range", ErrBadModel, bins)
	}
	if cuts != nil && len(cuts) != names {
		return fmt.Errorf("%w: %d cut-point columns for %d features", ErrBadModel, len(cuts), names)
	}
	return nil
}

// fromJSON validates the wire form and builds the in-memory model.
func fromJSON(jm *jsonModel) (*Model, error) {
	if err := checkHeader(jm.Version, len(jm.Names), len(jm.Trees), jm.Bins, jm.Cuts); err != nil {
		return nil, err
	}
	m := &Model{Base: jm.Base, Names: jm.Names, bins: jm.Bins, cuts: jm.Cuts}
	m.buildQuantizer()
	for ti, flat := range jm.Trees {
		t, err := unflatten(flat, len(jm.Names))
		if err != nil {
			return nil, fmt.Errorf("%w: tree %d: %v", ErrBadModel, ti, err)
		}
		m.trees = append(m.trees, t)
	}
	m.buildFlat()
	return m, nil
}

// unflatten validates a serialized tree — index ranges, feature
// references, and the pre-order invariant that children strictly follow
// their parent (so a crafted payload cannot make Predict loop) — and
// converts it to the in-memory node array.
func unflatten(flat []jsonNode, numFeatures int) (tree, error) {
	if len(flat) == 0 {
		return tree{}, fmt.Errorf("empty tree")
	}
	nodes := make([]node, len(flat))
	for i, jn := range flat {
		if jn.Feature < 0 {
			nodes[i] = node{feature: -1, weight: jn.Weight}
			continue
		}
		if jn.Feature >= numFeatures {
			return tree{}, fmt.Errorf("feature %d out of range", jn.Feature)
		}
		if jn.Left <= i || jn.Right <= i {
			return tree{}, fmt.Errorf("node %d has non-forward child", i)
		}
		if jn.Left >= len(flat) || jn.Right >= len(flat) {
			return tree{}, fmt.Errorf("node %d child index out of range", i)
		}
		nodes[i] = node{
			feature:   int32(jn.Feature),
			threshold: jn.Threshold,
			gain:      jn.Gain,
			left:      int32(jn.Left),
			right:     int32(jn.Right),
		}
	}
	return tree{nodes: nodes}, nil
}
