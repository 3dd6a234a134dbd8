package gbt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Serialization: a trained ensemble round-trips through a compact JSON
// form, so models can be trained offline (e.g. from historical logs) and
// shipped to the scheduler or prediction service that uses them. The wire
// format — nodes flattened in pre-order with explicit child indices — is
// also the in-memory layout, so Save/Load are direct field mappings.

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

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	jm, err := m.toJSON()
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(jm)
}

// MarshalJSON implements json.Marshaler with the same payload Save
// writes, so a *Model embeds directly in larger documents — the serve
// registry stores its per-edge and global models this way.
func (m *Model) MarshalJSON() ([]byte, error) {
	jm, err := m.toJSON()
	if err != nil {
		return nil, err
	}
	return json.Marshal(jm)
}

// toJSON converts the ensemble to its wire form.
func (m *Model) toJSON() (*jsonModel, error) {
	if len(m.trees) == 0 {
		return nil, ErrNotTrained
	}
	jm := &jsonModel{
		Version: serializationVersion,
		Base:    m.Base,
		Names:   m.Names,
		Bins:    m.bins,
		Cuts:    m.cuts,
	}
	for ti := range m.trees {
		nodes := m.trees[ti].nodes
		flat := make([]jsonNode, len(nodes))
		for i, n := range nodes {
			if n.feature < 0 {
				flat[i] = jsonNode{Feature: -1, Weight: n.weight, Left: -1, Right: -1}
				continue
			}
			flat[i] = jsonNode{
				Feature:   int(n.feature),
				Threshold: n.threshold,
				Gain:      n.gain,
				Left:      int(n.left),
				Right:     int(n.right),
			}
		}
		jm.Trees = append(jm.Trees, flat)
	}
	return jm, nil
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var jm jsonModel
	if err := json.NewDecoder(r).Decode(&jm); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return fromJSON(&jm)
}

// UnmarshalJSON implements json.Unmarshaler for payloads written by Save
// or MarshalJSON, with the full structural validation Load applies.
func (m *Model) UnmarshalJSON(data []byte) error {
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

// fromJSON validates the wire form and builds the in-memory model.
func fromJSON(jm *jsonModel) (*Model, error) {
	if jm.Version != serializationVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadModel, jm.Version)
	}
	if len(jm.Names) == 0 || len(jm.Trees) == 0 {
		return nil, fmt.Errorf("%w: empty model", ErrBadModel)
	}
	if jm.Bins < 0 || jm.Bins > 256 {
		return nil, fmt.Errorf("%w: bins %d out of range", ErrBadModel, jm.Bins)
	}
	if jm.Cuts != nil && len(jm.Cuts) != len(jm.Names) {
		return nil, fmt.Errorf("%w: %d cut-point columns for %d features", ErrBadModel, len(jm.Cuts), len(jm.Names))
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
