package gbt

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// toJSON is the reference encoder: the wire struct that json.Marshal
// walks, exactly as Save and MarshalJSON built it before they appended
// bytes directly. AppendJSON must reproduce json.Marshal of it byte for
// byte, errors included.
func toJSON(m *Model) (*jsonModel, error) {
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

// decodeReference is the encoding/json decode path, the reference the
// one-pass scanner must match: Unmarshal into the wire struct, then
// fromJSON's validation.
func decodeReference(data []byte) (*Model, error) {
	var jm jsonModel
	if err := json.Unmarshal(data, &jm); err != nil {
		return nil, err
	}
	return fromJSON(&jm)
}

// bitEqual reports whether a and b hold the same value, comparing floats
// by their bits (so -0 differs from 0 and a NaN equals the same NaN),
// slices by nil-ness too, and following pointers, unexported fields
// included — "the same model", derived forests and quantizer tables
// and all.
func bitEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitEqual(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("bitEqual: unhandled kind " + a.Kind().String())
}

func sameModel(a, b *Model) bool { return bitEqual(reflect.ValueOf(a), reflect.ValueOf(b)) }

// codecModels is a spread of models for the encoder tests: trained with
// and without row sampling, warm-started (thresholds off its cut grid),
// legacy (no bins or cuts), and hand-built ones with signed zeros, zero
// gains and weights, and names that need escaping.
func codecModels(t *testing.T) map[string]*Model {
	t.Helper()
	trained, _ := trainedModel(t)
	d := makeDataset(t, 200, 22, func(x []float64) float64 { return x[0] - 2*x[1] }, 0.2, 3)
	p := DefaultParams()
	p.Rounds = 15
	p.Bins = 16
	warm, err := TrainWarm(d, p, trained)
	if err != nil {
		t.Fatal(err)
	}
	// handForest's ±Inf thresholds have no JSON form; keep its shape
	// with the largest finite ones.
	finite := func() *Model {
		m := handForest()
		m.trees[2].nodes[4].threshold = math.MaxFloat64
		m.trees[3].nodes[0].threshold = -math.MaxFloat64
		m.buildFlat()
		return m
	}
	legacy := finite()
	hand := finite()
	hand.Base = math.Copysign(0, -1)
	hand.Names = []string{"<a>", "b&c", "d\u2028e\"\\\x01\xff"}
	hand.trees[1].nodes[0].gain = 0
	hand.trees[2].nodes[0].gain = 1e-300
	hand.trees[2].nodes[1].weight = 0
	hand.trees[2].nodes[3].weight = math.Copysign(0, -1)
	hand.bins = 4
	hand.cuts = [][]float64{{-1, 0, 0.5}, {}, {math.Copysign(0, -1), 5e-324, 1e21}}
	hand.buildFlat()
	return map[string]*Model{"trained": trained, "warm": warm, "legacy": legacy, "hand": hand}
}

// TestAppendJSONMatchesEncodingJSON: AppendJSON, MarshalJSON and Save
// write exactly what encoding/json wrote from the wire struct.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for name, m := range codecModels(t) {
		jm, err := toJSON(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(jm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.AppendJSON([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%s: AppendJSON differs from json.Marshal:\n got  %.300s\n want %.300s", name, got[6:], want)
		}
		if mj, err := m.MarshalJSON(); err != nil || !bytes.Equal(mj, want) {
			t.Fatalf("%s: MarshalJSON differs (err %v)", name, err)
		}
		var ref, save bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(jm); err != nil {
			t.Fatal(err)
		}
		if err := m.Save(&save); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(save.Bytes(), ref.Bytes()) {
			t.Fatalf("%s: Save differs from json.Encoder", name)
		}
		// The one-pass decoder reads it back to the same model the
		// encoding/json path builds.
		fast := scanModelDoc(want)
		if fast == nil {
			t.Fatalf("%s: scanner deferred on its own encoder's output", name)
		}
		slow, err := decodeReference(want)
		if err != nil {
			t.Fatal(err)
		}
		if !sameModel(fast, slow) {
			t.Fatalf("%s: scanned model differs from the encoding/json one", name)
		}
	}
}

// TestAppendJSONNonFinite: a NaN or infinity anywhere the encoder writes
// a float fails with encoding/json's exact error, and an untrained model
// with ErrNotTrained.
func TestAppendJSONNonFinite(t *testing.T) {
	edits := map[string]func(m *Model, v float64){
		"base":      func(m *Model, v float64) { m.Base = v },
		"cut":       func(m *Model, v float64) { m.cuts[2][1] = v },
		"threshold": func(m *Model, v float64) { m.trees[2].nodes[2].threshold = v },
		"weight":    func(m *Model, v float64) { m.trees[3].nodes[4].weight = v },
		"gain":      func(m *Model, v float64) { m.trees[1].nodes[0].gain = v },
	}
	for name, edit := range edits {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			m := codecModels(t)["hand"]
			edit(m, v)
			jm, _ := toJSON(m)
			_, want := json.Marshal(jm)
			_, got := m.AppendJSON(nil)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("%s=%v: AppendJSON error %v, encoding/json %v", name, v, got, want)
			}
			if err := m.Save(&bytes.Buffer{}); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s=%v: Save error %v, want %v", name, v, err, want)
			}
		}
	}
	if _, err := (&Model{}).AppendJSON(nil); err != ErrNotTrained {
		t.Fatalf("untrained: %v", err)
	}
}

// TestScanJSONShapes: the one-pass decoder takes reordered keys, any
// whitespace, escaped names and a legacy payload without bins or cuts —
// matching encoding/json — and defers on shapes it does not model.
func TestScanJSONShapes(t *testing.T) {
	accept := []string{
		`{"version":1,"base":0.5,"names":["a"],"trees":[[{"f":-1,"w":1,"l":-1,"r":-1}]]}`,
		" {\n\t\"trees\" : [ [ {\"r\":2,\"l\":1,\"t\":0.25,\"f\":0} , {\"f\":-1,\"w\":-1} ,{\"w\":2,\"f\":-7} ] ] ,\r\n \"names\":[\"\\u0061\\n\\/\"], \"base\":-0,\"version\":1 } ",
		`{"version":1,"base":1e-7,"names":["a","b"],"bins":2,"cuts":[[0],[]],"trees":[[{"f":1,"t":-0,"g":3,"l":1,"r":2},{"f":-1,"t":9,"g":9,"l":5,"r":5},{"f":-1}]]}`,
		`{"version":1,"base":0,"names":["x\u00e9\u2028\ufffd"],"trees":[[{"f":-1}]]}`,
	}
	for _, c := range accept {
		fast := scanModelDoc([]byte(c))
		if fast == nil {
			t.Fatalf("scanner deferred on %q", c)
		}
		slow, err := decodeReference([]byte(c))
		if err != nil {
			t.Fatal(err)
		}
		if !sameModel(fast, slow) {
			t.Fatalf("scanner and encoding/json disagree on %q", c)
		}
	}
	deferred := []string{
		`{"version":1,"base":0,"names":["a"],"trees":[[{"f":-1}]],"extra":1}`,
		`{"Version":1,"base":0,"names":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"version":1,"base":0,"names":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"base":null,"names":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1.0,"base":0,"names":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"base":0,"names":["\ud83d\ude00"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"base":0,"names":["a"],"trees":[[{"f":-1}]]} x`,
		`{"version":1,"base":0,"names":["a"],"trees":[[{"f":1,"l":1,"r":2},{"f":-1},{"f":-1}]]}`,
		`{"version":1,"base":0,"names":["a"],"trees":[[{"f":0,"l":1,"r":3},{"f":-1},{"f":-1}]]}`,
		`{"version":1,"base":0,"names":["a"],"trees":[[]]}`,
		`{"version":1,"base":1e999,"names":["a"],"trees":[[{"f":-1}]]}`,
		`{"version":1,"base":0,"names":["a"],"cuts":[],"trees":[[{"f":-1}]]}`,
	}
	for _, c := range deferred {
		if scanModelDoc([]byte(c)) != nil {
			t.Fatalf("scanner accepted %q, which it must leave to encoding/json", c)
		}
	}
	// Load and UnmarshalJSON keep encoding/json's errors on what the
	// scanner defers.
	_, err := Load(strings.NewReader(deferred[7]))
	_, ref := decodeReference([]byte(deferred[7]))
	if err == nil || ref == nil || err.Error() != ref.Error() {
		t.Fatalf("Load error %v, reference %v", err, ref)
	}
}

// FuzzModelDecode pins the one-pass model decoder's contract: on any
// input it either defers, or builds exactly the model — every field,
// derived forests included, compared bit for bit — that the
// encoding/json path (Unmarshal into the wire struct, then fromJSON)
// builds. It never rejects on its own: whatever it accepts, the
// reference accepts too.
func FuzzModelDecode(f *testing.F) {
	f.Add([]byte(`{"version":1,"base":0.5,"names":["a","b"],"bins":4,"cuts":[[0,1],[2]],"trees":[[{"f":0,"t":1,"g":2,"l":1,"r":2},{"f":-1,"w":1,"l":-1,"r":-1},{"f":-1,"w":-2,"l":-1,"r":-1}]]}`))
	f.Add([]byte(`{"version":1,"base":3,"names":["a"],"trees":[[{"f":-1,"w":1,"l":-1,"r":-1}],[{"f":0,"t":-0.5,"l":1,"r":2},{"f":-1},{"f":-1,"w":2e-9}]]}`))
	f.Add([]byte(` { "trees" : [[{"r":2,"l":1,"f":0},{"f":-1},{"f":-1}]], "names" : ["<x>"], "version" : 1 } `))
	f.Add([]byte(`{"version":1,"base":0,"names":["a"],"trees":[[{"f":-1}]]}trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := scanModelDoc(data)
		if fast == nil {
			return
		}
		slow, err := decodeReference(data)
		if err != nil {
			t.Fatalf("scanner accepted what encoding/json rejects (%v): %q", err, data)
		}
		if !sameModel(fast, slow) {
			t.Fatalf("scanner and encoding/json built different models from %q", data)
		}
	})
}
