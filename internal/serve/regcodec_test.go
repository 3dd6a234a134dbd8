package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ml/gbt"
)

// encodeReference is the registry encoder WriteRegistry replaced: the
// wire struct through json.Encoder. WriteRegistry must match it byte for
// byte, errors included.
func encodeReference(r *Registry) ([]byte, error) {
	if err := r.init(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&registryFile{
		Version:   registryVersion,
		Features:  r.Features,
		Tolerance: r.Tolerance,
		Global:    r.Global,
		Edges:     r.Edges,
		Probes:    r.Probes,
	})
	return buf.Bytes(), err
}

// legacyModel reloads m without its bins and cuts, as a file written
// before training was always binned would hold it.
func legacyModel(t *testing.T, m *gbt.Model) *gbt.Model {
	t.Helper()
	b, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw, "bins")
	delete(raw, "cuts")
	if b, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	var back gbt.Model
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	return &back
}

// escapedRegistry has edge keys and probe edges that need escaping
// ("->" itself is written "-\u003e"), a legacy edge model, a tolerance,
// and a probe with no inputs.
func escapedRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := testRegistry(t, 1)
	m := reg.Edges["S1->D1"]
	reg.Edges = map[string]*gbt.Model{
		"S1->D1":         m,
		"<x>&y->z":       legacyModel(t, m),
		"ü\u2028->\"q\\": m,
		"A->B":           reg.Global,
	}
	reg.Tolerance = 2.5e-7
	reg.Probes = append(reg.Probes, Probe{Edge: "<x>&y->z", Want: 1e21}, Probe{X: []float64{}, Want: math.Copysign(0, -1)})
	return reg
}

// TestWriteRegistryMatchesEncodingJSON: the direct encoder writes the
// exact bytes json.Encoder wrote from the wire struct, and the one-pass
// decoder reads them back to what encoding/json decodes.
func TestWriteRegistryMatchesEncodingJSON(t *testing.T) {
	for name, reg := range map[string]*Registry{"test": testRegistry(t, 1), "escaped": escapedRegistry(t)} {
		want, err := encodeReference(reg)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteRegistry(&got, reg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: WriteRegistry differs from json.Encoder:\n got  %.400s\n want %.400s", name, got.Bytes(), want)
		}
		fast := scanRegistry(want)
		if fast == nil {
			t.Fatalf("%s: scanner deferred on WriteRegistry's output", name)
		}
		var ref registryFile
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if err := sameRegistryFile(fast, &ref); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if !bytes.Contains(mustEncode(t, escapedRegistry(t)), []byte(`"A-\u003eB":`)) {
		t.Fatal(`edge key "A->B" not written as "A-\u003eB"`)
	}
}

func mustEncode(t *testing.T, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRegistry(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteRegistryErrorsMatchEncodingJSON: non-finite numbers and an
// untrained model fail with encoding/json's exact errors, and nothing is
// written.
func TestWriteRegistryErrorsMatchEncodingJSON(t *testing.T) {
	edits := map[string]func(r *Registry){
		"tolerance":   func(r *Registry) { r.Tolerance = math.NaN() },
		"probe-x":     func(r *Registry) { r.Probes[0].X = []float64{0, math.Inf(1), 0} },
		"probe-want":  func(r *Registry) { r.Probes[1].Want = math.Inf(-1) },
		"global-base": func(r *Registry) { g := *r.Global; g.Base = math.NaN(); r.Global = &g },
		"edge-base": func(r *Registry) {
			m := *r.Edges["A->B"]
			m.Base = math.Inf(1)
			r.Edges["A->B"] = &m
		},
		"untrained": func(r *Registry) { r.Edges["S1->D1"] = &gbt.Model{Names: r.Features} },
	}
	for name, edit := range edits {
		reg := escapedRegistry(t)
		edit(reg)
		_, want := encodeReference(reg)
		var buf bytes.Buffer
		got := WriteRegistry(&buf, reg)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%s: WriteRegistry error %v, encoding/json %v", name, got, want)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: %d bytes written on error", name, buf.Len())
		}
	}
}

// TestReadRegistryDefersWithReferenceErrors: shapes the scanner leaves to
// encoding/json still load (unknown keys are ignored there), and every
// error is the reference path's.
func TestReadRegistryDefersWithReferenceErrors(t *testing.T) {
	good := mustEncode(t, testRegistry(t, 1))
	extra := append([]byte(`{"comment":"x",`), good[1:]...)
	if scanRegistry(extra) != nil {
		t.Fatal("scanner accepted an unknown key")
	}
	if _, err := ReadRegistry(bytes.NewReader(extra)); err != nil {
		t.Fatalf("deferred registry with an unknown key failed: %v", err)
	}
	for _, bad := range []string{`{"version":2,"features":["a","b","c"],"global":null}`, `{"version":2,`, `[]`} {
		_, err := ReadRegistry(strings.NewReader(bad))
		var f registryFile
		ref := json.NewDecoder(strings.NewReader(bad)).Decode(&f)
		if err == nil || (ref != nil && !strings.Contains(err.Error(), ref.Error())) {
			t.Fatalf("%s: ReadRegistry error %v, reference %v", bad, err, ref)
		}
	}
}

// sameRegistryFile compares two decoded registry files: every field bit
// for bit (floats by their bits, slices and maps by nil-ness too), and
// models by their encoding, bin count and code-space verdict.
// FuzzModelDecode in ml/gbt pins the model decoder itself field by field.
func sameRegistryFile(a, b *registryFile) error {
	if a.Version != b.Version || !reflect.DeepEqual(a.Features, b.Features) ||
		math.Float64bits(a.Tolerance) != math.Float64bits(b.Tolerance) {
		return fmt.Errorf("header differs: %d %q %v vs %d %q %v",
			a.Version, a.Features, a.Tolerance, b.Version, b.Features, b.Tolerance)
	}
	if err := sameModelWire(a.Global, b.Global); err != nil {
		return fmt.Errorf("global: %v", err)
	}
	if (a.Edges == nil) != (b.Edges == nil) || len(a.Edges) != len(b.Edges) {
		return fmt.Errorf("edges differ: %d vs %d", len(a.Edges), len(b.Edges))
	}
	for k, m := range a.Edges {
		bm, ok := b.Edges[k]
		if !ok {
			return fmt.Errorf("edge %q missing", k)
		}
		if err := sameModelWire(m, bm); err != nil {
			return fmt.Errorf("edge %q: %v", k, err)
		}
	}
	if (a.Probes == nil) != (b.Probes == nil) || len(a.Probes) != len(b.Probes) {
		return fmt.Errorf("probes differ: %d vs %d", len(a.Probes), len(b.Probes))
	}
	for i, p := range a.Probes {
		q := b.Probes[i]
		if p.Edge != q.Edge || math.Float64bits(p.Want) != math.Float64bits(q.Want) ||
			(p.X == nil) != (q.X == nil) || len(p.X) != len(q.X) {
			return fmt.Errorf("probe %d differs: %+v vs %+v", i, p, q)
		}
		for j := range p.X {
			if math.Float64bits(p.X[j]) != math.Float64bits(q.X[j]) {
				return fmt.Errorf("probe %d input %d differs", i, j)
			}
		}
	}
	return nil
}

func sameModelWire(a, b *gbt.Model) error {
	if a == nil || b == nil {
		if a != b {
			return fmt.Errorf("one model is null")
		}
		return nil
	}
	aj, aerr := a.AppendJSON(nil)
	bj, berr := b.AppendJSON(nil)
	if (aerr == nil) != (berr == nil) || !bytes.Equal(aj, bj) {
		return fmt.Errorf("encodings differ (%v, %v)", aerr, berr)
	}
	if a.Bins() != b.Bins() || a.CodeSpace() != b.CodeSpace() || a.NumTrees() != b.NumTrees() {
		return fmt.Errorf("bins/code space/trees differ")
	}
	return nil
}

// FuzzRegistryDecode pins the one-pass registry decoder's contract: on
// any input, scanRegistry either defers (nil) or yields exactly the
// registry file encoding/json decodes. It never rejects on its own:
// whatever it accepts, encoding/json accepts too.
func FuzzRegistryDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := scanRegistry(data)
		if fast == nil {
			return
		}
		var ref registryFile
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&ref); err != nil {
			t.Fatalf("scanner accepted what encoding/json rejects (%v): %q", err, data)
		}
		if err := sameRegistryFile(fast, &ref); err != nil {
			t.Fatalf("scanner and encoding/json disagree (%v) on %q", err, data)
		}
	})
}

// TestRegistryCorpusScans: every committed FuzzRegistryDecode seed is a
// shape the one-pass decoder takes (so the fuzzer starts from the
// accept path, not from deferrals) and decodes as encoding/json does.
func TestRegistryCorpusScans(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRegistryDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a []byte corpus entry", e.Name())
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		fast := scanRegistry([]byte(data))
		if fast == nil {
			t.Fatalf("%s: scanner deferred", e.Name())
		}
		var ref registryFile
		if err := json.Unmarshal([]byte(data), &ref); err != nil {
			t.Fatal(err)
		}
		if err := sameRegistryFile(fast, &ref); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}
	if len(entries) < 4 {
		t.Fatalf("only %d seeds", len(entries))
	}
}
