package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/jsonwire"
)

// codecOracle runs the encoding/json reference path (ParseRequest +
// Vectorize) on body, returning the vector, src/dst/deadline, and
// whether the reference accepted at all.
func codecOracle(reg *Registry, body []byte) (x []float64, src, dst string, dl float64, ok bool) {
	req, err := ParseRequest(body)
	if err != nil {
		return nil, "", "", 0, false
	}
	x = make([]float64, len(reg.Features))
	if err := reg.Vectorize(req.Features, x); err != nil {
		return nil, "", "", 0, false
	}
	return x, req.Src, req.Dst, req.DeadlineMS, true
}

// checkCodecAgreement asserts the accept-or-abstain contract: whenever
// decodeFast accepts, the reference path must accept too and produce the
// identical vector, src, dst, and deadline. Abstaining is always legal.
func checkCodecAgreement(t testing.TB, reg *Registry, body []byte) {
	t.Helper()
	x := make([]float64, len(reg.Features))
	var fr fastReq
	if !decodeFast(body, reg, x, &fr) {
		return
	}
	ox, osrc, odst, odl, ok := codecOracle(reg, body)
	if !ok {
		t.Fatalf("decodeFast accepted a body the json path rejects: %q", body)
	}
	if string(fr.src) != osrc || string(fr.dst) != odst {
		t.Fatalf("src/dst mismatch on %q: fast (%q,%q) json (%q,%q)", body, fr.src, fr.dst, osrc, odst)
	}
	if fr.deadline != odl {
		t.Fatalf("deadline mismatch on %q: fast %v json %v", body, fr.deadline, odl)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(ox[i]) {
			t.Fatalf("vector[%d] mismatch on %q: fast %v (%x) json %v (%x)",
				i, body, x[i], math.Float64bits(x[i]), ox[i], math.Float64bits(ox[i]))
		}
	}
}

// TestCodecDecodeDifferential pins decodeFast against the encoding/json
// reference on the shapes the scanner was built to accept plus the
// tricky ones it must abstain on.
func TestCodecDecodeDifferential(t *testing.T) {
	reg := testRegistry(t, 1)
	mustAccept := []string{
		`{"src":"S1","dst":"D1","features":{"a":0.5,"b":0.2,"c":0.9}}`,
		`{"src":"S1","dst":"D1","features":{"a":1}}`,
		`{"features":{"a":1},"src":"S1","dst":"D1","deadline_ms":250}`,
		`{"features":{"b":-3.25e2}}`,
		` { "features" : { "a" : 0 , "a" : 7 } } ` + "\r\n",
		`{"features":{"c":1e-300}}`,
		`{"features":{"a":0.1,"b":2E+4,"c":-0}}`,
		`{"deadline_ms":0,"features":{"a":5}}`,
	}
	mustAbstainOrAgree := []string{
		// json path rejects these; the scanner must not accept them.
		`{"features":{}}`,                       // no features
		`{"features":{"a":1}`,                   // truncated
		`{"features":{"a":01}}`,                 // leading zero
		`{"features":{"a":+1}}`,                 // plus sign
		`{"features":{"a":1.}}`,                 // bare point
		`{"features":{"a":.5}}`,                 // leading point
		`{"features":{"a":0x10}}`,               // hex
		`{"features":{"a":Inf}}`,                // non-JSON number
		`{"features":{"a":NaN}}`,                // non-JSON number
		`{"features":{"a":1e}}`,                 // bare exponent
		`{"features":{"a":1}} trailing`,         // trailing data
		`{"features":{"a":1},"deadline_ms":-1}`, // negative deadline
		`{"unknown":1,"features":{"a":1}}`,      // unknown key
		`{"features":{"zzz":1}}`,                // unknown feature
		`{"src":5,"features":{"a":1}}`,          // wrong type
		`{"features":[1,2]}`,                    // wrong features type
		`{"features":{"a":"1"}}`,                // string value
		`[{"features":{"a":1}}]`,                // array root
		``,                                      // empty body
		// json path accepts these but the scanner may legally abstain;
		// if it does accept it must agree exactly.
		`{"src":"S\u0031","features":{"a":1}}`,       // escaped string
		`{"features":{"a":1},"features":{"b":2}}`,    // duplicate key (json merges)
		`{"src":"S1","src":"S2","features":{"a":1}}`, // duplicate src (json last-wins)
		`{"features":{"\u0061":4}}`,                  // escaped feature name
		`{"src":"Ω","dst":"D1","features":{"a":1}}`,  // non-ASCII string
		`{"features":{"a":1e400}}`,                   // overflow
		`{"features":{"a":5e-324}}`,                  // subnormal edge
		`{"features":{"a":1.7976931348623157e308}}`,  // MaxFloat64
	}
	for _, body := range mustAccept {
		x := make([]float64, len(reg.Features))
		var fr fastReq
		if !decodeFast([]byte(body), reg, x, &fr) {
			t.Errorf("decodeFast abstained on a canonical body: %q", body)
		}
		checkCodecAgreement(t, reg, []byte(body))
	}
	for _, body := range mustAbstainOrAgree {
		checkCodecAgreement(t, reg, []byte(body))
	}
}

// TestCodecDecodeReusesVector: a pooled x must not leak values from the
// previous request into a request that omits those features.
func TestCodecDecodeReusesVector(t *testing.T) {
	reg := testRegistry(t, 1)
	x := make([]float64, len(reg.Features))
	var fr fastReq
	if !decodeFast([]byte(`{"features":{"a":1,"b":2,"c":3}}`), reg, x, &fr) {
		t.Fatal("first decode abstained")
	}
	if !decodeFast([]byte(`{"features":{"b":9}}`), reg, x, &fr) {
		t.Fatal("second decode abstained")
	}
	want := []float64{0, 9, 0}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("stale vector after reuse: got %v want %v", x, want)
		}
	}
}

// TestResponseEncoderDifferential pins appendPredictResponse (and its
// float/string encoders) byte for byte against json.Encoder across the
// formatting regimes encoding/json distinguishes.
func TestResponseEncoderDifferential(t *testing.T) {
	rates := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 97.125, -1234.5678,
		1e-6, 9.999e-7, 5e-7, 1e-7, // around the 'e' switch at 1e-6
		1e20, 9.9e20, 1e21, 2.5e21, // around the 'e' switch at 1e21
		5e-324, math.MaxFloat64, -math.MaxFloat64,
		1e-300, 3.141592653589793, 1.0 / 3.0, 123456789.123456789,
	}
	labels := []string{
		"global", "edge:S1->D1", "edge:a->b->c", `q"uote`, `back\slash`,
		"html<&>", "tab\tnl\n", "µ-edge", "\u2028sep\u2029", string([]byte{0xff, 'x'}),
	}
	gens := []int64{0, 1, 42, 1 << 40}
	queues := []float64{0, 0.021, 1.5, 3e-7, 2e21}
	for _, rate := range rates {
		for _, label := range labels {
			gen := gens[int(math.Abs(rate))%len(gens)]
			q := queues[len(label)%len(queues)]
			var ref bytes.Buffer
			if err := json.NewEncoder(&ref).Encode(PredictResponse{
				Rate: rate, Model: label, Generation: gen, QueueMS: q,
			}); err != nil {
				t.Fatal(err)
			}
			jlabel := jsonwire.AppendString(nil, label)
			got := appendPredictResponse(nil, rate, jlabel, gen, q)
			if !bytes.Equal(got, ref.Bytes()) {
				t.Errorf("encoding mismatch for rate=%v label=%q gen=%d q=%v:\n fast %q\n json %q",
					rate, label, gen, q, got, ref.Bytes())
			}
		}
	}
}

// TestAppendJSONFloatSweep hammers the float encoder against the
// json.Marshal reference over a deterministic pseudo-random sweep of the
// float64 space, including every exponent-trim shape.
func TestAppendJSONFloatSweep(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	checked := 0
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(next())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue // json.Marshal errors on these; the daemon never emits them
		}
		ref, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonwire.AppendFloat(nil, f); !bytes.Equal(got, ref) {
			t.Fatalf("float encoding mismatch for %x: fast %q json %q", math.Float64bits(f), got, ref)
		}
		checked++
	}
	if checked < 15000 {
		t.Fatalf("sweep degenerated: only %d finite samples", checked)
	}
}

// TestReadBodyLimit: readBody reuses the caller's buffer and fails
// closed past the limit with the exact error the handlers surface.
func TestReadBodyLimit(t *testing.T) {
	buf := make([]byte, 0, 8)
	got, err := readBody(strings.NewReader("hello"), buf, 1024)
	if err != nil || string(got) != "hello" {
		t.Fatalf("readBody small: %q, %v", got, err)
	}
	big := strings.Repeat("x", 2048)
	if _, err := readBody(strings.NewReader(big), got[:0], 1024); err == nil {
		t.Fatal("readBody accepted a body past the limit")
	} else if want := fmt.Sprintf("body exceeds %d bytes", 1024); err.Error() != want {
		t.Fatalf("limit error %q, want %q", err, want)
	}
}
