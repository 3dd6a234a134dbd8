package jsonwire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestAppendStringMatchesEncodingJSON: strings encode exactly as
// json.Marshal encodes them, escapes, HTML trio and invalid UTF-8 included.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{"", "plain", "A->B", `q"b\s`, "<&>", "tab\tnl\ncr\r\x00\x1f\x7f",
		"ü\u2028\u2029😀", "bad\xff\xfeutf8", "\xed\xa0\x80", "\b\f"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: AppendString %s, json.Marshal %s", s, got, want)
		}
	}
	if got, err := AppendFloats(nil, nil); err != nil || string(got) != "null" {
		t.Fatalf("nil floats: %s %v", got, err)
	}
	if got := AppendStrings(nil, []string{}); string(got) != "[]" {
		t.Fatalf("empty strings: %s", got)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		if _, got := AppendFiniteFloat(nil, f); got == nil || got.Error() != want.Error() {
			t.Fatalf("%v: error %v, encoding/json %v", f, got, want)
		}
	}
}

// TestScannerMatchesEncodingJSON: every string, int and float literal
// the scanner accepts decodes to what encoding/json decodes, and the
// shapes it must leave to encoding/json are deferred.
func TestScannerMatchesEncodingJSON(t *testing.T) {
	strs := []struct {
		lit    string
		accept bool
	}{
		{`"plain"`, true},
		{`"A->B"`, true},
		{`"\"\\\/\b\f\n\r\t"`, true},
		{`"\u00fc\u00FC\u2028 \u0000"`, true},
		{`"ü😀"`, true},
		{"\"\xef\xbf\xbd\"", true},
		{`"\ud83d\ude00"`, false}, // surrogate pair
		{`"\ud83d"`, false},
		{"\"bad\xff\"", false}, // invalid UTF-8 becomes U+FFFD there
		{"\"ctl\x01\"", false},
		{`"\x41"`, false},
		{`"\u12"`, false},
		{`"open`, false},
		{`'single'`, false},
	}
	for _, c := range strs {
		s := NewScanner([]byte(c.lit))
		got, ok := s.String()
		ok = ok && s.End()
		if ok != c.accept {
			t.Fatalf("%s: scanner accepted=%v, want %v", c.lit, ok, c.accept)
		}
		if !ok {
			continue
		}
		var want string
		if err := json.Unmarshal([]byte(c.lit), &want); err != nil || got != want {
			t.Fatalf("%s: scanner %q, encoding/json %q (%v)", c.lit, got, want, err)
		}
	}

	ints := []string{"0", "-0", "7", "-42", "123456789012345678", "-123456789012345678",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808", "1.0", "1e2",
		"01", "-", "+1", "1E0", "99999999999999999999"}
	for _, lit := range ints {
		s := NewScanner([]byte(lit))
		got, ok := s.Int()
		ok = ok && s.End()
		var want int
		err := json.Unmarshal([]byte(lit), &want)
		if ok && (err != nil || got != want) {
			t.Fatalf("%s: scanner %d, encoding/json %d (%v)", lit, got, want, err)
		}
		if !ok && err == nil && lit != "1.0" && lit != "1e2" && lit != "1E0" {
			t.Fatalf("%s: scanner deferred a plain integer encoding/json takes", lit)
		}
	}

	floats := []string{"0", "-0", "1.5", "-2.5e-7", "1E21", "5e-324", "1e400", "-1e400", "1.", ".5", "0x1p3", "NaN", "1e", "00"}
	for _, lit := range floats {
		s := NewScanner([]byte(lit))
		got, ok := s.Float()
		ok = ok && s.End()
		var want float64
		err := json.Unmarshal([]byte(lit), &want)
		if ok != (err == nil) {
			t.Fatalf("%s: scanner accepted=%v, encoding/json error %v", lit, ok, err)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: scanner %v, encoding/json %v", lit, got, want)
		}
	}
}

// TestScannerStructure: objects and arrays with any whitespace, the
// empty forms (non-nil, as encoding/json makes them), null, and the
// malformed shapes that abstain.
func TestScannerStructure(t *testing.T) {
	s := NewScanner([]byte(" { \"a\" :\t[ 1 ,2\n] , \"b\":[ ], \"c\" : null , \"d\":{} }\r\n"))
	var a, b []float64
	ok := s.Object(func(key []byte) bool {
		switch string(key) {
		case "a":
			var ok bool
			a, ok = s.Floats()
			return ok
		case "b":
			var ok bool
			b, ok = s.Floats()
			return ok
		case "c":
			return s.Null()
		case "d":
			return s.Object(func([]byte) bool { return false })
		}
		return false
	})
	if !ok || !s.End() || len(a) != 2 || a[1] != 2 || b == nil || len(b) != 0 {
		t.Fatalf("scan: ok=%v a=%v b=%v", ok, a, b)
	}
	for _, bad := range []string{`{"a":1,}`, `{"a" 1}`, `[1 2]`, `[1,]`, `{"a":1`, `nul`} {
		s := NewScanner([]byte(bad))
		ok := s.Object(func([]byte) bool { _, ok := s.Float(); return ok })
		if !ok {
			s = NewScanner([]byte(bad))
			_, ok = s.Floats()
		}
		if !ok {
			ok = NewScanner([]byte(bad)).Null()
		}
		if ok && s.End() {
			t.Fatalf("%s: accepted", bad)
		}
	}
}

// TestDecodeReplaysStream: when the fast path defers or the read fails,
// the slow path sees exactly the bytes r produced and then r's error.
func TestDecodeReplaysStream(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader(`{"a":1}`), errAfter{boom})
	fastCalled := false
	err := Decode(r, func([]byte) bool { fastCalled = true; return true }, func(r io.Reader) error {
		b, err := io.ReadAll(r)
		if string(b) != `{"a":1}` {
			t.Fatalf("slow path read %q", b)
		}
		return err
	})
	if fastCalled || !errors.Is(err, boom) {
		t.Fatalf("fast called %v, err %v", fastCalled, err)
	}
	err = Decode(strings.NewReader("xyz"), func([]byte) bool { return false }, func(r io.Reader) error {
		b, err := io.ReadAll(r)
		if string(b) != "xyz" || err != nil {
			t.Fatalf("slow path read %q, %v", b, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type errAfter struct{ err error }

func (e errAfter) Read([]byte) (int, error) { return 0, e.err }
