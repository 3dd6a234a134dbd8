// Package jsonwire holds the byte-level JSON pieces the repo's
// hand-rolled codecs share.
//
// Encode side: appenders that reproduce encoding/json's output byte for
// byte — its float format (exponent trim included), its HTML-escaping
// string encoder, and the error it returns for a non-finite float — so
// a codec can append a document directly instead of building wire
// structs for reflection to walk.
//
// Decode side: a strict scanner for fixed document shapes. Every value
// it accepts decodes exactly as encoding/json would decode it; on any
// shape it is not certain of (null where the caller does not check for
// it with Null, surrogate escapes, invalid UTF-8, numbers off the strict
// grammar or out of range, trailing bytes) it abstains by returning
// false, and the caller falls back to encoding/json, which stays the
// reference and the producer of every error message. The scanner never
// rejects an input on its own.
package jsonwire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// ---- encoding ----

const hexDigits = "0123456789abcdef"

// AppendFloat appends f exactly as encoding/json encodes a float64:
// 'f' form in the human range, 'e' form with the exponent's leading
// zero trimmed outside it. f must be finite (see AppendFiniteFloat).
func AppendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// unsupportedFloat is the error encoding/json returns when asked to
// encode the non-finite float f.
func unsupportedFloat(f float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// AppendFiniteFloat is AppendFloat that fails, as encoding/json does, on
// NaN and ±Inf.
func AppendFiniteFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, unsupportedFloat(f)
	}
	return AppendFloat(b, f), nil
}

// AppendFloats appends fs as a JSON array, or null for a nil slice.
func AppendFloats(b []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = AppendFiniteFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// AppendString appends s as a JSON string literal with encoding/json's
// default escaping: quotes, backslashes, control characters (\b and \f
// short-form since Go 1.22), the HTML trio (<, >, &), invalid UTF-8 as
// U+FFFD, and U+2028/U+2029.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendStrings appends ss as a JSON array of strings, or null for a
// nil slice.
func AppendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, s)
	}
	return append(b, ']')
}

// ---- byte-level scanning ----

// SkipWS advances past JSON whitespace (the exact set encoding/json
// skips: space, tab, newline, carriage return).
func SkipWS(d []byte, p int) int {
	for p < len(d) && (d[p] == ' ' || d[p] == '\t' || d[p] == '\n' || d[p] == '\r') {
		p++
	}
	return p
}

// ScanPlainString scans a string literal containing only printable
// ASCII and no escapes, returning the raw bytes between the quotes.
// Anything else abstains.
func ScanPlainString(d []byte, p int) ([]byte, int, bool) {
	if p >= len(d) || d[p] != '"' {
		return nil, p, false
	}
	p++
	start := p
	for p < len(d) {
		switch c := d[p]; {
		case c == '"':
			return d[start:p], p + 1, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, p, false
		default:
			p++
		}
	}
	return nil, p, false
}

// scanDigits advances past a strict JSON integer part: -?(0|[1-9][0-9]*).
func scanDigits(d []byte, p int) (int, bool) {
	if p < len(d) && d[p] == '-' {
		p++
	}
	switch {
	case p < len(d) && d[p] == '0':
		return p + 1, true
	case p < len(d) && d[p] >= '1' && d[p] <= '9':
		for p < len(d) && d[p] >= '0' && d[p] <= '9' {
			p++
		}
		return p, true
	}
	return p, false
}

// ScanNumber scans a number under the strict JSON grammar (no leading
// zeros, no "+", no hex, no Inf — shapes strconv takes but encoding/json
// rejects), then parses it with strconv.ParseFloat, the routine
// encoding/json uses for float64 targets, so accepted values are
// bit-identical to its. Range overflow abstains (encoding/json errors).
func ScanNumber(d []byte, p int) (float64, int, bool) {
	start := p
	p, ok := scanDigits(d, p)
	if !ok {
		return 0, p, false
	}
	if p < len(d) && d[p] == '.' {
		p++
		if p >= len(d) || d[p] < '0' || d[p] > '9' {
			return 0, p, false
		}
		for p < len(d) && d[p] >= '0' && d[p] <= '9' {
			p++
		}
	}
	if p < len(d) && (d[p] == 'e' || d[p] == 'E') {
		p++
		if p < len(d) && (d[p] == '+' || d[p] == '-') {
			p++
		}
		if p >= len(d) || d[p] < '0' || d[p] > '9' {
			return 0, p, false
		}
		for p < len(d) && d[p] >= '0' && d[p] <= '9' {
			p++
		}
	}
	v, err := strconv.ParseFloat(unsafeString(d[start:p]), 64)
	if err != nil {
		return 0, p, false
	}
	return v, p, true
}

// unsafeString views a byte slice as a string without copying, for
// strconv parsers (which have no []byte form). The bytes must not be
// mutated while the view is alive.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// ---- document scanner ----

// Scanner is a cursor over one JSON document for decoders of a fixed
// shape. Each method skips leading whitespace, consumes one value and
// reports false to abstain.
type Scanner struct {
	d   []byte
	p   int
	buf []byte // unescape scratch for strings with escapes
}

// NewScanner returns a scanner at the start of d.
func NewScanner(d []byte) *Scanner { return &Scanner{d: d} }

func (s *Scanner) ws() { s.p = SkipWS(s.d, s.p) }

// consume skips whitespace and consumes c if it is next.
func (s *Scanner) consume(c byte) bool {
	s.ws()
	if s.p < len(s.d) && s.d[s.p] == c {
		s.p++
		return true
	}
	return false
}

// End reports whether only whitespace remains.
func (s *Scanner) End() bool {
	s.ws()
	return s.p == len(s.d)
}

// Null consumes a null literal if one is next, reporting whether it
// did — encoding/json's null leaves a slice, map or pointer nil.
func (s *Scanner) Null() bool {
	s.ws()
	if bytes.HasPrefix(s.d[s.p:], []byte("null")) {
		s.p += 4
		return true
	}
	return false
}

// Float scans a number into a float64.
func (s *Scanner) Float() (float64, bool) {
	s.ws()
	v, p, ok := ScanNumber(s.d, s.p)
	s.p = p
	return v, ok
}

// Int scans a number into an int the way encoding/json fills an int
// field: integer literals only (a fraction or exponent is a type error
// there, so it abstains here), parsed by strconv.ParseInt.
func (s *Scanner) Int() (int, bool) {
	s.ws()
	start := s.p
	p, ok := scanDigits(s.d, s.p)
	s.p = p
	if !ok || (p < len(s.d) && (s.d[p] == '.' || s.d[p] == 'e' || s.d[p] == 'E')) {
		return 0, false
	}
	lit := s.d[start:p]
	if len(lit) <= 18 { // cannot overflow int64: accumulate directly
		neg := lit[0] == '-'
		if neg {
			lit = lit[1:]
		}
		var v int64
		for _, c := range lit {
			v = v*10 + int64(c-'0')
		}
		if neg {
			v = -v
		}
		return int(v), int64(int(v)) == v
	}
	v, err := strconv.ParseInt(unsafeString(lit), 10, 64)
	if err != nil || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// stringBytes scans a string literal and returns its decoded bytes: a
// view of the document when it holds no escapes, else the unescaped
// bytes in the scanner's scratch buffer (valid until the next call).
// It decodes the escapes encoding/json's unquote does, except that a
// UTF-16 surrogate escape abstains, as do raw control bytes (a syntax
// error there) and invalid UTF-8 (which encoding/json silently
// replaces).
func (s *Scanner) stringBytes() ([]byte, bool) {
	s.ws()
	d, p := s.d, s.p
	if p >= len(d) || d[p] != '"' {
		return nil, false
	}
	p++
	start := p
	for p < len(d) {
		c := d[p]
		switch {
		case c == '"':
			s.p = p + 1
			return d[start:p], true
		case c == '\\':
			return s.unescape(start, p)
		case c < 0x20:
			return nil, false
		case c < utf8.RuneSelf:
			p++
		default:
			r, size := utf8.DecodeRune(d[p:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			p += size
		}
	}
	return nil, false
}

// unescape continues stringBytes from the first backslash at p.
func (s *Scanner) unescape(start, p int) ([]byte, bool) {
	d := s.d
	buf := append(s.buf[:0], d[start:p]...)
	for p < len(d) {
		c := d[p]
		switch {
		case c == '"':
			s.p = p + 1
			s.buf = buf
			return buf, true
		case c == '\\':
			if p+1 >= len(d) {
				return nil, false
			}
			switch e := d[p+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				if p+6 > len(d) {
					return nil, false
				}
				var r rune
				for _, h := range d[p+2 : p+6] {
					switch {
					case h >= '0' && h <= '9':
						h -= '0'
					case h >= 'a' && h <= 'f':
						h -= 'a' - 10
					case h >= 'A' && h <= 'F':
						h -= 'A' - 10
					default:
						return nil, false
					}
					r = r<<4 | rune(h)
				}
				if r >= 0xD800 && r < 0xE000 {
					return nil, false // surrogate halves: leave pairing to encoding/json
				}
				buf = utf8.AppendRune(buf, r)
				p += 4
			default:
				return nil, false
			}
			p += 2
		case c < 0x20:
			return nil, false
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			p++
		default:
			r, size := utf8.DecodeRune(d[p:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			buf = append(buf, d[p:p+size]...)
			p += size
		}
	}
	return nil, false
}

// String scans a string literal.
func (s *Scanner) String() (string, bool) {
	b, ok := s.stringBytes()
	return string(b), ok
}

// Object scans an object, calling member for each key; member must
// consume exactly the member's value. key is only valid until member
// scans its first string. Duplicate keys are the caller's to detect:
// encoding/json's last-wins (or, for maps and objects, merge)
// semantics are not modelled here.
func (s *Scanner) Object(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.stringBytes()
		if !ok || !s.consume(':') || !member(key) {
			return false
		}
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// Array scans an array, calling elem once per element; elem must
// consume exactly one value. An empty array calls elem zero times.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.consume(']') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// Floats scans an array of numbers. An empty array yields an empty,
// non-nil slice, as encoding/json makes one.
func (s *Scanner) Floats() ([]float64, bool) {
	out := []float64{}
	ok := s.Array(func() bool {
		v, ok := s.Float()
		out = append(out, v)
		return ok
	})
	return out, ok
}

// Strings scans an array of strings; empty yields an empty, non-nil
// slice.
func (s *Scanner) Strings() ([]string, bool) {
	out := []string{}
	ok := s.Array(func() bool {
		v, ok := s.String()
		out = append(out, v)
		return ok
	})
	return out, ok
}

// ---- reading ----

// Decode reads r to EOF and offers the bytes to fast. When fast abstains
// (or the read failed), slow decodes from a reader that replays exactly
// what r produced — the bytes, then the read error or io.EOF — so the
// encoding/json reference sees the stream it would have read from r and
// keeps its accept set and its error messages.
func Decode(r io.Reader, fast func([]byte) bool, slow func(io.Reader) error) error {
	data, err := readAll(r)
	if err == nil && fast(data) {
		return nil
	}
	return slow(io.MultiReader(bytes.NewReader(data), errReader{err}))
}

// readAll is io.ReadAll sized up front when r knows its length (a
// regular file, an in-memory reader), so a multi-megabyte registry is
// read without regrowing the buffer.
func readAll(r io.Reader) ([]byte, error) {
	size := -1
	switch r := r.(type) {
	case *os.File:
		if st, err := r.Stat(); err == nil && st.Mode().IsRegular() {
			size = int(st.Size())
		}
	case interface{ Len() int }:
		size = r.Len()
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	var buf bytes.Buffer
	buf.Grow(size + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// errReader replays a read error (io.EOF for a clean end).
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) {
	if e.err == nil {
		return 0, io.EOF
	}
	return 0, e.err
}
