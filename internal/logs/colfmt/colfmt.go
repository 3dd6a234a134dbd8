// Package colfmt is the columnar binary container for transfer logs: the
// same schema as logs.WriteCSV, laid out column-by-column so paper-scale
// worlds (millions of records) load at memory-bandwidth speed instead of
// strconv speed, and so feature engineering can consume column views
// without materializing a row-oriented logs.Log. CSV remains the
// interchange/compatibility path; this format is the bulk path.
//
// Layout (all integers little-endian):
//
//	file    := header section*
//	header  := magic "WPCL" | version u16 | reserved u16 (zero)
//	section := kind u8 | payloadLen u32 | payload | crc32 u32 (IEEE, payload)
//
// Sections appear in fixed order: an optional endpoint directory, then
// zero or more record chunks, then a mandatory footer, then end of file.
//
//	endpoints := count u32 | (id str | site str | type u8)*
//	chunk     := rows u32 | dictCount u32 | str* | columns
//	footer    := totalRows u64 | chunkCount u32
//	str       := len u32 | bytes
//
// A chunk's columns are fixed-width arrays of `rows` values each, in
// order: id i64, src u32, dst u32, ts f64, te f64, bytes f64, then files,
// dirs, conc, par, faults, retries as i32. src/dst index the chunk's own
// string dictionary, so cross-chunk reads never share mutable state.
//
// The format fails closed: truncation, a flipped bit (CRC), a bad magic
// or version, out-of-range dictionary codes, section-size mismatches,
// a missing footer, or trailing bytes after the footer all surface as
// errors and no partial log is ever returned silently.
package colfmt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"repro/internal/logs"
)

// Format constants.
const (
	Version = 1 // current container version

	// DefaultChunkRows is the writer's records-per-chunk target: large
	// enough to amortize per-chunk dictionaries, small enough that a
	// streaming reader's working set stays a few MB.
	DefaultChunkRows = 1 << 16

	rowBytes = 8 + 4 + 4 + 8 + 8 + 8 + 6*4 // one record across all columns

	maxSectionLen = 1 << 28 // fail closed on absurd section claims
	maxChunkRows  = 1 << 24

	kindEndpoints byte = 1
	kindChunk     byte = 2
	kindFooter    byte = 3
)

var magic = [4]byte{'W', 'P', 'C', 'L'}

// Magic is the 4-byte file signature, exported so stream tailers can
// sniff whether a growing log is columnar or CSV.
const Magic = "WPCL"

// ErrCorrupt wraps every integrity failure (bad magic/version, CRC
// mismatch, truncation, structural inconsistency) so callers can
// distinguish a damaged file from an I/O error with errors.Is.
var ErrCorrupt = errors.New("colfmt: corrupt or truncated file")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Table is one chunk of records in column layout (struct-of-arrays).
// Src and Dst are indices into Dict, the chunk's endpoint-ID dictionary.
// All columns have the same length.
type Table struct {
	Dict []string

	ID       []int64
	Src, Dst []uint32
	Ts, Te   []float64
	Bytes    []float64
	Files    []int32
	Dirs     []int32
	Conc     []int32
	Par      []int32
	Faults   []int32
	Retries  []int32
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.ID) }

// Record materializes row i. The Src/Dst strings are shared with Dict.
func (t *Table) Record(i int) logs.Record {
	return logs.Record{
		ID:      int(t.ID[i]),
		Src:     t.Dict[t.Src[i]],
		Dst:     t.Dict[t.Dst[i]],
		Ts:      t.Ts[i],
		Te:      t.Te[i],
		Bytes:   t.Bytes[i],
		Files:   int(t.Files[i]),
		Dirs:    int(t.Dirs[i]),
		Conc:    int(t.Conc[i]),
		Par:     int(t.Par[i]),
		Faults:  int(t.Faults[i]),
		Retries: int(t.Retries[i]),
	}
}

// Append appends another table's rows, translating its dictionary codes
// into this table's dictionary.
func (t *Table) Append(o *Table) {
	remap := make([]uint32, len(o.Dict))
	index := make(map[string]uint32, len(t.Dict))
	for i, s := range t.Dict {
		index[s] = uint32(i)
	}
	for i, s := range o.Dict {
		c, ok := index[s]
		if !ok {
			c = uint32(len(t.Dict))
			t.Dict = append(t.Dict, s)
			index[s] = c
		}
		remap[i] = c
	}
	for _, c := range o.Src {
		t.Src = append(t.Src, remap[c])
	}
	for _, c := range o.Dst {
		t.Dst = append(t.Dst, remap[c])
	}
	t.ID = append(t.ID, o.ID...)
	t.Ts = append(t.Ts, o.Ts...)
	t.Te = append(t.Te, o.Te...)
	t.Bytes = append(t.Bytes, o.Bytes...)
	t.Files = append(t.Files, o.Files...)
	t.Dirs = append(t.Dirs, o.Dirs...)
	t.Conc = append(t.Conc, o.Conc...)
	t.Par = append(t.Par, o.Par...)
	t.Faults = append(t.Faults, o.Faults...)
	t.Retries = append(t.Retries, o.Retries...)
}

// SortByStart orders rows by (Ts, ID) exactly as logs.Log.SortByStart
// orders records (NaN starts first, equal pairs kept in place), moving
// every column in place. It returns at once when the rows are already in
// order, as a freshly read engine log is.
func (t *Table) SortByStart() {
	logs.SortRows(t.Len(),
		func(i int) logs.StartKey { return logs.StartKey{Ts: t.Ts[i], ID: int(t.ID[i]), Row: i} },
		t.row, t.setRow)
}

// row is one table row across every column.
type row struct {
	id                                      int64
	src, dst                                uint32
	ts, te, bytes                           float64
	files, dirs, conc, par, faults, retries int32
}

func (t *Table) row(i int) row {
	return row{t.ID[i], t.Src[i], t.Dst[i], t.Ts[i], t.Te[i], t.Bytes[i],
		t.Files[i], t.Dirs[i], t.Conc[i], t.Par[i], t.Faults[i], t.Retries[i]}
}

func (t *Table) setRow(i int, r row) {
	t.ID[i], t.Src[i], t.Dst[i], t.Ts[i], t.Te[i], t.Bytes[i] = r.id, r.src, r.dst, r.ts, r.te, r.bytes
	t.Files[i], t.Dirs[i], t.Conc[i], t.Par[i], t.Faults[i], t.Retries[i] = r.files, r.dirs, r.conc, r.par, r.faults, r.retries
}

// ToLog materializes the table as a row-oriented log (endpoint directory
// left for the caller, as with logs.ReadCSV).
func (t *Table) ToLog() *logs.Log {
	l := logs.NewLog()
	l.Records = make([]logs.Record, t.Len())
	for i := range l.Records {
		l.Records[i] = t.Record(i)
	}
	return l
}

// Writer streams records into the columnar container. Usage: NewWriter,
// optionally Endpoints (before the first Append), Append per record,
// Close. Writes go through an internal buffer; Close flushes it.
type Writer struct {
	w         *bufio.Writer
	chunkRows int
	buf       []logs.Record // current chunk, row order
	scratch   []byte
	rows      uint64
	chunks    uint32
	wroteEps  bool
	started   bool
	closed    bool
	err       error
}

// NewWriter starts a columnar file on w with the given records-per-chunk
// (<= 0 selects DefaultChunkRows). The header is written on the first
// Append/Endpoints/Close call so constructing a writer cannot fail.
func NewWriter(w io.Writer, chunkRows int) *Writer {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), chunkRows: chunkRows}
}

func (w *Writer) start() error {
	if w.err != nil || w.started {
		return w.err
	}
	w.started = true
	var hdr [8]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	_, w.err = w.w.Write(hdr[:])
	return w.err
}

func (w *Writer) section(kind byte, payload []byte) error {
	if err := w.start(); err != nil {
		return err
	}
	var pre [5]byte
	pre[0] = kind
	binary.LittleEndian.PutUint32(pre[1:], uint32(len(payload)))
	if _, w.err = w.w.Write(pre[:]); w.err != nil {
		return w.err
	}
	if _, w.err = w.w.Write(payload); w.err != nil {
		return w.err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, w.err = w.w.Write(crc[:])
	return w.err
}

// Endpoints writes the endpoint directory section. It must be called
// before the first Append and at most once.
func (w *Writer) Endpoints(eps []logs.Endpoint) error {
	if w.err != nil {
		return w.err
	}
	if w.closed || w.wroteEps || w.rows > 0 || len(w.buf) > 0 {
		return errors.New("colfmt: Endpoints must be the first section, written once")
	}
	w.wroteEps = true
	p := w.scratch[:0]
	p = binary.LittleEndian.AppendUint32(p, uint32(len(eps)))
	for _, ep := range eps {
		p = appendStr(p, ep.ID)
		p = appendStr(p, ep.Site)
		p = append(p, byte(ep.Type))
	}
	w.scratch = p
	return w.section(kindEndpoints, p)
}

// Append adds one record, flushing a chunk section whenever chunkRows
// accumulate.
func (w *Writer) Append(r logs.Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("colfmt: append after Close")
	}
	w.buf = append(w.buf, r)
	if len(w.buf) >= w.chunkRows {
		return w.flushChunk()
	}
	return nil
}

func (w *Writer) flushChunk() error {
	if len(w.buf) == 0 {
		return w.err
	}
	rows := len(w.buf)
	var dict []string
	index := map[string]uint32{}
	code := func(s string) uint32 {
		c, ok := index[s]
		if !ok {
			c = uint32(len(dict))
			dict = append(dict, s)
			index[s] = c
		}
		return c
	}
	codes := make([][2]uint32, rows)
	for i := range w.buf {
		codes[i] = [2]uint32{code(w.buf[i].Src), code(w.buf[i].Dst)}
	}

	p := w.scratch[:0]
	p = binary.LittleEndian.AppendUint32(p, uint32(rows))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(dict)))
	for _, s := range dict {
		p = appendStr(p, s)
	}
	for i := range w.buf {
		p = binary.LittleEndian.AppendUint64(p, uint64(int64(w.buf[i].ID)))
	}
	for i := range codes {
		p = binary.LittleEndian.AppendUint32(p, codes[i][0])
	}
	for i := range codes {
		p = binary.LittleEndian.AppendUint32(p, codes[i][1])
	}
	for i := range w.buf {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(w.buf[i].Ts))
	}
	for i := range w.buf {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(w.buf[i].Te))
	}
	for i := range w.buf {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(w.buf[i].Bytes))
	}
	for _, get := range intCols {
		for i := range w.buf {
			p = binary.LittleEndian.AppendUint32(p, uint32(int32(get(&w.buf[i]))))
		}
	}
	w.scratch = p
	w.buf = w.buf[:0]
	if err := w.section(kindChunk, p); err != nil {
		return err
	}
	w.rows += uint64(rows)
	w.chunks++
	return nil
}

// intCols maps the six int32 columns in on-disk order.
var intCols = []func(*logs.Record) int{
	func(r *logs.Record) int { return r.Files },
	func(r *logs.Record) int { return r.Dirs },
	func(r *logs.Record) int { return r.Conc },
	func(r *logs.Record) int { return r.Par },
	func(r *logs.Record) int { return r.Faults },
	func(r *logs.Record) int { return r.Retries },
}

// Close flushes the final chunk, writes the footer, and flushes the
// underlying buffer. The file is not valid until Close returns nil.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	if err := w.flushChunk(); err != nil {
		return err
	}
	var p [12]byte
	binary.LittleEndian.PutUint64(p[:8], w.rows)
	binary.LittleEndian.PutUint32(p[8:], w.chunks)
	if err := w.section(kindFooter, p[:]); err != nil {
		return err
	}
	w.closed = true
	w.err = w.w.Flush()
	return w.err
}

func appendStr(p []byte, s string) []byte {
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s)))
	return append(p, s...)
}

// WriteLog writes a whole log (endpoint directory sorted by ID, then
// records in log order) as one columnar file.
func WriteLog(w io.Writer, l *logs.Log) error {
	cw := NewWriter(w, 0)
	ids := make([]string, 0, len(l.Endpoints))
	for id := range l.Endpoints {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	eps := make([]logs.Endpoint, len(ids))
	for i, id := range ids {
		eps[i] = l.Endpoints[id]
	}
	if err := cw.Endpoints(eps); err != nil {
		return err
	}
	for i := range l.Records {
		if err := cw.Append(l.Records[i]); err != nil {
			return err
		}
	}
	return cw.Close()
}

// Reader streams chunks out of a columnar file. Next returns tables
// until the footer validates, then io.EOF; any integrity failure
// surfaces as an ErrCorrupt-wrapped error and poisons the reader.
type Reader struct {
	r        *bufio.Reader
	eps      []logs.Endpoint
	rows     uint64
	chunks   uint32
	done     bool
	err      error
	firstSec bool // next section is the first after the header
}

// NewReader validates the header. The endpoint directory (if present) is
// decoded on the first Next call; use Endpoints afterwards.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, corrupt("short header: %v", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, corrupt("bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return nil, corrupt("unsupported version %d", v)
	}
	if binary.LittleEndian.Uint16(hdr[6:8]) != 0 {
		return nil, corrupt("nonzero reserved header field")
	}
	return &Reader{r: br, firstSec: true}, nil
}

// Endpoints returns the endpoint directory, available after the first
// Next call (nil when the file has no directory section).
func (r *Reader) Endpoints() []logs.Endpoint { return r.eps }

func (r *Reader) fail(err error) (*Table, error) {
	r.err = err
	return nil, err
}

// readSection returns the next section's kind and verified payload.
func (r *Reader) readSection() (byte, []byte, error) {
	var pre [5]byte
	if _, err := io.ReadFull(r.r, pre[:]); err != nil {
		return 0, nil, corrupt("short section header: %v", err)
	}
	n := binary.LittleEndian.Uint32(pre[1:])
	if n > maxSectionLen {
		return 0, nil, corrupt("section claims %d bytes", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return 0, nil, corrupt("short section payload: %v", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r.r, crc[:]); err != nil {
		return 0, nil, corrupt("short section checksum: %v", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return 0, nil, corrupt("section checksum mismatch")
	}
	return pre[0], payload, nil
}

// Next returns the next chunk, or io.EOF after a valid footer.
func (r *Reader) Next() (*Table, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.done {
		return nil, io.EOF
	}
	for {
		kind, payload, err := r.readSection()
		if err != nil {
			return r.fail(err)
		}
		first := r.firstSec
		r.firstSec = false
		switch kind {
		case kindEndpoints:
			if !first {
				return r.fail(corrupt("endpoint directory not first section"))
			}
			eps, err := decodeEndpoints(payload)
			if err != nil {
				return r.fail(err)
			}
			r.eps = eps
		case kindChunk:
			t, err := decodeChunk(payload)
			if err != nil {
				return r.fail(err)
			}
			r.rows += uint64(t.Len())
			r.chunks++
			return t, nil
		case kindFooter:
			if len(payload) != 12 {
				return r.fail(corrupt("footer is %d bytes, want 12", len(payload)))
			}
			if got := binary.LittleEndian.Uint64(payload[:8]); got != r.rows {
				return r.fail(corrupt("footer claims %d rows, read %d", got, r.rows))
			}
			if got := binary.LittleEndian.Uint32(payload[8:]); got != r.chunks {
				return r.fail(corrupt("footer claims %d chunks, read %d", got, r.chunks))
			}
			if _, err := r.r.ReadByte(); err != io.EOF {
				return r.fail(corrupt("trailing bytes after footer"))
			}
			r.done = true
			return nil, io.EOF
		default:
			return r.fail(corrupt("unknown section kind %d", kind))
		}
	}
}

// cursor is a bounds-checked little-endian decoder over one payload.
type cursor struct {
	p   []byte
	off int
}

func (c *cursor) need(n int) ([]byte, error) {
	if n < 0 || len(c.p)-c.off < n {
		return nil, corrupt("section payload too short")
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) str() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	b, err := c.need(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func decodeEndpoints(payload []byte) ([]logs.Endpoint, error) {
	c := cursor{p: payload}
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	// Each endpoint needs at least 9 bytes (two empty strings + type).
	if int64(n)*9 > int64(len(payload)) {
		return nil, corrupt("endpoint directory claims %d entries", n)
	}
	eps := make([]logs.Endpoint, n)
	for i := range eps {
		if eps[i].ID, err = c.str(); err != nil {
			return nil, err
		}
		if eps[i].Site, err = c.str(); err != nil {
			return nil, err
		}
		b, err := c.need(1)
		if err != nil {
			return nil, err
		}
		if b[0] > byte(logs.GCP) {
			return nil, corrupt("unknown endpoint type %d", b[0])
		}
		eps[i].Type = logs.EndpointType(b[0])
	}
	if c.off != len(payload) {
		return nil, corrupt("%d trailing bytes in endpoint directory", len(payload)-c.off)
	}
	return eps, nil
}

func decodeChunk(payload []byte) (*Table, error) {
	c := cursor{p: payload}
	rows32, err := c.u32()
	if err != nil {
		return nil, err
	}
	if rows32 > maxChunkRows {
		return nil, corrupt("chunk claims %d rows", rows32)
	}
	rows := int(rows32)
	dictN, err := c.u32()
	if err != nil {
		return nil, err
	}
	// Each dictionary entry needs at least its 4-byte length prefix.
	if int64(dictN)*4 > int64(len(payload)) {
		return nil, corrupt("chunk claims %d dictionary entries", dictN)
	}
	dict := make([]string, dictN)
	for i := range dict {
		if dict[i], err = c.str(); err != nil {
			return nil, err
		}
	}
	if want := rows * rowBytes; len(payload)-c.off != want {
		return nil, corrupt("chunk columns are %d bytes, want %d", len(payload)-c.off, want)
	}

	t := &Table{Dict: dict}
	u64 := func() []uint64 {
		b, _ := c.need(rows * 8)
		out := make([]uint64, rows)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
		return out
	}
	u32col := func() []uint32 {
		b, _ := c.need(rows * 4)
		out := make([]uint32, rows)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(b[i*4:])
		}
		return out
	}
	f64 := func() []float64 {
		raw := u64()
		out := make([]float64, rows)
		for i, v := range raw {
			out[i] = math.Float64frombits(v)
		}
		return out
	}
	i32 := func() []int32 {
		raw := u32col()
		out := make([]int32, rows)
		for i, v := range raw {
			out[i] = int32(v)
		}
		return out
	}

	raw := u64()
	t.ID = make([]int64, rows)
	for i, v := range raw {
		t.ID[i] = int64(v)
	}
	t.Src = u32col()
	t.Dst = u32col()
	for _, col := range [][]uint32{t.Src, t.Dst} {
		for _, code := range col {
			if code >= dictN {
				return nil, corrupt("dictionary code %d out of range (%d entries)", code, dictN)
			}
		}
	}
	t.Ts = f64()
	t.Te = f64()
	t.Bytes = f64()
	t.Files = i32()
	t.Dirs = i32()
	t.Conc = i32()
	t.Par = i32()
	t.Faults = i32()
	t.Retries = i32()
	return t, nil
}

// ReadTable reads a whole columnar file into one merged table plus the
// endpoint directory, without materializing row-oriented records.
func ReadTable(r io.Reader) (*Table, []logs.Endpoint, error) {
	cr, err := NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	out := &Table{}
	for {
		t, err := cr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if out.Len() == 0 && out.Dict == nil {
			out = t
			continue
		}
		out.Append(t)
	}
	return out, cr.Endpoints(), nil
}

// ReadLog reads a whole columnar file as a row-oriented log with its
// endpoint directory attached.
func ReadLog(r io.Reader) (*logs.Log, error) {
	t, eps, err := ReadTable(r)
	if err != nil {
		return nil, err
	}
	l := t.ToLog()
	for _, ep := range eps {
		l.AddEndpoint(ep)
	}
	return l, nil
}
