// Package logs defines the transfer-log schema the whole reproduction is
// built around. The paper's raw material is the Globus transfer log: for
// each transfer it records start time, completion time, total bytes, number
// of files, number of directories, the tunable parameters (concurrency C and
// parallelism P), the source and destination endpoints, and the number of
// faults. Everything downstream — feature engineering (§4), regression
// (§5) — consumes only this schema, which is what makes the simulated
// substitute for the proprietary logs faithful: it emits the same records.
package logs

import (
	"bytes"
	"cmp"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// EndpointType distinguishes Globus Connect Server from Globus Connect
// Personal endpoints (Table 4 groups edges by this).
type EndpointType int

// Endpoint types.
const (
	GCS EndpointType = iota // Globus Connect Server
	GCP                     // Globus Connect Personal
)

// String returns "GCS" or "GCP".
func (t EndpointType) String() string {
	if t == GCP {
		return "GCP"
	}
	return "GCS"
}

// Endpoint describes one endpoint appearing in the log.
type Endpoint struct {
	ID   string       // unique endpoint identifier
	Site string       // site name (resolvable in the geo catalogue)
	Type EndpointType // GCS or GCP
}

// Record is one completed transfer, mirroring the Globus log fields used by
// the paper. Times are in seconds since an arbitrary epoch.
type Record struct {
	ID     int     // sequential transfer id
	Src    string  // source endpoint ID
	Dst    string  // destination endpoint ID
	Ts     float64 // start time (s)
	Te     float64 // end time (s), > Ts
	Bytes  float64 // total bytes transferred (Nb)
	Files  int     // number of files (Nf)
	Dirs   int     // number of directories (Nd)
	Conc   int     // concurrency C
	Par    int     // parallelism P
	Faults int     // number of faults (Nflt); known only after the fact
	// Retries counts whole-transfer restart attempts (endpoint outages that
	// aborted the transfer mid-flight); like Nflt it is known only after the
	// fact. Ts..Te spans every attempt including backoff waits.
	Retries int
}

// Duration returns Te − Ts in seconds.
func (r *Record) Duration() float64 { return r.Te - r.Ts }

// Rate returns the average transfer rate in MB/s (10^6 bytes per second),
// the paper's unit for transfer rate. It returns 0 for non-positive
// durations.
func (r *Record) Rate() float64 {
	d := r.Duration()
	if d <= 0 {
		return 0
	}
	return r.Bytes / d / 1e6
}

// Streams returns the number of TCP streams the transfer drives:
// min(C, Nf)·P, following §4.3.1 (a transfer with fewer files than its
// concurrency can use only Nf GridFTP process pairs).
func (r *Record) Streams() int { return r.Processes() * r.Par }

// Processes returns the number of GridFTP process pairs: min(C, Nf).
func (r *Record) Processes() int {
	if r.Files < r.Conc {
		return r.Files
	}
	return r.Conc
}

// EdgeKey identifies a directed source→destination endpoint pair.
type EdgeKey struct {
	Src, Dst string
}

// String renders the edge as "src->dst".
func (e EdgeKey) String() string { return e.Src + "->" + e.Dst }

// Edge returns the record's edge key.
func (r *Record) Edge() EdgeKey { return EdgeKey{Src: r.Src, Dst: r.Dst} }

// Log is an in-memory transfer log: the endpoint directory plus all records.
type Log struct {
	Endpoints map[string]Endpoint
	Records   []Record
}

// NewLog returns an empty log.
func NewLog() *Log {
	return &Log{Endpoints: make(map[string]Endpoint)}
}

// AddEndpoint registers an endpoint; re-registration overwrites.
func (l *Log) AddEndpoint(e Endpoint) { l.Endpoints[e.ID] = e }

// Append adds a record to the log.
func (l *Log) Append(r Record) { l.Records = append(l.Records, r) }

// SortByStart orders records by (Ts, ID), keeping equal pairs in their
// current order: the order the feature-engineering time-series analysis
// assumes. Ts compares as cmp.Compare does: -0 equals +0, and a NaN start
// (which strict ReadCSV and the columnar reader can carry; the lenient
// reader skips such rows) sorts before every number. It sorts in place
// and returns at once when the records are already in order.
func (l *Log) SortByStart() {
	recs := l.Records
	SortRows(len(recs),
		func(i int) StartKey { return StartKey{Ts: recs[i].Ts, ID: recs[i].ID, Row: i} },
		func(i int) Record { return recs[i] },
		func(i int, r Record) { recs[i] = r })
}

// StartKey is one row's key under SortByStart's order. Row, the row's
// position before sorting, breaks (Ts, ID) ties, so sorting keys by
// CompareStart with any algorithm gives the stable order.
type StartKey struct {
	Ts  float64
	ID  int
	Row int
}

// CompareStart orders keys by (Ts, ID, Row), Ts as cmp.Compare orders
// floats.
func CompareStart(a, b StartKey) int {
	if c := cmp.Compare(a.Ts, b.Ts); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.Row, b.Row)
}

// SortRows sorts n rows in place into the CompareStart order of their
// keys; key(i) is row i's key, with Row i. Ordered rows return at once,
// allocation-free. Otherwise the keys are sorted and rows move by the
// cycles of the permutation, one row held aside per cycle: get and set
// read and write a row.
func SortRows[R any](n int, key func(i int) StartKey, get func(i int) R, set func(i int, r R)) {
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = CompareStart(key(i-1), key(i)) <= 0
	}
	if sorted {
		return
	}
	keys := make([]StartKey, n)
	for i := range keys {
		keys[i] = key(i)
	}
	slices.SortFunc(keys, CompareStart)
	// Row i receives the row that sat at keys[i].Row; a placed row is
	// marked by keys[j].Row = j.
	for i := range keys {
		if keys[i].Row == i {
			continue
		}
		held := get(i)
		j := i
		for {
			k := keys[j].Row
			keys[j].Row = j
			if k == i {
				set(j, held)
				break
			}
			set(j, get(k))
			j = k
		}
	}
}

// MergeByStart appends the records of runs, each already in SortByStart
// order, to dst in that order: a k-way merge in O(n log k), a min-heap
// holding each unfinished run's next record. Equal (Ts, ID) pairs keep
// run order, so merging the consecutive pieces of a log, each sorted,
// gives what sorting the whole log gives.
func MergeByStart(dst []Record, runs [][]Record) []Record {
	runs = slices.Clone(runs)
	head := func(r int) StartKey { return StartKey{Ts: runs[r][0].Ts, ID: runs[r][0].ID, Row: r} }
	var h []StartKey // Row is the run index
	for r := range runs {
		if len(runs[r]) > 0 {
			h = append(h, head(r))
		}
	}
	down := func(i int) {
		for {
			m := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(h) && CompareStart(h[c], h[m]) < 0 {
					m = c
				}
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		r := h[0].Row
		dst = append(dst, runs[r][0])
		if runs[r] = runs[r][1:]; len(runs[r]) > 0 {
			h[0] = head(r)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return dst
}

// Edges returns the distinct edge keys with their transfer counts.
func (l *Log) Edges() map[EdgeKey]int {
	out := make(map[EdgeKey]int)
	for i := range l.Records {
		out[l.Records[i].Edge()]++
	}
	return out
}

// EdgeRecords returns the indices (into l.Records) of transfers over the
// given edge, in log order.
func (l *Log) EdgeRecords(e EdgeKey) []int {
	var out []int
	for i := range l.Records {
		if l.Records[i].Src == e.Src && l.Records[i].Dst == e.Dst {
			out = append(out, i)
		}
	}
	return out
}

// MaxEdgeRate returns the highest observed transfer rate (MB/s) over the
// edge, the Rmax(E) of §4.3.2. The second return is false when the edge has
// no transfers.
func (l *Log) MaxEdgeRate(e EdgeKey) (float64, bool) {
	best := 0.0
	found := false
	for i := range l.Records {
		r := &l.Records[i]
		if r.Src == e.Src && r.Dst == e.Dst {
			found = true
			if rate := r.Rate(); rate > best {
				best = rate
			}
		}
	}
	return best, found
}

// TopEdges returns edge keys having at least minTransfers records, ordered
// by descending transfer count (ties broken lexicographically for
// determinism).
func (l *Log) TopEdges(minTransfers int) []EdgeKey {
	counts := l.Edges()
	var out []EdgeKey
	for e, c := range counts {
		if c >= minTransfers {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if counts[out[i]] != counts[out[j]] {
			return counts[out[i]] > counts[out[j]]
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// EndpointTypeOf returns the type of the endpoint with the given ID,
// defaulting to GCS when unknown.
func (l *Log) EndpointTypeOf(id string) EndpointType {
	if e, ok := l.Endpoints[id]; ok {
		return e.Type
	}
	return GCS
}

// SiteOf returns the site name of the endpoint with the given ID, or "".
func (l *Log) SiteOf(id string) string {
	if e, ok := l.Endpoints[id]; ok {
		return e.Site
	}
	return ""
}

// csvHeader is the column layout used by WriteCSV/ReadCSV. The trailing
// "retries" column was added with the fault-injection subsystem; readers
// also accept the legacy layout without it (Retries defaults to 0).
var csvHeader = []string{"id", "src", "dst", "ts", "te", "bytes", "files", "dirs", "conc", "par", "faults", "retries"}

// legacyCols is the column count of pre-retries CSV files.
const legacyCols = 11

// WriteCSV writes the records (not the endpoint directory) as CSV.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := NewCSVWriter(w)
	for i := range l.Records {
		if err := cw.Write(&l.Records[i]); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// CSVWriter streams records as CSV one at a time (the format WriteCSV
// produces), for converters that never hold a whole log in memory. The
// header is written with the first record (or at Flush for empty logs).
type CSVWriter struct {
	cw     *csv.Writer
	row    []string
	header bool
}

// NewCSVWriter starts a CSV log stream on w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{cw: csv.NewWriter(w), row: make([]string, len(csvHeader))}
}

func (w *CSVWriter) writeHeader() error {
	if w.header {
		return nil
	}
	w.header = true
	return w.cw.Write(csvHeader)
}

// Write emits one record row.
func (w *CSVWriter) Write(r *Record) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	row := w.row
	row[0] = strconv.Itoa(r.ID)
	row[1] = r.Src
	row[2] = r.Dst
	row[3] = strconv.FormatFloat(r.Ts, 'g', -1, 64)
	row[4] = strconv.FormatFloat(r.Te, 'g', -1, 64)
	row[5] = strconv.FormatFloat(r.Bytes, 'g', -1, 64)
	row[6] = strconv.Itoa(r.Files)
	row[7] = strconv.Itoa(r.Dirs)
	row[8] = strconv.Itoa(r.Conc)
	row[9] = strconv.Itoa(r.Par)
	row[10] = strconv.Itoa(r.Faults)
	row[11] = strconv.Itoa(r.Retries)
	return w.cw.Write(row)
}

// Flush writes the header if no record did and flushes buffered rows.
func (w *CSVWriter) Flush() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	w.cw.Flush()
	return w.cw.Error()
}

// checkHeader validates a header row against the current or legacy column
// layout, returning the number of data columns each row must have.
func checkHeader(head []string) (cols int, err error) {
	if len(head) != len(csvHeader) && len(head) != legacyCols {
		return 0, fmt.Errorf("logs: header has %d columns, want %d (or legacy %d)", len(head), len(csvHeader), legacyCols)
	}
	for i, h := range head {
		if h != csvHeader[i] {
			return 0, fmt.Errorf("logs: header column %d is %q, want %q", i, h, csvHeader[i])
		}
	}
	return len(head), nil
}

// ReadCSV parses records produced by WriteCSV into a fresh log (endpoint
// directory left empty; callers re-attach it separately). It is strict:
// the first malformed row aborts the whole read, and a stream that ends
// mid-record fails with ErrPartialRecord. Use ReadCSVLenient for
// best-effort ingestion of damaged files.
func ReadCSV(r io.Reader) (*Log, error) {
	sc, err := NewCSVScanner(r)
	if err != nil {
		return nil, err
	}
	l := NewLog()
	for {
		rec, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		l.Append(rec)
	}
	return l, nil
}

// ErrPartialRecord reports that the byte stream ended in the middle of a
// record: trailing bytes after the last unquoted newline. Unlike other
// scanner errors it is not a poison — the partial bytes stay buffered and
// a later Next retries the underlying reader, so a scanner over a growing
// file resumes exactly where it stopped once the writer completes the
// record. ReadCSV treats it as corruption (a well-formed log ends at a
// record boundary); ReadCSVLenient tallies it under SkipPartial.
var ErrPartialRecord = errors.New("logs: stream ends mid-record")

// maxRecordBytes caps how far the scanner will buffer looking for the end
// of a single record before declaring it unparseable; it exists so a
// stray opening quote in a tailed file cannot buffer the rest of the file.
const maxRecordBytes = 1 << 20

var errRecordTooLong = fmt.Errorf("logs: record exceeds %d bytes", maxRecordBytes)

// CSVScanner streams records out of a CSV log one at a time, doing its
// own record framing so it can tell a record boundary from a torn final
// line. In the default strict mode the semantics match ReadCSV: the
// header is validated up front and the first malformed row poisons the
// scan. io.EOF (stream ends at a record boundary) and ErrPartialRecord
// (stream ends mid-record) are both resumable: a later Next re-reads the
// underlying reader, which is what lets a tailer follow a growing file.
type CSVScanner struct {
	r       io.Reader
	buf     []byte // buffered bytes; buf[pos:] is unconsumed
	pos     int
	cols    int
	header  bool
	resync  bool // discarding up to the next newline after an oversized record
	lenient bool
	stats   *IngestStats
	err     error // sticky poison: malformed row (strict), bad header, or I/O error
	scratch []string
}

// NewCSVScanner validates the header and returns a scanner over the rows.
func NewCSVScanner(r io.Reader) (*CSVScanner, error) {
	s := &CSVScanner{r: r}
	if err := s.readHeader(); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, ErrPartialRecord) {
			return nil, fmt.Errorf("logs: reading header: %w", err)
		}
		return nil, err
	}
	return s, nil
}

// NewTailCSVScanner returns a scanner that reads the header lazily: Next
// reports io.EOF or ErrPartialRecord until a complete, valid header has
// arrived, then scans records as they appear. Use it to follow a file
// that may not exist in full yet.
func NewTailCSVScanner(r io.Reader) *CSVScanner {
	return &CSVScanner{r: r}
}

// Lenient switches the scanner to best-effort mode: malformed rows are
// tallied in the returned stats and skipped instead of poisoning the
// scan, with the same per-reason accounting as ReadCSVLenient. Call it
// before the first Next.
func (s *CSVScanner) Lenient() *IngestStats {
	s.lenient = true
	s.stats = &IngestStats{}
	return s.stats
}

// fill reads more bytes from the underlying reader into the buffer.
func (s *CSVScanner) fill() error {
	if s.pos > 0 {
		n := copy(s.buf, s.buf[s.pos:])
		s.buf = s.buf[:n]
		s.pos = 0
	}
	if len(s.buf) == cap(s.buf) {
		grow := cap(s.buf)
		if grow < 4096 {
			grow = 4096
		}
		nb := make([]byte, len(s.buf), len(s.buf)+grow)
		copy(nb, s.buf)
		s.buf = nb
	}
	for tries := 0; tries < 100; tries++ {
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// frameRecord scans for the end of the next CSV record in b, honouring
// quoted fields the way encoding/csv does: a quote opens a quoted field
// only at the start of a field, "" inside quotes is an escaped quote, and
// newlines inside quoted fields do not terminate the record. It returns
// the index just past the terminating newline, or ok=false when b does
// not yet hold a complete record.
func frameRecord(b []byte) (end int, ok bool) {
	inQuotes := false
	fieldStart := true
	for i := 0; i < len(b); {
		c := b[i]
		if inQuotes {
			if c == '"' {
				if i+1 >= len(b) {
					return 0, false // escaped quote or closing quote: need the next byte
				}
				if b[i+1] == '"' {
					i += 2
					continue
				}
				inQuotes = false
			}
			i++
			continue
		}
		switch c {
		case '"':
			if fieldStart {
				inQuotes = true
			}
			fieldStart = false
		case ',':
			fieldStart = true
		case '\n':
			return i + 1, true
		default:
			fieldStart = false
		}
		i++
	}
	return 0, false
}

// nextLine returns the raw bytes of the next complete record including
// its newline terminator. io.EOF and ErrPartialRecord are resumable;
// errRecordTooLong reports a record over maxRecordBytes (the caller
// decides whether to poison or resync).
func (s *CSVScanner) nextLine() ([]byte, error) {
	for {
		if s.resync {
			if i := bytes.IndexByte(s.buf[s.pos:], '\n'); i >= 0 {
				s.pos += i + 1
				s.resync = false
			} else {
				s.pos = len(s.buf)
			}
		}
		if !s.resync {
			if end, ok := frameRecord(s.buf[s.pos:]); ok {
				raw := s.buf[s.pos : s.pos+end]
				s.pos += end
				return raw, nil
			}
			if len(s.buf)-s.pos > maxRecordBytes {
				return nil, errRecordTooLong
			}
		}
		if err := s.fill(); err != nil {
			if errors.Is(err, io.EOF) {
				if s.pos == len(s.buf) {
					return nil, io.EOF
				}
				return nil, ErrPartialRecord
			}
			return nil, err
		}
	}
}

// trimEOL strips the record terminator ("\n" or "\r\n") from a framed row.
func trimEOL(raw []byte) []byte {
	if n := len(raw); n > 0 && raw[n-1] == '\n' {
		raw = raw[:n-1]
	}
	if n := len(raw); n > 0 && raw[n-1] == '\r' {
		raw = raw[:n-1]
	}
	return raw
}

// parseFields splits one framed record into fields. Rows without quotes
// or carriage returns take a direct comma split; anything else goes
// through encoding/csv so quoting semantics (and error verdicts on bad
// quoting) match the stdlib exactly.
func (s *CSVScanner) parseFields(raw, line []byte) ([]string, error) {
	if bytes.IndexByte(line, '"') < 0 && bytes.IndexByte(line, '\r') < 0 {
		fields := s.scratch[:0]
		start := 0
		for i := 0; i <= len(line); i++ {
			if i == len(line) || line[i] == ',' {
				fields = append(fields, string(line[start:i]))
				start = i + 1
			}
		}
		s.scratch = fields
		return fields, nil
	}
	cr := csv.NewReader(bytes.NewReader(raw))
	cr.FieldsPerRecord = -1
	return cr.Read()
}

// readHeader frames and validates the header row, skipping leading blank
// lines the way encoding/csv does. io.EOF / ErrPartialRecord mean the
// header has not fully arrived yet (resumable in tail mode); any other
// failure poisons the scanner.
func (s *CSVScanner) readHeader() error {
	for {
		raw, err := s.nextLine()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, ErrPartialRecord) {
				return err
			}
			s.err = err
			return err
		}
		line := trimEOL(raw)
		if len(line) == 0 {
			continue
		}
		fields, perr := s.parseFields(raw, line)
		if perr != nil {
			s.err = fmt.Errorf("logs: reading header: %w", perr)
			return s.err
		}
		cols, herr := checkHeader(fields)
		if herr != nil {
			s.err = herr
			return s.err
		}
		s.cols = cols
		s.header = true
		return nil
	}
}

// Next returns the next record. io.EOF means the stream ended at a record
// boundary; ErrPartialRecord means it ended mid-record. Both are
// retryable — when the underlying reader later yields more bytes, Next
// picks up where it stopped. In lenient mode malformed rows are tallied
// and skipped rather than returned as errors.
func (s *CSVScanner) Next() (Record, error) {
	if s.err != nil {
		return Record{}, s.err
	}
	if !s.header {
		if err := s.readHeader(); err != nil {
			return Record{}, err
		}
	}
	for {
		raw, err := s.nextLine()
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, ErrPartialRecord):
				return Record{}, err
			case errors.Is(err, errRecordTooLong) && s.lenient:
				s.stats.Rows++
				s.stats.skip(SkipSyntax)
				s.resync = true
				continue
			default:
				s.err = err
				return Record{}, err
			}
		}
		line := trimEOL(raw)
		if len(line) == 0 {
			continue
		}
		if s.lenient {
			s.stats.Rows++
		}
		fields, perr := s.parseFields(raw, line)
		if perr != nil {
			if s.lenient {
				s.stats.skip(SkipSyntax)
				continue
			}
			s.err = perr
			return Record{}, perr
		}
		if len(fields) != s.cols {
			if s.lenient {
				s.stats.skip(SkipColumns)
				continue
			}
			s.err = fmt.Errorf("logs: row has %d columns, want %d", len(fields), s.cols)
			return Record{}, s.err
		}
		rec, badCol, perr := parseRow(fields)
		if perr != nil {
			if s.lenient {
				s.stats.skip("field:" + badCol)
				continue
			}
			s.err = perr
			return Record{}, perr
		}
		if s.lenient {
			if math.IsNaN(rec.Ts) || math.IsInf(rec.Ts, 0) ||
				math.IsNaN(rec.Te) || math.IsInf(rec.Te, 0) ||
				math.IsNaN(rec.Bytes) || math.IsInf(rec.Bytes, 0) {
				s.stats.skip(SkipFinite)
				continue
			}
			if rec.Te < rec.Ts {
				s.stats.skip(SkipDuration)
				continue
			}
			s.stats.Kept++
		}
		return rec, nil
	}
}

// Skip reasons reported by ReadCSVLenient.
const (
	SkipSyntax   = "csv-syntax"        // unparseable CSV record (e.g. bare quote)
	SkipColumns  = "column-count"      // wrong number of fields
	SkipDuration = "negative-duration" // Te < Ts
	SkipFinite   = "non-finite"        // NaN or Inf in ts/te/bytes
	SkipPartial  = "partial-record"    // stream ended mid-record (torn final line)
)

// IngestStats summarizes a lenient CSV read: how many data rows were seen,
// kept, and skipped, with per-reason skip counts. Field-parse failures are
// keyed "field:<column name>" (e.g. "field:ts"); structural and semantic
// reasons use the Skip* constants.
type IngestStats struct {
	Rows    int // data rows encountered (header excluded)
	Kept    int
	Skipped int
	Reasons map[string]int
}

func (s *IngestStats) skip(reason string) {
	s.Skipped++
	if s.Reasons == nil {
		s.Reasons = make(map[string]int)
	}
	s.Reasons[reason]++
}

// String renders the stats as a single diagnostic line.
func (s *IngestStats) String() string {
	out := fmt.Sprintf("logs: %d rows, %d kept, %d skipped", s.Rows, s.Kept, s.Skipped)
	if s.Skipped > 0 {
		reasons := make([]string, 0, len(s.Reasons))
		for r := range s.Reasons {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			out += fmt.Sprintf(" %s=%d", r, s.Reasons[r])
		}
	}
	return out
}

// ReadCSVLenient parses records produced by WriteCSV, skipping malformed
// rows instead of failing the whole file. A row is skipped when it cannot
// be tokenized as CSV, has the wrong column count, has an unparseable
// field, contains a non-finite time/byte value, or ends before it starts;
// a file that ends mid-record costs only the torn fragment (tallied under
// SkipPartial). Every skip is tallied by reason in the returned stats.
// Only an unreadable or mismatched header (the file is not a transfer log
// at all) is a hard error.
func ReadCSVLenient(r io.Reader) (*Log, *IngestStats, error) {
	sc, err := NewCSVScanner(r)
	if err != nil {
		return nil, nil, err
	}
	st := sc.Lenient()
	l := NewLog()
	for {
		rec, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, ErrPartialRecord) {
			// A static read cannot wait for the writer to finish the
			// record, so account for the fragment and stop.
			st.Rows++
			st.skip(SkipPartial)
			break
		}
		if err != nil {
			return nil, nil, err
		}
		l.Append(rec)
	}
	return l, st, nil
}

// parseRow parses one data row (of current or legacy width). On failure it
// names the offending column so lenient readers can tally skip reasons.
func parseRow(row []string) (r Record, badCol string, err error) {
	fail := func(col string, e error) (Record, string, error) {
		return Record{}, col, fmt.Errorf("logs: parsing %s: %w", col, e)
	}
	if r.ID, err = strconv.Atoi(row[0]); err != nil {
		return fail("id", err)
	}
	// The readers run with ReuseRecord, where every field of a row shares
	// one backing string; Src/Dst outlive the row, so clone them to avoid
	// pinning whole rows in memory.
	r.Src, r.Dst = strings.Clone(row[1]), strings.Clone(row[2])
	if r.Ts, err = strconv.ParseFloat(row[3], 64); err != nil {
		return fail("ts", err)
	}
	if r.Te, err = strconv.ParseFloat(row[4], 64); err != nil {
		return fail("te", err)
	}
	if r.Bytes, err = strconv.ParseFloat(row[5], 64); err != nil {
		return fail("bytes", err)
	}
	if r.Files, err = strconv.Atoi(row[6]); err != nil {
		return fail("files", err)
	}
	if r.Dirs, err = strconv.Atoi(row[7]); err != nil {
		return fail("dirs", err)
	}
	if r.Conc, err = strconv.Atoi(row[8]); err != nil {
		return fail("conc", err)
	}
	if r.Par, err = strconv.Atoi(row[9]); err != nil {
		return fail("par", err)
	}
	if r.Faults, err = strconv.Atoi(row[10]); err != nil {
		return fail("faults", err)
	}
	if len(row) > 11 {
		if r.Retries, err = strconv.Atoi(row[11]); err != nil {
			return fail("retries", err)
		}
	}
	return r, "", nil
}
