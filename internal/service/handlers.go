package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpustream"
	"gpustream/internal/sorter"
)

// routes builds the service mux. Method-and-pattern routing is stdlib
// (net/http pattern syntax); {tenant} and {stream} are validated by name
// before touching the registry.
func (s *Server[T]) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/streams/{tenant}/{stream}", s.stream(s.handlePut))
	mux.HandleFunc("DELETE /v1/streams/{tenant}/{stream}", s.stream(s.handleDelete))
	mux.HandleFunc("GET /v1/streams/{tenant}/{stream}", s.stream(s.handleInfo))
	mux.HandleFunc("POST /v1/streams/{tenant}/{stream}/values", s.stream(s.handleIngest))
	mux.HandleFunc("GET /v1/streams/{tenant}/{stream}/quantile", s.stream(s.handleQuantile))
	mux.HandleFunc("GET /v1/streams/{tenant}/{stream}/heavyhitters", s.stream(s.handleHeavyHitters))
	mux.HandleFunc("GET /v1/streams/{tenant}/{stream}/frequency", s.stream(s.handleFrequency))
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// stream wraps a stream-scoped handler with name validation and the drain
// gate: once shutdown starts, stream operations answer 503 so a fronting
// load balancer fails over, while /healthz and /statsz keep reporting.
func (s *Server[T]) stream(h func(w http.ResponseWriter, r *http.Request, tenant, stream string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeErr(w, http.StatusServiceUnavailable, "service is draining")
			return
		}
		tenant, stream := r.PathValue("tenant"), r.PathValue("stream")
		if !validName(tenant) || !validName(stream) {
			writeErr(w, http.StatusBadRequest, "tenant and stream names must be 1-64 characters of [A-Za-z0-9_-]")
			return
		}
		h(w, r, tenant, stream)
	}
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeJSON answers code with v encoded as one line of JSON. The body is
// encoded before the status goes out, so a value that cannot be encoded
// answers 500 with the reason instead of the intended status with no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(apiError{Error: fmt.Sprintf("encode reply: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

// handlePut creates (or idempotently re-asserts) a stream from the JSON
// spec document in the body: 201 on creation, 200 when an identical stream
// already exists, 409 when the existing spec differs, 400 on a bad spec.
func (s *Server[T]) handlePut(w http.ResponseWriter, r *http.Request, tenant, stream string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "spec body: %v", err)
		return
	}
	spec, err := gpustream.ParseSpec(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, created, err := s.reg.create(tenant, stream, spec)
	switch {
	case errors.Is(err, errConflict):
		writeErr(w, http.StatusConflict, "stream %s/%s exists with a different spec", tenant, stream)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, struct {
		Tenant  string         `json:"tenant"`
		Stream  string         `json:"stream"`
		Created bool           `json:"created"`
		Spec    gpustream.Spec `json:"spec"`
	}{tenant, stream, created, e.spec})
}

// handleDelete drains the stream — the batch in flight finished, the
// estimator closed via its context-aware drain under the request deadline
// (?timeout= overrides the configured default) — spills its final snapshot,
// and removes it. The request is validated before the stream is unlinked:
// a rejected DELETE must leave it live, not drop its rows unspilled.
func (s *Server[T]) handleDelete(w http.ResponseWriter, r *http.Request, tenant, stream string) {
	timeout := s.cfg.DrainTimeout
	if arg := r.URL.Query().Get("timeout"); arg != "" {
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			writeErr(w, http.StatusBadRequest, "bad timeout %q", arg)
			return
		}
		timeout = d
	}
	e, ok := s.reg.remove(tenant, stream)
	if !ok {
		writeErr(w, http.StatusNotFound, "no stream %s/%s", tenant, stream)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := s.reg.finishContext(ctx, e); err != nil {
		writeErr(w, http.StatusInternalServerError, "drain %s/%s: %v", tenant, stream, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Tenant string `json:"tenant"`
		Stream string `json:"stream"`
		Rows   int64  `json:"rows"`
		Count  int64  `json:"count"`
	}{tenant, stream, e.rows.Load(), e.est.Count()})
}

// handleInfo reports one stream's spec, counts, and live pipeline stats.
func (s *Server[T]) handleInfo(w http.ResponseWriter, r *http.Request, tenant, stream string) {
	e, ok := s.reg.get(tenant, stream)
	if !ok {
		writeErr(w, http.StatusNotFound, "no stream %s/%s", tenant, stream)
		return
	}
	writeJSON(w, http.StatusOK, s.streamStatus(e))
}

// maxPooledBytes is the largest body buffer or batch slice the pools keep
// (and the most a Content-Length may pre-size): a rare huge batch is left to
// the collector instead of staying pinned behind 4 KB requests.
const maxPooledBytes = 1 << 20

// bodyPool recycles POST body buffers; handleIngest holds one only from the
// read to the end of the decode.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the request body, capped at limit through
// http.MaxBytesReader, into a pooled buffer pre-sized from Content-Length.
// The caller returns the buffer to bodyPool.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := min(r.ContentLength, limit, maxPooledBytes); n > 0 {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		putBody(buf)
		return nil, err
	}
	return buf, nil
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBytes {
		bodyPool.Put(buf)
	}
}

// handleIngest accepts one batch of values — a JSON array of numbers, or
// binary little-endian rows at the element type's native width — and
// ingests it under the stream's turn, waiting for the turn under the
// request context. The batch is queryable when the reply goes out: 202, or
// 200 with ?sync=1 (the two differ in status and the reply's "queued"
// field only), 413 for oversized batches, 500 when the batch failed in the
// estimator, 503 when the request ended while it waited. Body and batch
// live in pooled buffers: the body goes back once decoded, the batch once
// ingested (DESIGN.md sections 20 and 30).
func (s *Server[T]) handleIngest(w http.ResponseWriter, r *http.Request, tenant, stream string) {
	e, ok := s.reg.get(tenant, stream)
	if !ok {
		writeErr(w, http.StatusNotFound, "no stream %s/%s", tenant, stream)
		return
	}
	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "batch body: %v", err)
		return
	}
	b := s.reg.batches.get()
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
		b.data, err = decodeBinary(b.data, body.Bytes())
	} else {
		b.data, err = decodeJSONValues(b.data, body.Bytes())
	}
	putBody(body)
	rows := len(b.data)
	reject := func(code int, format string, args ...any) {
		s.reg.batches.put(b)
		writeErr(w, code, format, args...)
	}
	if err != nil {
		reject(http.StatusBadRequest, "batch: %v", err)
		return
	}
	if rows == 0 {
		reject(http.StatusBadRequest, "batch: no values")
		return
	}
	if rows > s.cfg.MaxBatchRows {
		reject(http.StatusRequestEntityTooLarge, "batch of %d rows exceeds the %d-row limit", rows, s.cfg.MaxBatchRows)
		return
	}
	if err := e.ingest(r.Context(), b); err != nil {
		switch {
		case errors.Is(err, errClosing):
			writeErr(w, http.StatusConflict, "stream %s/%s is draining", tenant, stream)
		case errors.Is(err, errIngest):
			writeErr(w, http.StatusInternalServerError, "%v", err)
		default:
			writeErr(w, http.StatusServiceUnavailable, "ingest: %v", err)
		}
		return
	}
	sync := r.URL.Query().Get("sync") != ""
	code := http.StatusAccepted
	if sync {
		code = http.StatusOK
	}
	writeIngestReply(w, code, rows, !sync, tenant, stream)
}

// writeIngestReply writes the POST reply {"rows":N,"queued":B,"stream":"t/s"}
// byte for byte as the JSON encoder would, without reflecting over a struct
// per request; validName leaves nothing in the names to escape.
func writeIngestReply(w http.ResponseWriter, code, rows int, queued bool, tenant, stream string) {
	buf := make([]byte, 0, 192)
	buf = append(buf, `{"rows":`...)
	buf = strconv.AppendInt(buf, int64(rows), 10)
	buf = append(buf, `,"queued":`...)
	buf = strconv.AppendBool(buf, queued)
	buf = append(buf, `,"stream":"`...)
	buf = append(buf, tenant...)
	buf = append(buf, '/')
	buf = append(buf, stream...)
	buf = append(buf, "\"}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf)
}

// quantileResult is one phi probe's answer.
type quantileResult struct {
	Phi   float64 `json:"phi"`
	Value any     `json:"value"`
	OK    bool    `json:"ok"`
}

// answer is v as a reply writes it: a float type as the float64 it widens
// to, so a float reply is byte for byte what it always was, and an integer
// type exactly — a 64-bit value above 2^53 has no float64.
func answer[T gpustream.Value](v T) any {
	switch sorter.KindOf[T]() {
	case sorter.Float:
		return float64(v)
	case sorter.Signed:
		return int64(v)
	}
	return uint64(v)
}

// handleQuantile answers phi-quantile probes from a copy-on-write snapshot:
// ?phi=0.5 or ?phi=0.25,0.5,0.99; with no phi parameter the spec's Phis
// (default 0.5) are probed. 400 when the family answers no quantiles.
func (s *Server[T]) handleQuantile(w http.ResponseWriter, r *http.Request, tenant, stream string) {
	e, ok := s.reg.get(tenant, stream)
	if !ok {
		writeErr(w, http.StatusNotFound, "no stream %s/%s", tenant, stream)
		return
	}
	if !e.spec.Family.AnswersQuantiles() {
		writeErr(w, http.StatusBadRequest, "family %v answers no quantile queries", e.spec.Family)
		return
	}
	phis := e.spec.Phis
	if arg := r.URL.Query().Get("phi"); arg != "" {
		phis = nil
		for _, part := range strings.Split(arg, ",") {
			phi, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || !(phi >= 0 && phi <= 1) { // NaN fails both
				writeErr(w, http.StatusBadRequest, "bad phi %q (want a number in [0, 1])", part)
				return
			}
			phis = append(phis, phi)
		}
	}
	if len(phis) == 0 {
		phis = []float64{0.5}
	}
	snap := e.est.Snapshot()
	results := make([]quantileResult, len(phis))
	for i, phi := range phis {
		v, ok := snap.Quantile(phi)
		results[i] = quantileResult{Phi: phi, Value: answer(v), OK: ok}
	}
	writeJSON(w, http.StatusOK, struct {
		Count   int64            `json:"count"`
		Results []quantileResult `json:"results"`
	}{snap.Count(), results})
}

// heavyHitterItem is one reported heavy hitter.
type heavyHitterItem struct {
	Value any   `json:"value"`
	Freq  int64 `json:"freq"`
}

// handleHeavyHitters reports every value above ?support= (default: the
// spec's Support) from a snapshot. 400 when the family answers no
// frequency queries or no support threshold is available.
func (s *Server[T]) handleHeavyHitters(w http.ResponseWriter, r *http.Request, tenant, stream string) {
	e, ok := s.reg.get(tenant, stream)
	if !ok {
		writeErr(w, http.StatusNotFound, "no stream %s/%s", tenant, stream)
		return
	}
	if !e.spec.Family.AnswersFrequencies() {
		writeErr(w, http.StatusBadRequest, "family %v answers no frequency queries", e.spec.Family)
		return
	}
	support := e.spec.Support
	if arg := r.URL.Query().Get("support"); arg != "" {
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil || !(v >= 0 && v < 1) { // NaN fails both
			writeErr(w, http.StatusBadRequest, "bad support %q (want a number in [0, 1))", arg)
			return
		}
		support = v
	}
	if support == 0 {
		writeErr(w, http.StatusBadRequest, "no support threshold: pass ?support= or set it in the spec")
		return
	}
	snap := e.est.Snapshot()
	items, ok := snap.HeavyHitters(support)
	out := make([]heavyHitterItem, len(items))
	for i, it := range items {
		out[i] = heavyHitterItem{Value: answer(it.Value), Freq: it.Freq}
	}
	writeJSON(w, http.StatusOK, struct {
		Count   int64             `json:"count"`
		Support float64           `json:"support"`
		OK      bool              `json:"ok"`
		Items   []heavyHitterItem `json:"items"`
	}{snap.Count(), support, ok, out})
}

// handleFrequency answers a point-frequency probe: ?v=<value>.
func (s *Server[T]) handleFrequency(w http.ResponseWriter, r *http.Request, tenant, stream string) {
	e, ok := s.reg.get(tenant, stream)
	if !ok {
		writeErr(w, http.StatusNotFound, "no stream %s/%s", tenant, stream)
		return
	}
	if !e.spec.Family.AnswersFrequencies() {
		writeErr(w, http.StatusBadRequest, "family %v answers no frequency queries", e.spec.Family)
		return
	}
	arg := r.URL.Query().Get("v")
	if arg == "" {
		writeErr(w, http.StatusBadRequest, "no value: pass ?v=")
		return
	}
	v, err := parseValue[T](arg)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad value %q: %v", arg, err)
		return
	}
	snap := e.est.Snapshot()
	freq, ok := snap.Frequency(v)
	writeJSON(w, http.StatusOK, struct {
		Count int64 `json:"count"`
		Value any   `json:"value"`
		Freq  int64 `json:"freq"`
		OK    bool  `json:"ok"`
	}{snap.Count(), answer(v), freq, ok})
}

// decodeBinary decodes little-endian native-width rows into dst[:0]:
// IEEE-754 bits for the float types, two's-complement for the integer
// types. A NaN or infinite float row is rejected, naming its byte offset:
// the service stores and answers finite values only, as a JSON body can
// carry nothing else.
func decodeBinary[T gpustream.Value](dst []T, body []byte) ([]T, error) {
	width := sorter.Width[T]()
	if len(body)%width != 0 {
		return dst[:0], fmt.Errorf("binary body of %d bytes is not a multiple of the %d-byte row width", len(body), width)
	}
	n := len(body) / width
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		var bits uint64
		if width == 4 {
			bits = uint64(binary.LittleEndian.Uint32(body[i*4:]))
		} else {
			bits = binary.LittleEndian.Uint64(body[i*8:])
		}
		if !finite[T](bits) {
			return dst[:0], fmt.Errorf("offset %d: non-finite value", i*width)
		}
		dst[i] = sorter.FromBits[T](bits)
	}
	return dst, nil
}

// finite reports whether bits, a T's bit pattern, is a value the service
// stores: any integer, or a float whose exponent is not all ones (NaN, ±Inf).
func finite[T gpustream.Value](bits uint64) bool {
	exp := sorter.ExpMask[T]()
	return exp == 0 || bits&exp != exp
}

// decodeJSONValues decodes a bare JSON array of numbers into dst[:0] in one
// pass over the body, at full precision for the element type: floats parse
// as floats, integer types as integers (so uint64 keys above 2^53 survive —
// clients needing exact wide integers can also use the binary row format).
// The grammar is JSON's and nothing more: whitespace around every token,
// elements that are number literals (no strings, nulls or nesting, and none
// of the spellings strconv alone would take: 01, +1, .5, 1., 0x10, Inf, 1_0),
// and nothing but whitespace after the closing bracket. A top-level null is
// the empty batch. A literal's value is strconv's: sorter.FromDecimal
// finishes it from the digits the scan read where that is provably the same
// value, and parseValue parses the literal otherwise, so values and errors do
// not depend on which path a literal took. Errors name the byte offset.
func decodeJSONValues[T gpustream.Value](dst []T, body []byte) ([]T, error) {
	dst = dst[:0]
	i := skipSpace(body, 0)
	if bytes.HasPrefix(body[i:], []byte("null")) {
		return dst, onlySpace(body, i+len("null"))
	}
	if i == len(body) || body[i] != '[' {
		return dst, fmt.Errorf("offset %d: want a JSON array of numbers", i)
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == ']' {
		return dst, onlySpace(body, i+1)
	}
	for {
		end, d := scanNumber(body, i)
		if end < 0 {
			return dst, fmt.Errorf("offset %d: element %d is not a JSON number", i, len(dst))
		}
		v, ok := sorter.FromDecimal[T](d)
		if !ok {
			var err error
			if v, err = parseValue[T](string(body[i:end])); err != nil {
				return dst, fmt.Errorf("offset %d: element %d: %w", i, len(dst), err)
			}
		}
		dst = append(dst, v)
		i = skipSpace(body, end)
		if i < len(body) && body[i] == ']' {
			return dst, onlySpace(body, i+1)
		}
		if i == len(body) || body[i] != ',' {
			return dst, fmt.Errorf("offset %d: want ',' or ']' after element %d", i, len(dst)-1)
		}
		i = skipSpace(body, i+1)
	}
}

// onlySpace is the check after the batch's last token: nothing but JSON
// whitespace may follow body[:i].
func onlySpace(body []byte, i int) error {
	if i = skipSpace(body, i); i != len(body) {
		return fmt.Errorf("offset %d: data after the array", i)
	}
	return nil
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(body []byte, i int) int {
	for i < len(body) && (body[i] == ' ' || body[i] == '\n' || body[i] == '\t' || body[i] == '\r') {
		i++
	}
	return i
}

// scanNumber reads the JSON number literal that starts at body[i],
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns the index
// after it, or -1 when none starts there. In the same pass it reads the
// literal's value as a sorter.Decimal, for sorter.FromDecimal to finish
// where that is exact. What may follow the literal is the caller's check.
func scanNumber(body []byte, i int) (int, sorter.Decimal) {
	neg := i < len(body) && body[i] == '-'
	if neg {
		i++
	}
	var m uint64
	nd := 0 // digits read into m: past sorter.MaxDecimalDigits, m has wrapped
	if i < len(body) && body[i] == '0' {
		i++ // a lone leading 0 adds no digit to m
	} else {
		start := i
		if i, m = readDigits(body, i, 0); i == start {
			return -1, sorter.Decimal{}
		}
		nd = i - start
	}
	exp, shape := 0, sorter.IntLiteral
	if i < len(body) && body[i] == '.' {
		start := i + 1
		if i, m = readDigits(body, start, m); i == start {
			return -1, sorter.Decimal{}
		}
		nd += i - start
		exp, shape = start-i, sorter.RealLiteral
	}
	x := 0 // the explicit exponent's magnitude, saturating at maxExp
	if i < len(body) && (body[i] == 'e' || body[i] == 'E') {
		i++
		eneg := i < len(body) && body[i] == '-'
		if eneg || i < len(body) && body[i] == '+' {
			i++
		}
		start := i
		for ; i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
			x = min(x*10+int(body[i]-'0'), maxExp)
		}
		if i == start {
			return -1, sorter.Decimal{}
		}
		if eneg {
			exp -= x
		} else {
			exp += x
		}
		shape = sorter.RealLiteral
	}
	if nd > sorter.MaxDecimalDigits || x == maxExp {
		shape = sorter.LongLiteral
	}
	return i, sorter.Decimal{Mant: m, Exp: exp, Neg: neg, Shape: shape}
}

// maxExp is where scanNumber stops accumulating an explicit exponent; a
// literal whose exponent reaches it is a sorter.LongLiteral, for strconv.
const maxExp = 1 << 20

// readDigits appends the decimal digits at body[i:] to m and returns the
// index of the first non-digit. m wraps past 19 digits; the caller counts.
func readDigits(body []byte, i int, m uint64) (int, uint64) {
	for ; i < len(body); i++ {
		c := body[i] - '0'
		if c > 9 {
			break
		}
		m = m*10 + uint64(c)
	}
	return i, m
}

// parseValue parses one decimal literal at the element type's precision
// (sorter.Parse). strconv's "NaN", "Inf" and "Infinity" spellings are
// rejected: only finite values are stored or asked about.
func parseValue[T gpustream.Value](s string) (T, error) {
	v, err := sorter.Parse[T](s)
	if err == nil && !finite[T](sorter.Bits(v)) {
		err = errors.New("non-finite value")
	}
	return v, err
}
