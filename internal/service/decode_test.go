package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpustream"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
)

// refDecodeJSONValues is the decoder the scanner replaced, kept as the
// differential reference: encoding/json into []json.Number, then parseValue
// per element.
func refDecodeJSONValues[T gpustream.Value](body []byte) ([]T, error) {
	var raw []json.Number
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	out := make([]T, len(raw))
	for i, num := range raw {
		v, err := parseValue[T](num.String())
		if err != nil {
			return nil, fmt.Errorf("element %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// narrowed reports whether body is one of the two inputs the reference took
// by accident and the scanner refuses: anything but whitespace after the
// first JSON value (the reference stopped reading there), or a string among
// the elements (json.Number unquotes "1").
func narrowed(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var elems []json.RawMessage
	if dec.Decode(&elems) != nil {
		return false
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return true
	}
	for _, el := range elems {
		if el[0] == '"' {
			return true
		}
	}
	return false
}

// checkAgainstReference decodes body as []T both ways. Off the narrowed
// cases the two must agree on accept/reject and on every bit.
func checkAgainstReference[T gpustream.Value](t *testing.T, body []byte) {
	t.Helper()
	var zero T
	got, gotErr := decodeJSONValues[T](nil, body)
	if narrowed(body) {
		if gotErr == nil {
			t.Errorf("%T: %q accepted as %v; want the narrowed case rejected", zero, body, got)
		}
		return
	}
	want, wantErr := refDecodeJSONValues[T](body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Errorf("%T: %q: scanner error %v, reference error %v", zero, body, gotErr, wantErr)
		return
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) {
		t.Errorf("%T: %q: %d values, reference %d", zero, body, len(got), len(want))
		return
	}
	for i := range got {
		if sorter.Bits(got[i]) != sorter.Bits(want[i]) {
			t.Errorf("%T: %q: element %d = %v (%#x), reference %v (%#x)", zero, body, i, got[i], sorter.Bits(got[i]), want[i], sorter.Bits(want[i]))
		}
	}
}

func checkAllTypes(t *testing.T, body []byte) {
	t.Helper()
	checkAgainstReference[float32](t, body)
	checkAgainstReference[float64](t, body)
	checkAgainstReference[uint32](t, body)
	checkAgainstReference[uint64](t, body)
	checkAgainstReference[int32](t, body)
	checkAgainstReference[int64](t, body)
}

// decodeSeeds is the fuzz corpus and the table TestDecodeJSONValues walks:
// every value type decodes every entry.
var decodeSeeds = []string{
	// Accepted by some or all types.
	`[1,2,3]`, `[0]`, `[-0]`, `[-0.0]`, `[1.5]`, `[-1]`, `[1e400]`, `[-1e400]`, `[1e-400]`,
	`[18446744073709551615]`, `[18446744073709551616]`, `[9223372036854775807]`, `[-9223372036854775808]`,
	`[4294967295]`, `[4294967296]`, `[2147483647]`, `[-2147483649]`, `[9007199254740993]`,
	`[1e2]`, `[1E2]`, `[1e+2]`, `[1e-2]`, `[1.25e+2]`, `[0.1]`, `[0e0]`, `[3.4028235e38]`, `[3.4028236e39]`,
	" [ 1 , 2 ] ", "\t[\n1\r,\n2\t]\r\n", "[1,2]\n", "[ ]", `[]`, `null`, ` null `,
	// Rejected by all.
	``, ` `, `[`, `[1`, `[1,`, `[1,]`, `[,1]`, `[1 2]`, `]`, `1`, `{}`, `{"a":1}`, `"1"`, `true`, `nul`, `nulll`,
	`[01]`, `[-01]`, `[+1]`, `[.5]`, `[1.]`, `[-]`, `[-.5]`, `[1e]`, `[1e+]`, `[0x10]`, `[0x1p-2]`, `[Inf]`, `[-Inf]`,
	`[NaN]`, `[Infinity]`, `[1_0]`, `[1,2,a]`, `[null]`, `[1,null]`, `[true]`, `[[1]]`, `[1,[2]]`, `[{}]`, `["a"]`,
	"\ufeff[1]", "[1\x00]", "[1]\x00", `[1]]`,
	// The narrowed cases: a tail after the array, quoted numbers.
	`[1,2][3]`, `[1,2]garbage`, `[1,2],`, `[] []`, `null null`, `null[1]`, `["1","2"]`, `[1,"2"]`, `["1"]`,
}

func FuzzDecodeJSONValues(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkAllTypes)
}

// TestDecodeJSONValues pins what the differential cannot — that the narrowed
// cases and the strconv-only spellings are rejected at the right offset, and
// the values a few boundary literals decode to — and walks the seed corpus,
// so plain `go test` runs the differential too.
func TestDecodeJSONValues(t *testing.T) {
	for _, seed := range decodeSeeds {
		checkAllTypes(t, []byte(seed))
	}

	rejected := []struct {
		body   string
		offset int
	}{
		{`[1,2][3]`, 5}, {`[1,2]garbage`, 5}, {`[1,2] x`, 6}, {`null x`, 5},
		{`["1","2"]`, 1}, {`[1,"2"]`, 3},
		{`[01]`, 2}, {`[+1]`, 1}, {`[.5]`, 1}, {`[1.]`, 1}, {`[0x10]`, 2}, {`[Inf]`, 1}, {`[NaN]`, 1}, {`[1_0]`, 2},
		{`[1,`, 3}, {`[1`, 2}, {``, 0}, {`  {}`, 2},
	}
	for _, tc := range rejected {
		_, err := decodeJSONValues[float64](nil, []byte(tc.body))
		if want := fmt.Sprintf("offset %d:", tc.offset); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%q: error %v, want one starting %q", tc.body, err, want)
		}
	}

	if got, err := decodeJSONValues[uint64](nil, []byte(`[18446744073709551615, 9007199254740993]`)); err != nil ||
		len(got) != 2 || got[0] != 1<<64-1 || got[1] != 1<<53+1 {
		t.Errorf("uint64 above 2^53 = %v, %v; want exact", got, err)
	}
	if _, err := decodeJSONValues[float32](nil, []byte(`[1e400]`)); err == nil {
		t.Error("1e400 as float32 accepted, want a range error")
	}
	if _, err := decodeJSONValues[int32](nil, []byte(`[1.5]`)); err == nil {
		t.Error("1.5 as int32 accepted")
	}
	for _, empty := range []string{`[]`, ` [ ] `, `null`, "null\n"} {
		if got, err := decodeJSONValues[float32](nil, []byte(empty)); err != nil || len(got) != 0 {
			t.Errorf("%q = %v, %v; want no values and no error", empty, got, err)
		}
	}

	// dst is reused from its start, whatever it held.
	dst := []float32{9, 9, 9, 9}
	got, err := decodeJSONValues(dst, []byte(`[1,2]`))
	if err != nil || len(got) != 2 || &got[0] != &dst[0] || got[0] != 1 || got[1] != 2 {
		t.Errorf("decode into a used slice = %v, %v; want [1 2] in place", got, err)
	}
}

// appendBinary encodes values in the row format decodeBinary reads.
func appendBinary[T gpustream.Value](dst []byte, values []T) []byte {
	for _, v := range values {
		if sorter.Width[T]() == 4 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(sorter.Bits(v)))
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, sorter.Bits(v))
		}
	}
	return dst
}

// benchBodies is one POST body of the shape benchmark/'s svc-* workloads
// (and streamload) send: 500 zipf float32 rows, as JSON and as binary rows.
const benchRows = 500

func benchBodies(tb testing.TB) (jsonBody, binBody []byte) {
	vals := stream.ZipfOf[float32](benchRows, 1.2, 1<<14, 1)
	jsonBody, err := json.Marshal(vals)
	if err != nil {
		tb.Fatal(err)
	}
	return jsonBody, appendBinary(nil, vals)
}

// TestDecodeIntoPooledSliceAllocatesNothing pins the steady state of the
// POST path's decode: with the batch slice already grown, neither decoder
// allocates.
func TestDecodeIntoPooledSliceAllocatesNothing(t *testing.T) {
	jsonBody, binBody := benchBodies(t)
	dst, err := decodeJSONValues[float32](nil, jsonBody)
	if err != nil || len(dst) != benchRows {
		t.Fatalf("warm-up decode: %d rows, %v", len(dst), err)
	}
	if a := testing.AllocsPerRun(20, func() { dst, _ = decodeJSONValues(dst, jsonBody) }); a != 0 {
		t.Errorf("JSON decode of %d rows: %v allocs, want 0", benchRows, a)
	}
	if a := testing.AllocsPerRun(20, func() { dst, _ = decodeBinary(dst, binBody) }); a != 0 {
		t.Errorf("binary decode of %d rows: %v allocs, want 0", benchRows, a)
	}
}

// TestDecodeBinaryRejectsNonFinite: a NaN or infinite float row fails the
// batch at its byte offset; the largest finite and the subnormal floats
// pass, and so does every integer row — the same bit patterns are values
// there.
func TestDecodeBinaryRejectsNonFinite(t *testing.T) {
	f32 := func(vs ...float32) []byte { return appendBinary(nil, vs) }
	f64 := func(vs ...float64) []byte { return appendBinary(nil, vs) }
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"float32 +Inf second", second(decodeBinary[float32](nil, f32(1, float32(inf)))), "offset 4: non-finite value"},
		{"float32 NaN first", second(decodeBinary[float32](nil, f32(float32(nan), 1))), "offset 0: non-finite value"},
		{"float64 -Inf third", second(decodeBinary[float64](nil, f64(0, 1, -inf))), "offset 16: non-finite value"},
		{"float64 NaN", second(decodeBinary[float64](nil, f64(nan))), "offset 0: non-finite value"},
		{"float32 extremes", second(decodeBinary[float32](nil, f32(math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32))), ""},
		{"float64 extremes", second(decodeBinary[float64](nil, f64(math.MaxFloat64, math.SmallestNonzeroFloat64))), ""},
		{"uint32 exponent bits", second(decodeBinary[uint32](nil, f32(float32(inf), float32(nan)))), ""},
		{"int64 exponent bits", second(decodeBinary[int64](nil, f64(-inf, nan))), ""},
	} {
		if got := fmt.Sprint(tc.err); (tc.want == "" && tc.err != nil) || (tc.want != "" && got != tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, tc.err, tc.want)
		}
	}
	if _, err := parseValue[float64]("Infinity"); err == nil {
		t.Error(`parseValue("Infinity") accepted`)
	}
}

// second drops a decode's values.
func second[T any](_ T, err error) error { return err }

func BenchmarkDecodeJSON(b *testing.B) {
	body, _ := benchBodies(b)
	var dst []float32
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		dst, _ = decodeJSONValues(dst, body)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}

func BenchmarkDecodeBinary(b *testing.B) {
	_, body := benchBodies(b)
	var dst []float32
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		dst, _ = decodeBinary(dst, body)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}

// TestIngestReplyMatchesEncoder holds the hand-written POST reply to the
// bytes the JSON encoder produced for the same document.
func TestIngestReplyMatchesEncoder(t *testing.T) {
	long := strings.Repeat("Z", 64)
	for _, tc := range []struct {
		rows           int
		queued         bool
		tenant, stream string
	}{{500, true, "t0", "s0"}, {1, false, "a-b_c", "9"}, {1 << 20, true, long, long}} {
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusAccepted, struct {
			Rows   int    `json:"rows"`
			Queued bool   `json:"queued"`
			Stream string `json:"stream"`
		}{tc.rows, tc.queued, tc.tenant + "/" + tc.stream})
		got := httptest.NewRecorder()
		writeIngestReply(got, http.StatusAccepted, tc.rows, tc.queued, tc.tenant, tc.stream)
		if got.Body.String() != want.Body.String() || got.Code != want.Code ||
			got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("reply = %d %q, encoder wrote %d %q", got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// TestSyncIngestErrorReachesCaller closes a stream's estimator under its
// POSTs: the estimator's ProcessSlice error must come back as a 500 naming
// it, with ?sync=1 or without, and ingest_errors must count it.
func TestSyncIngestErrorReachesCaller(t *testing.T) {
	svc := New[float32](Config{})
	defer svc.Close()
	e, _, err := svc.reg.create("t", "s", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.est.Close(); err != nil {
		t.Fatal(err)
	}

	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/streams/t/s/values?sync=1", `[1,2,3]`},
		// Unsynced, the batch is ingested before the reply all the same, so
		// its error reaches its caller too.
		{"/v1/streams/t/s/values", `[4]`},
		{"/v1/streams/t/s/values?sync=1", `[5]`},
	} {
		if rec := post(tc.path, tc.body); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "closed") {
			t.Errorf("POST %s into a closed estimator = %d %s, want 500 naming the closed estimator", tc.path, rec.Code, rec.Body)
		}
	}
	if got := e.ingestErrs.Load(); got != 3 {
		t.Errorf("ingest_errors = %d, want 3", got)
	}
	// Both row totals count what the turn took, refused by the estimator or not.
	if stream, server := e.rows.Load(), svc.ctr.ingestRows.Load(); stream != 5 || server != 5 {
		t.Errorf("rows: stream %d, server %d; want 5 and 5", stream, server)
	}
}
