package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// checkNumber decodes the batch [lit] as T and holds it to parseValue on the
// literal alone: the same bits, or the same error at the element's offset.
// It is the check that sorter.FromDecimal's shortcut changes nothing.
func checkNumber[T gpustream.Value](t *testing.T, lit string) {
	t.Helper()
	got, err := decodeJSONValues[T](nil, []byte("["+lit+"]"))
	want, wantErr := parseValue[T](lit)
	if wantErr != nil {
		if msg := fmt.Sprintf("offset 1: element 0: %v", wantErr); err == nil || err.Error() != msg {
			t.Errorf("%T %s: decoded %v, %v; want error %q", want, lit, got, err, msg)
		}
		return
	}
	if err != nil || len(got) != 1 || sorter.Bits(got[0]) != sorter.Bits(want) {
		t.Errorf("%T %s: decoded %v, %v; parseValue %v (%#x)", want, lit, got, err, want, sorter.Bits(want))
	}
}

func checkNumberAllTypes(t *testing.T, lit string) {
	t.Helper()
	checkNumber[float32](t, lit)
	checkNumber[float64](t, lit)
	checkNumber[uint32](t, lit)
	checkNumber[uint64](t, lit)
	checkNumber[int32](t, lit)
	checkNumber[int64](t, lit)
}

// jsonNumber builds a JSON number literal from separate fields, so that a
// fuzzer changing one of them walks the exact path's bounds: the sign; the
// integer digits, leading zeros dropped ("0" when none are left); the
// fraction's leading zeros and its other digits (no fraction when both are
// empty); and the exponent, none when expForm%7 is 0, else its letter's
// case and sign. Digit strings may hold any bytes: b stands for the digit
// (b-'0') mod 10, so a digit stands for itself.
func jsonNumber(neg bool, intDigits string, fracZeros uint8, fracDigits string, expForm uint8, exp uint32) string {
	digits := func(s string) string {
		b := []byte(s)
		for i := range b {
			b[i] = '0' + (b[i]-'0')%10
		}
		return string(b)
	}
	var sb strings.Builder
	if neg {
		sb.WriteByte('-')
	}
	if in := strings.TrimLeft(digits(intDigits), "0"); in != "" {
		sb.WriteString(in)
	} else {
		sb.WriteByte('0')
	}
	if frac := strings.Repeat("0", int(fracZeros)) + digits(fracDigits); frac != "" {
		sb.WriteString("." + frac)
	}
	if f := expForm % 7; f != 0 {
		sb.WriteString([]string{"e", "E"}[f%2] + []string{"", "+", "-"}[(f-1)/2%3] + strconv.FormatUint(uint64(exp), 10))
	}
	return sb.String()
}

// numberFields is jsonNumber's inverse on the literals it builds, to write
// FuzzJSONNumber's seeds as literals.
func numberFields(lit string) (neg bool, intDigits string, fracZeros uint8, fracDigits string, expForm uint8, exp uint32) {
	lit, neg = strings.CutPrefix(lit, "-")
	if k := strings.IndexAny(lit, "eE"); k >= 0 {
		form := map[string]uint8{"e": 2, "E": 1, "e+": 4, "E+": 3, "e-": 6, "E-": 5}
		x := strings.TrimLeft(lit[k+1:], "+-")
		expForm = form[lit[k:len(lit)-len(x)]]
		e, _ := strconv.ParseUint(x, 10, 32)
		lit, exp = lit[:k], uint32(e)
	}
	intDigits, frac, _ := strings.Cut(lit, ".")
	fracDigits = strings.TrimLeft(frac, "0")
	return neg, intDigits, uint8(len(frac) - len(fracDigits)), fracDigits, expForm, exp
}

// numberSeeds sit on the bounds of sorter.FromDecimal's cases: float32's
// 2^24 and 10^±10, float64's 2^53 and 10^±22, the 19 significant digits a
// Decimal holds, and the integer types' ranges.
var numberSeeds = []string{
	"16777216", "16777217", "-16777217", "1.6777216e7", "16777217e1", "9007199254740992", "9007199254740993",
	"1e10", "1e11", "1e-10", "1e-11", "3e10", "3e11", "3E-10", "3e-11", "1e22", "1e23", "1e-22", "1e-23", "3e22", "3e-23",
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "1.234567890123456789", "1.2345678901234567890",
	"9223372036854775806", "9223372036854775807", "9223372036854775808", "-9223372036854775807",
	"-9223372036854775808", "-9223372036854775809",
	"18446744073709551614", "18446744073709551615", "18446744073709551616",
	"2147483647", "2147483648", "-2147483648", "-2147483649", "4294967295", "4294967296",
	"0", "-0", "-0.0", "0e999", "-0e+999", "1e-46", "0.0000000000001", "1.0000000000000000000", "1.5", "1e0", "12.5E-1",
}

func FuzzJSONNumber(f *testing.F) {
	for _, lit := range numberSeeds {
		if got := jsonNumber(numberFields(lit)); got != lit {
			f.Fatalf("seed %s builds %s", lit, got)
		}
		neg, in, zeros, frac, form, exp := numberFields(lit)
		f.Add(neg, in, zeros, frac, form, exp)
	}
	f.Fuzz(func(t *testing.T, neg bool, intDigits string, fracZeros uint8, fracDigits string, expForm uint8, exp uint32) {
		checkNumberAllTypes(t, jsonNumber(neg, intDigits, fracZeros, fracDigits, expForm, exp))
	})
}

// TestJSONNumberExactness holds decodeJSONValues to parseValue, bit for bit
// and for all six types, where sorter.FromDecimal's bounds are tight: every
// integer near 2^24 and 2^53, k·10^e in both spellings for k on the bounds
// and e in -25..25, and seeded random literals of at most 9 significant
// digits, the most a float32's shortest form needs.
func TestJSONNumberExactness(t *testing.T) {
	for _, lit := range numberSeeds {
		checkNumberAllTypes(t, lit)
	}
	for _, c := range []struct{ base, reach uint64 }{{1 << 24, 4096}, {1 << 53, 1024}} {
		for v := c.base - c.reach; v <= c.base+c.reach; v++ {
			lit := strconv.FormatUint(v, 10)
			checkNumberAllTypes(t, lit)
			checkNumberAllTypes(t, "-"+lit)
		}
	}

	ks := []uint64{1, 2, 3, 5, 7, 9, 17, 123, 4095, 65535, 999999, 8388607, 8388609, 16777215, 16777216, 16777217,
		33554431, 123456789, 2147483647, 2147483648, 4294967295, 4294967296,
		9007199254740991, 9007199254740992, 9007199254740993, 1<<63 - 1, 1 << 63, 1<<64 - 1}
	for _, k := range ks {
		for e := -25; e <= 25; e++ {
			for _, lit := range []string{fmt.Sprintf("%de%d", k, e), positional(k, e)} {
				checkNumberAllTypes(t, lit)
				checkNumberAllTypes(t, "-"+lit)
			}
		}
	}

	r := stream.NewRNG(40)
	for range 100_000 {
		checkNumberAllTypes(t, randomLiteral(r))
	}
}

// positional spells k·10^e without an exponent: k and e zeros, or k's digits
// with a point placed e from the right (after "0." and zeros if need be).
func positional(k uint64, e int) string {
	s := strconv.FormatUint(k, 10)
	if e >= 0 {
		return s + strings.Repeat("0", e)
	}
	if p := len(s) + e; p > 0 {
		return s[:p] + "." + s[p:]
	}
	return "0." + strings.Repeat("0", -e-len(s)) + s
}

// randomLiteral draws a JSON number of 1-9 significant digits: a random
// sign, a point anywhere in or ahead of the digits (or none), and an
// exponent in -30..30 in any spelling (or none).
func randomLiteral(r *stream.RNG) string {
	k := uint64(1 + r.Intn(9))
	for range r.Intn(9) {
		k = k*10 + uint64(r.Intn(10))
	}
	lit := positional(k, r.Intn(12)-11)
	if r.Intn(4) == 0 {
		lit = strconv.FormatUint(k, 10)
	}
	if r.Intn(2) == 0 {
		lit += []string{"e", "E", "e+", "E+", "e-", "E-"}[r.Intn(6)] + strconv.Itoa(r.Intn(31))
	}
	if r.Intn(2) == 0 {
		lit = "-" + lit
	}
	return lit
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

// BenchmarkDecodeJSON decodes three POST bodies of benchRows rows: the zipf
// integers the svc-* workloads send, and full-precision float32 and float64
// uniforms (json.Marshal's shortest forms, up to 9 and 17 significant
// digits), whose literals often need strconv. exact/row is the share of a
// body's literals sorter.FromDecimal finishes without it.
func BenchmarkDecodeJSON(b *testing.B) {
	zipf, _ := benchBodies(b)
	b.Run("zipf", func(b *testing.B) { benchDecodeJSON[float32](b, zipf) })
	b.Run("f32", func(b *testing.B) { benchDecodeJSON[float32](b, marshal(b, stream.UniformOf[float32](benchRows, 1))) })
	b.Run("f64", func(b *testing.B) { benchDecodeJSON[float64](b, marshal(b, stream.UniformOf[float64](benchRows, 1))) })
}

func benchDecodeJSON[T gpustream.Value](b *testing.B, body []byte) {
	var dst []T
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		dst, _ = decodeJSONValues(dst, body)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
	b.ReportMetric(exactShare[T](b, body), "exact/row")
}

func marshal[T gpustream.Value](tb testing.TB, vals []T) []byte {
	body, err := json.Marshal(vals)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// exactShare walks a JSON array of numbers as decodeJSONValues does and
// reports the share of its literals sorter.FromDecimal takes as T.
func exactShare[T gpustream.Value](tb testing.TB, body []byte) float64 {
	exact, n := 0, 0
	for i := 1; i < len(body) && body[i-1] != ']'; i++ {
		end, d := scanNumber(body, i)
		if end < 0 {
			tb.Fatalf("offset %d: not a number", i)
		}
		if _, ok := sorter.FromDecimal[T](d); ok {
			exact++
		}
		n, i = n+1, end
	}
	return float64(exact) / float64(n)
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

// TestHealthzNamesDegradedStreams: a stream whose estimator refused a batch
// turns /healthz's status to "degraded" and is named in its sorted
// unhealthy list, while the code stays 200; draining still answers 503.
func TestHealthzNamesDegradedStreams(t *testing.T) {
	svc := New[float32](Config{})
	defer svc.Close()
	health := func() (int, map[string]any) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("healthz body %q: %v", rec.Body, err)
		}
		return rec.Code, body
	}
	spec := gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01}
	var broken []*entry[float32]
	for _, name := range [][2]string{{"zeta", "b"}, {"alpha", "ok"}, {"alpha", "z"}} {
		e, _, err := svc.reg.create(name[0], name[1], spec)
		if err != nil {
			t.Fatal(err)
		}
		if name[1] != "ok" {
			broken = append(broken, e)
		}
	}
	if code, body := health(); code != http.StatusOK || body["status"] != "ok" || body["unhealthy"] != nil || body["streams"] != 3.0 {
		t.Fatalf("healthz before any refused batch = %d %v", code, body)
	}

	for _, e := range broken {
		if err := e.est.Close(); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/streams/"+e.tenant+"/"+e.stream+"/values", strings.NewReader(`[1]`)))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("POST into a closed estimator = %d", rec.Code)
		}
	}
	code, body := health()
	if code != http.StatusOK || body["status"] != "degraded" || fmt.Sprint(body["unhealthy"]) != "[alpha/z zeta/b]" {
		t.Fatalf("healthz after refused batches = %d %v, want 200 degraded naming alpha/z and zeta/b", code, body)
	}

	svc.draining.Store(true)
	if code, body := health(); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("healthz while draining = %d %v", code, body)
	}
}
