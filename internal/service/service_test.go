package service_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"gpustream"
	"gpustream/internal/service"
)

// do issues one request against the test server and returns the status
// code and decoded JSON body.
func do(t *testing.T, client *http.Client, method, url, contentType string, body []byte) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest(%s %s): %v", method, url, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, url, err)
	}
	var decoded map[string]any
	if len(blob) > 0 {
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatalf("%s %s: body %q is not JSON: %v", method, url, blob, err)
		}
	}
	return resp.StatusCode, decoded
}

// newTestServer builds a float32 service and an httptest front end.
func newTestServer(t *testing.T, cfg service.Config) (*service.Server[float32], *httptest.Server) {
	t.Helper()
	svc := service.New[float32](cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		if err := svc.Close(); err != nil {
			t.Errorf("service close: %v", err)
		}
	})
	return svc, ts
}

func specBody(t *testing.T, spec gpustream.Spec) []byte {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	return blob
}

func TestServiceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	client := ts.Client()
	base := ts.URL + "/v1/streams/acme/latency"

	qspec := gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.005, Capacity: 1 << 16, Phis: []float64{0.5, 0.99}}
	if code, body := do(t, client, "PUT", base, "application/json", specBody(t, qspec)); code != http.StatusCreated {
		t.Fatalf("PUT create = %d (%v), want 201", code, body)
	}
	// Idempotent re-PUT of the identical spec.
	if code, _ := do(t, client, "PUT", base, "application/json", specBody(t, qspec)); code != http.StatusOK {
		t.Fatalf("PUT identical = %d, want 200", code)
	}
	// Conflicting spec.
	other := qspec
	other.Eps = 0.1
	if code, _ := do(t, client, "PUT", base, "application/json", specBody(t, other)); code != http.StatusConflict {
		t.Fatalf("PUT conflicting = %d, want 409", code)
	}

	// Ingest 0..9999 synchronously, in batches.
	const n = 10_000
	for lo := 0; lo < n; lo += 2500 {
		vals := make([]float32, 2500)
		for i := range vals {
			vals[i] = float32(lo + i)
		}
		blob, _ := json.Marshal(vals)
		if code, body := do(t, client, "POST", base+"/values?sync=1", "application/json", blob); code != http.StatusOK {
			t.Fatalf("POST sync = %d (%v), want 200", code, body)
		}
	}

	// The median must be eps-approximate over the full ingest.
	code, body := do(t, client, "GET", base+"/quantile?phi=0.5", "", nil)
	if code != http.StatusOK {
		t.Fatalf("GET quantile = %d (%v)", code, body)
	}
	if got := int64(body["count"].(float64)); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	results := body["results"].([]any)
	med := results[0].(map[string]any)
	if !med["ok"].(bool) {
		t.Fatalf("median not ok: %v", med)
	}
	if v := med["value"].(float64); math.Abs(v-n/2) > 0.005*n+1 {
		t.Errorf("median = %v, want within %v of %v", v, 0.005*n+1, n/2)
	}

	// Default probes come from the spec's phis.
	if _, body := do(t, client, "GET", base+"/quantile", "", nil); len(body["results"].([]any)) != 2 {
		t.Errorf("default probes = %v, want the spec's two phis", body["results"])
	}

	// Stream info reflects the ingest.
	if code, body := do(t, client, "GET", base, "", nil); code != http.StatusOK ||
		int64(body["rows"].(float64)) != n || int64(body["count"].(float64)) != n {
		t.Errorf("GET info = %d %v, want rows=count=%d", code, body, n)
	}

	// statsz sees the stream and its estimator telemetry.
	code, body = do(t, client, "GET", ts.URL+"/statsz", "", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /statsz = %d", code)
	}
	if got := int(body["streams_total"].(float64)); got != 1 {
		t.Errorf("statsz streams_total = %d, want 1", got)
	}
	if got := int64(body["ingest_rows"].(float64)); got != n {
		t.Errorf("statsz ingest_rows = %d, want %d", got, n)
	}
	streamRep := body["streams"].([]any)[0].(map[string]any)
	ests := streamRep["estimators"].([]any)
	if len(ests) != 1 || ests[0].(map[string]any)["Kind"] != "quantile" {
		t.Errorf("statsz estimators = %v, want one quantile", ests)
	}
	// The spec named no backend: the tenant runs on the host-native sorter.
	if got := ests[0].(map[string]any)["Backend"]; got != "samplesort" {
		t.Errorf("statsz backend of a backend-less spec = %v, want samplesort", got)
	}
	if fam := streamRep["spec"].(map[string]any)["family"]; fam != "quantile" {
		t.Errorf("statsz spec family = %v, want the string form", fam)
	}

	// healthz is serving.
	if code, body := do(t, client, "GET", ts.URL+"/healthz", "", nil); code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("GET /healthz = %d %v", code, body)
	}

	// DELETE drains and removes.
	code, body = do(t, client, "DELETE", base, "", nil)
	if code != http.StatusOK {
		t.Fatalf("DELETE = %d (%v)", code, body)
	}
	if got := int64(body["count"].(float64)); got != n {
		t.Errorf("DELETE count = %d, want %d", got, n)
	}
	if code, _ := do(t, client, "GET", base, "", nil); code != http.StatusNotFound {
		t.Errorf("GET after DELETE = %d, want 404", code)
	}
}

func TestServiceErrors(t *testing.T) {
	spill := t.TempDir()
	_, ts := newTestServer(t, service.Config{MaxBatchRows: 100, SpillDir: spill})
	client := ts.Client()
	base := ts.URL + "/v1/streams/acme"

	fspec := gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 0.01, Support: 0.05}
	if code, _ := do(t, client, "PUT", base+"/hits", "application/json", specBody(t, fspec)); code != http.StatusCreated {
		t.Fatalf("PUT = %d", code)
	}

	cases := []struct {
		name       string
		method     string
		url        string
		body       []byte
		wantStatus int
	}{
		{"unknown stream query", "GET", base + "/nope/quantile", nil, 404},
		{"unknown tenant query", "GET", ts.URL + "/v1/streams/ghost/hits/frequency?v=1", nil, 404},
		{"unknown stream ingest", "POST", base + "/nope/values", []byte(`[1]`), 404},
		{"unknown stream delete", "DELETE", base + "/nope", nil, 404},
		{"bad spec json", "PUT", base + "/bad", []byte(`{not json`), 400},
		{"bad spec missing eps", "PUT", base + "/bad", []byte(`{"family":"quantile"}`), 400},
		{"bad spec unknown family", "PUT", base + "/bad", []byte(`{"family":"florble","eps":0.01}`), 400},
		{"bad spec unknown field", "PUT", base + "/bad", []byte(`{"family":"quantile","eps":0.01,"bogus":1}`), 400},
		{"bad name", "PUT", ts.URL + "/v1/streams/acme/bad..name", specBody(t, fspec), 400},
		{"oversized batch", "POST", base + "/hits/values", []byte("[" + strings.Repeat("1,", 100) + "1]"), 413},
		{"empty batch", "POST", base + "/hits/values", []byte(`[]`), 400},
		{"non-numeric batch", "POST", base + "/hits/values", []byte(`["a"]`), 400},
		{"null batch", "POST", base + "/hits/values", []byte(`null`), 400},
		{"second array after the batch", "POST", base + "/hits/values", []byte(`[1,2][3]`), 400},
		{"garbage after the batch", "POST", base + "/hits/values", []byte(`[1,2]garbage`), 400},
		{"quoted numbers batch", "POST", base + "/hits/values", []byte(`["1","2"]`), 400},
		{"whitespace after the batch", "POST", base + "/hits/values", []byte("[1,2] \r\n"), 202},
		{"quantile on frequency family", "GET", base + "/hits/quantile?phi=0.5", nil, 400},
		{"bad phi", "GET", base + "/hits/frequency?v=abc", nil, 400},
		{"missing frequency value", "GET", base + "/hits/frequency", nil, 400},
		{"bad support", "GET", base + "/hits/heavyhitters?support=2", nil, 400},
		{"bad delete timeout", "DELETE", base + "/hits?timeout=banana", nil, 400},
	}
	check := func(name, method, url, contentType string, reqBody []byte, want int) {
		t.Run(name, func(t *testing.T) {
			code, body := do(t, client, method, url, contentType, reqBody)
			if code != want {
				t.Errorf("%s %s = %d (%v), want %d", method, url, code, body, want)
			}
			if code >= 400 {
				if _, ok := body["error"]; !ok {
					t.Errorf("%s %s: error body %v has no error field", method, url, body)
				}
			} else if body == nil {
				t.Errorf("%s %s = %d with an empty body", method, url, code)
			}
		})
	}
	for _, tc := range cases {
		check(tc.name, tc.method, tc.url, "application/json", tc.body, tc.wantStatus)
	}

	// Non-finite numbers. NaN fails every range comparison, strconv parses
	// "NaN" and "Inf", and binary rows can hold either; each of these used
	// to answer 200 with an empty body, the encoder having refused the NaN
	// or ±Inf in the reply. The quantile stream is probed afterwards: the
	// rejected rows must not have reached it.
	qlat := gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01}
	if code, _ := do(t, client, "PUT", base+"/lat", "application/json", specBody(t, qlat)); code != http.StatusCreated {
		t.Fatalf("PUT quantile stream = %d", code)
	}
	inf := math.Float32bits(float32(math.Inf(1)))
	infRows := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, inf), inf)
	for _, tc := range []struct {
		name, method, url, contentType string
		body                           []byte
		wantStatus                     int
	}{
		{"NaN phi", "GET", base + "/lat/quantile?phi=NaN", "", nil, 400},
		{"NaN support", "GET", base + "/hits/heavyhitters?support=NaN", "", nil, 400},
		{"infinite binary rows", "POST", base + "/lat/values?sync=1", "application/octet-stream", infRows, 400},
		{"NaN frequency value", "GET", base + "/hits/frequency?v=NaN", "", nil, 400},
		{"infinite frequency value", "GET", base + "/hits/frequency?v=-Inf", "", nil, 400},
		{"maximum after the rejected rows", "GET", base + "/lat/quantile?phi=1", "", nil, 200},
	} {
		check(tc.name, tc.method, tc.url, tc.contentType, tc.body, tc.wantStatus)
	}

	// Specs whose window buffer is past the bound. Each used to reach the
	// constructor: out of memory, which killed the daemon, or a makeslice
	// panic under the registry lock, which wedged every later request. A
	// well-formed PUT after them must still create.
	for _, tc := range []struct{ name, spec string }{
		{"sort window past the buffer bound", `{"family":"frequency","eps":0.001,"window":1099511627776}`},
		{"frequency eps past the buffer bound", `{"family":"frequency","eps":1e-12}`},
		{"quantile eps past the buffer bound", `{"family":"quantile","eps":1e-13}`},
		{"sliding pane past the buffer bound", `{"family":"sliding-quantile","eps":0.5,"window":4611686018427387904}`},
	} {
		check(tc.name, "PUT", base+"/huge", "application/json", []byte(tc.spec), 400)
	}
	check("well-formed PUT after the rejected specs", "PUT", base+"/huge", "application/json", specBody(t, qlat), 201)

	// The rejected DELETE above must have left the stream alone: still
	// there, its rows intact, and a well-formed DELETE still drains and
	// spills it.
	if code, body := do(t, client, "POST", base+"/hits/values?sync=1", "application/json", []byte(`[7,7,7]`)); code != http.StatusOK {
		t.Fatalf("POST after the rejected DELETE = %d (%v), want 200", code, body)
	}
	code, info := do(t, client, "GET", base+"/hits", "", nil)
	if code != http.StatusOK || info["rows"] != 5.0 || info["count"] != 5.0 {
		t.Fatalf("GET after the rejected DELETE = %d %v, want 200 with rows=count=5", code, info)
	}
	if code, body := do(t, client, "DELETE", base+"/hits?timeout=5s", "", nil); code != http.StatusOK || body["rows"] != 5.0 || body["count"] != 5.0 {
		t.Errorf("DELETE ?timeout=5s = %d %v, want 200 with rows=count=5", code, body)
	}
	if blob, err := os.ReadFile(filepath.Join(spill, "acme.hits.snap")); err != nil {
		t.Errorf("deleted stream was not spilled: %v", err)
	} else if snap, err := gpustream.UnmarshalSnapshot[float32](blob); err != nil || snap.Count() != 5 {
		t.Errorf("spilled snapshot: %v, %v; want 5 rows", snap, err)
	}

	// Quantile probes against a quantile stream created under a second
	// tenant: phis on a frequency family were rejected above, and tenant
	// namespaces are independent — same stream name, no conflict.
	qspec := gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01}
	if code, _ := do(t, client, "PUT", ts.URL+"/v1/streams/other/hits", "application/json", specBody(t, qspec)); code != http.StatusCreated {
		t.Errorf("PUT same stream name under another tenant should create, got %d", code)
	}
	if code, _ := do(t, client, "GET", ts.URL+"/v1/streams/other/hits/quantile?phi=1.5", "", nil); code != 400 {
		t.Errorf("phi out of range = %d, want 400", code)
	}
	if code, _ := do(t, client, "GET", ts.URL+"/v1/streams/other/hits/heavyhitters?support=0.1", "", nil); code != 400 {
		t.Errorf("heavyhitters on quantile family = %d, want 400", code)
	}
}

// TestServiceBodyLimit pins the body cap on the pooled read path: a body past
// MaxBodyBytes is a 413 naming the body whether or not its length was
// declared, and the buffer it went through serves the next request intact.
func TestServiceBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxBodyBytes: 256})
	client := ts.Client()
	url := ts.URL + "/v1/streams/cap/s"
	if code, _ := do(t, client, "PUT", url, "application/json", []byte(`{"family":"quantile","eps":0.01}`)); code != http.StatusCreated {
		t.Fatalf("PUT = %d", code)
	}
	big := []byte("[1" + strings.Repeat(" ", 300) + "]")
	for _, declared := range []bool{true, false} {
		var rd io.Reader = bytes.NewReader(big)
		if !declared {
			rd = io.MultiReader(rd) // hides the length: chunked, ContentLength -1
		}
		req, _ := http.NewRequest("POST", url+"/values", rd)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "batch body") {
			t.Errorf("oversized body (length declared: %v) = %d %s, want 413 naming the body", declared, resp.StatusCode, msg)
		}
	}
	if code, body := do(t, client, "POST", url+"/values?sync=1", "application/json", []byte(`[1,2,3]`)); code != http.StatusOK || int(body["rows"].(float64)) != 3 {
		t.Errorf("POST after the oversized ones = %d %v, want 200 with 3 rows", code, body)
	}
}

func TestServiceBinaryIngest(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	client := ts.Client()
	base := ts.URL + "/v1/streams/bin/hits"

	spec := gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 0.001, Support: 0.2}
	if code, _ := do(t, client, "PUT", base, "application/json", specBody(t, spec)); code != http.StatusCreated {
		t.Fatalf("PUT = %d", code)
	}

	// 700 copies of 7.5 and 300 of 2.25, as raw little-endian float32 rows.
	var rows []byte
	for i := 0; i < 1000; i++ {
		v := float32(7.5)
		if i%10 < 3 {
			v = 2.25
		}
		rows = binary.LittleEndian.AppendUint32(rows, math.Float32bits(v))
	}
	code, body := do(t, client, "POST", base+"/values?sync=1", "application/octet-stream", rows)
	if code != http.StatusOK || int(body["rows"].(float64)) != 1000 {
		t.Fatalf("binary POST = %d (%v)", code, body)
	}

	code, body = do(t, client, "GET", base+"/heavyhitters", "", nil)
	if code != http.StatusOK {
		t.Fatalf("GET heavyhitters = %d", code)
	}
	items := body["items"].([]any)
	if len(items) != 2 {
		t.Fatalf("heavy hitters = %v, want both values", items)
	}
	top := items[0].(map[string]any)
	if top["value"].(float64) != 7.5 || int64(top["freq"].(float64)) != 700 {
		t.Errorf("top hitter = %v, want 7.5 x700", top)
	}

	code, body = do(t, client, "GET", base+"/frequency?v=2.25", "", nil)
	if code != http.StatusOK || int64(body["freq"].(float64)) != 300 {
		t.Errorf("frequency probe = %d %v, want 300", code, body)
	}

	// A binary body that is not a whole number of rows is rejected.
	if code, _ := do(t, client, "POST", base+"/values", "application/octet-stream", rows[:5]); code != 400 {
		t.Errorf("ragged binary body = %d, want 400", code)
	}
}

// TestServiceDrainSpill pins the shutdown contract: Drain closes every
// estimator (all CloseContext paths return), spills final snapshots that
// unmarshal to the ingested answers, and the goroutine count returns to
// baseline.
func TestServiceDrainSpill(t *testing.T) {
	spill := t.TempDir()
	baseline := runtime.NumGoroutine()
	svc := service.New[float32](service.Config{SpillDir: spill})
	ts := httptest.NewServer(svc)
	client := ts.Client()

	// One stream per representative family shape: serial quantile, async
	// sharded quantile, frequency, frugal.
	specs := map[string]gpustream.Spec{
		"quant":    {Family: gpustream.FamilyQuantile, Eps: 0.005},
		"parallel": {Family: gpustream.FamilyParallelQuantile, Eps: 0.005, Shards: 2, Async: gpustream.AsyncOn},
		"hits":     {Family: gpustream.FamilyFrequency, Eps: 0.005, Support: 0.01},
		"frugal":   {Family: gpustream.FamilyFrugal, Phis: []float64{0.5}},
	}
	const n = 4000
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	blob, _ := json.Marshal(vals)
	for name, spec := range specs {
		url := ts.URL + "/v1/streams/drain/" + name
		if code, _ := do(t, client, "PUT", url, "application/json", specBody(t, spec)); code != http.StatusCreated {
			t.Fatalf("PUT %s = %d", name, code)
		}
		// Unsynced post: the 202 alone must put the batch in the spill.
		if code, _ := do(t, client, "POST", url+"/values", "application/json", blob); code != http.StatusAccepted {
			t.Fatalf("POST %s = %d", name, code)
		}
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	// healthz flips to draining after shutdown begins.
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", rec.Code)
	}
	// Stream operations are rejected during/after drain.
	rec = httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/streams/drain/quant/quantile", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("stream op during drain = %d, want 503", rec.Code)
	}

	// Every spilled snapshot unmarshals and covers the full ingest.
	for name := range specs {
		path := filepath.Join(spill, "drain."+name+".snap")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("spill file %s: %v", name, err)
		}
		snap, err := gpustream.UnmarshalSnapshot[float32](blob)
		if err != nil {
			t.Fatalf("unmarshal spill %s: %v", name, err)
		}
		if snap.Count() != n {
			t.Errorf("spill %s covers %d rows, want %d", name, snap.Count(), n)
		}
	}

	// All shard/stage goroutines are gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:m])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServiceLRUEviction(t *testing.T) {
	spill := t.TempDir()
	_, ts := newTestServer(t, service.Config{MaxStreams: 2, SpillDir: spill})
	client := ts.Client()
	spec := gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01}

	for i, name := range []string{"a", "b"} {
		url := fmt.Sprintf("%s/v1/streams/t/%s", ts.URL, name)
		if code, _ := do(t, client, "PUT", url, "application/json", specBody(t, spec)); code != http.StatusCreated {
			t.Fatalf("PUT %d = %d", i, code)
		}
		// Deterministic LRU order.
		time.Sleep(5 * time.Millisecond)
	}
	// Touch "a" so "b" is the LRU victim.
	if code, _ := do(t, client, "POST", ts.URL+"/v1/streams/t/a/values?sync=1", "application/json", []byte(`[1,2,3]`)); code != http.StatusOK {
		t.Fatal("touch a failed")
	}
	if code, _ := do(t, client, "PUT", ts.URL+"/v1/streams/t/c", "application/json", specBody(t, spec)); code != http.StatusCreated {
		t.Fatal("PUT c failed")
	}

	if code, _ := do(t, client, "GET", ts.URL+"/v1/streams/t/b", "", nil); code != http.StatusNotFound {
		t.Errorf("evicted stream b still there (= %d)", code)
	}
	if code, _ := do(t, client, "GET", ts.URL+"/v1/streams/t/a", "", nil); code != http.StatusOK {
		t.Errorf("stream a evicted, want b")
	}
	if _, err := os.Stat(filepath.Join(spill, "t.b.snap")); err != nil {
		t.Errorf("evicted stream b was not spilled: %v", err)
	}

	code, body := do(t, client, "GET", ts.URL+"/statsz", "", nil)
	if code != http.StatusOK || int64(body["evictions"].(float64)) != 1 {
		t.Errorf("statsz evictions = %v, want 1", body["evictions"])
	}
}

func TestServiceIdleEviction(t *testing.T) {
	_, ts := newTestServer(t, service.Config{
		IdleTTL:       50 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	client := ts.Client()
	spec := gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 0.01, Support: 0.1}
	if code, _ := do(t, client, "PUT", ts.URL+"/v1/streams/t/idle", "application/json", specBody(t, spec)); code != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		code, _ := do(t, client, "GET", ts.URL+"/v1/streams/t/idle", "", nil)
		if code == http.StatusNotFound {
			break // evicted
		}
		if time.Now().After(deadline) {
			t.Fatal("idle stream was never evicted")
		}
		// Note each GET touches the stream, so back off beyond the TTL.
		time.Sleep(120 * time.Millisecond)
	}
}

// TestServiceSpillNamesDoNotCollide is the regression test for spill files
// shared across tenants: with an in-alphabet separator ("__"), (tenant "a_",
// stream "b") and (tenant "a", stream "_b") both spilled to a___b.snap and
// the later drain overwrote the earlier tenant's history. Each pair must keep
// its own file, holding its own row count.
func TestServiceSpillNamesDoNotCollide(t *testing.T) {
	spill := t.TempDir()
	svc := service.New[float32](service.Config{SpillDir: spill})
	ts := httptest.NewServer(svc)
	client := ts.Client()
	spec := specBody(t, gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01})

	rows := map[[2]string]int{{"a_", "b"}: 3, {"a", "_b"}: 5}
	for pair, n := range rows {
		url := fmt.Sprintf("%s/v1/streams/%s/%s", ts.URL, pair[0], pair[1])
		if code, _ := do(t, client, "PUT", url, "application/json", spec); code != http.StatusCreated {
			t.Fatalf("PUT %v = %d", pair, code)
		}
		body, _ := json.Marshal(make([]float32, n))
		if code, _ := do(t, client, "POST", url+"/values?sync=1", "application/json", body); code != http.StatusOK {
			t.Fatalf("POST %v = %d", pair, code)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	files, err := filepath.Glob(filepath.Join(spill, "*.snap"))
	if err != nil || len(files) != len(rows) {
		t.Fatalf("spill holds %d files %v (err %v), want one per stream (%d)", len(files), files, err, len(rows))
	}
	var got []int
	for _, path := range files {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := gpustream.UnmarshalSnapshot[float32](blob)
		if err != nil {
			t.Fatalf("unmarshal %s: %v", path, err)
		}
		got = append(got, int(snap.Count()))
	}
	sort.Ints(got)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("spilled row counts %v, want [3 5]: one tenant's history was overwritten", got)
	}
}

// spillStream runs a daemon spilling to dir, sends the stream acme/hits
// rows values and drains it, returning the drain's error: one spill of
// acme.hits.snap over rows values.
func spillStream(t *testing.T, dir string, rows int) error {
	t.Helper()
	svc := service.New[float32](service.Config{SpillDir: dir})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	url := ts.URL + "/v1/streams/acme/hits"
	spec := specBody(t, gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01})
	if code, _ := do(t, ts.Client(), "PUT", url, "application/json", spec); code != http.StatusCreated {
		t.Fatalf("PUT = %d", code)
	}
	body, _ := json.Marshal(make([]float32, rows))
	if code, _ := do(t, ts.Client(), "POST", url+"/values?sync=1", "application/json", body); code != http.StatusOK {
		t.Fatalf("POST = %d", code)
	}
	return svc.Close()
}

// spilledRows decodes a spill file and reports the rows it covers.
func spilledRows(t *testing.T, path string) int64 {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := gpustream.UnmarshalSnapshot[float32](blob)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", path, err)
	}
	return snap.Count()
}

// TestServiceRespillReplaces: a second spill of the same stream replaces
// the first through a temp file it renames away, so the directory holds
// only the latest snapshot.
func TestServiceRespillReplaces(t *testing.T) {
	dir := t.TempDir()
	for _, rows := range []int{3, 5} {
		if err := spillStream(t, dir, rows); err != nil {
			t.Fatalf("spill of %d rows: %v", rows, err)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("spill left temp files %v", tmps)
	}
	if got := spilledRows(t, filepath.Join(dir, "acme.hits.snap")); got != 5 {
		t.Fatalf("spill covers %d rows, want the latest snapshot's 5", got)
	}
}

// TestServiceFailedSpillKeepsPrevious: a spill that fails before its
// rename leaves the previous spill byte for byte, and no temp file. The
// failure is a write to a temp file opened read-only. (os.WriteFile
// truncated the previous spill before writing, so a failed write lost it.)
func TestServiceFailedSpillKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "acme.hits.snap")
	if err := spillStream(t, dir, 3); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer service.SetCreateTemp(func(dir, pattern string) (*os.File, error) {
		f, err := os.CreateTemp(dir, pattern)
		if err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		return os.Open(f.Name())
	})()
	if err := spillStream(t, dir, 5); err == nil {
		t.Fatal("spill through a read-only temp file reported no error")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("previous spill changed (%d bytes -> %d, error %v)", len(before), len(after), err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed spill left temp files %v", tmps)
	}
}

// TestServiceWideIntegerAnswers: a 64-bit integer daemon writes answer
// values exactly. 2^53+1 has no float64, so a reply that went through one
// would say 2^53 — a value the stream never saw.
func TestServiceWideIntegerAnswers(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { checkWideAnswers[uint64](t, 1<<53+1) })
	t.Run("int64", func(t *testing.T) { checkWideAnswers[int64](t, -(1<<53 + 1)) })
}

func checkWideAnswers[T uint64 | int64](t *testing.T, v T) {
	svc := service.New[T](service.Config{})
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		if err := svc.Close(); err != nil {
			t.Errorf("service close: %v", err)
		}
	})
	client := ts.Client()
	lit := fmt.Sprint(v)
	var rows []byte
	for i := 0; i < 1000; i++ {
		rows = binary.LittleEndian.AppendUint64(rows, uint64(v))
	}
	get := func(url string) string {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d %s, %v", url, resp.StatusCode, body, err)
		}
		return string(body)
	}
	for _, c := range []struct {
		family  gpustream.Family
		queries []string
	}{
		{gpustream.FamilyQuantile, []string{"/quantile?phi=0.5"}},
		{gpustream.FamilyFrequency, []string{"/heavyhitters?support=0.5", "/frequency?v=" + lit}},
	} {
		base := ts.URL + "/v1/streams/wide/" + c.family.String()
		spec := gpustream.Spec{Family: c.family, Eps: 0.01}
		if code, body := do(t, client, "PUT", base, "application/json", specBody(t, spec)); code != http.StatusCreated {
			t.Fatalf("PUT %v = %d %v", c.family, code, body)
		}
		if code, body := do(t, client, "POST", base+"/values?sync=1", "application/octet-stream", rows); code != http.StatusOK {
			t.Fatalf("POST %v = %d %v", c.family, code, body)
		}
		for _, q := range c.queries {
			if body := get(base + q); !strings.Contains(body, `"value":`+lit+`,`) {
				t.Errorf("%s answered %s; want the value written as %s", q, strings.TrimSpace(body), lit)
			}
		}
	}
}
