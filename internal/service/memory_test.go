package service_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"gpustream/internal/pipeline"
	"gpustream/internal/service"
	"gpustream/internal/stream"
)

// heapPerQuantileStream is the most process heap, after a collection, a
// daemon may hold per live quantile stream at the benchmark's svc round
// shape, its frequency streams and the spare store included: 428 KiB
// before bucket spares moved out of the streams into one process-wide
// store, 284 KiB after, 105 KiB since a never-pruned bucket is stored as
// its samples (DESIGN.md §11) and the held window and the frequency merge
// output are borrowed from the store (DESIGN.md §13), 77 KiB since the view
// cache holds its view weakly, so an idle stream pins none (DESIGN.md §11).
// The ceiling is that reading plus 15%.
const heapPerQuantileStream = 89 << 10

// TestDaemonHeapPerStream runs the benchmark's svc round in process: 32
// quantile and 32 frequency streams at eps 1e-3, each sent 129 interleaved
// binary batches of 500 zipf rows, every tenth request a read, then one
// read per stream. It pins the process heap they hold, counted from before
// the server started and with everything the spare store held then
// charged to them too: the benchmark's DELETE delta leaves out whatever
// stays behind in the store, so it cannot tell a saving from a move. It
// then checks that /statsz reports the store's bytes.
func TestDaemonHeapPerStream(t *testing.T) {
	const (
		streams = 64
		batches = 129
		rows    = 500
	)
	values := stream.ZipfOf[float32](streams*rows, 1.2, 1<<14, 1)
	bodies := make([][]byte, streams)
	for i := range bodies {
		for _, v := range values[i*rows : (i+1)*rows] {
			bodies[i] = binary.LittleEndian.AppendUint32(bodies[i], math.Float32bits(v))
		}
	}
	path := func(i int) string { return fmt.Sprintf("/v1/streams/t%d/s%d", i/8, i%8) }
	specs := [2]string{
		`{"family":"quantile","eps":0.001,"backend":"samplesort"}`,
		`{"family":"frequency","eps":0.001,"support":0.01,"backend":"samplesort"}`,
	}
	reads := [2]string{"/quantile?phi=0.5", "/heavyhitters?support=0.01"}

	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties the window-buffer pool's victim cache
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc) - pipeline.SpareBytes()

	svc := service.New[float32](service.Config{})
	serve := func(method, target, ctype string, body []byte) {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		if rec.Code >= 300 {
			t.Fatalf("%s %s = %d %s", method, target, rec.Code, rec.Body)
		}
	}
	for i := range streams {
		serve(http.MethodPut, path(i), "application/json", []byte(specs[i%2]))
	}
	op := 0
	for k := range batches {
		for i := range streams {
			if op++; op%10 == 0 {
				serve(http.MethodGet, path(i)+reads[i%2], "", nil)
			}
			serve(http.MethodPost, path(i)+"/values", "application/octet-stream", bodies[(i*37+k)%streams])
		}
	}
	for i := range streams {
		serve(http.MethodGet, path(i)+reads[i%2], "", nil)
	}

	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := (int64(ms.HeapAlloc) - before) / (streams / 2)
	t.Logf("%d KiB of process heap per live quantile stream; the spare store holds %d KiB", per>>10, pipeline.SpareBytes()>>10)
	if per > heapPerQuantileStream {
		t.Fatalf("%d KiB of process heap per live quantile stream, ceiling %d KiB", per>>10, heapPerQuantileStream>>10)
	}
	runtime.KeepAlive(bodies)

	// /statsz reports what the store holds, so the bytes moved out of the
	// streams stay in view.
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var st service.ServiceStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	if want := pipeline.SpareBytes(); st.SpareBytes != want || want == 0 {
		t.Fatalf("statsz spare_bytes = %d, the store holds %d", st.SpareBytes, want)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}
