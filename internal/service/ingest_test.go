package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpustream"
)

// TestDrainDeadlineKeepsAcknowledgedRows acknowledges a run of unsynced
// POSTs and then deletes the stream with a 1 ms deadline: the DELETE reply
// and the spilled snapshot must count every acknowledged row. A deadline
// may cut a drain short, never a batch a POST was answered 202 for.
func TestDrainDeadlineKeepsAcknowledgedRows(t *testing.T) {
	spill := t.TempDir()
	svc := New[float32](Config{SpillDir: spill})
	defer svc.Close()
	serve := func(method, path, ctype string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		return rec
	}
	if rec := serve("PUT", "/v1/streams/t/s", "application/json", []byte(`{"family":"quantile","eps":0.01}`)); rec.Code != http.StatusCreated {
		t.Fatalf("PUT = %d %s", rec.Code, rec.Body)
	}

	// Binary rows decode for next to nothing, so the POSTs come as fast as
	// the estimator can take them.
	const posts, rows = 40, 20_000
	var body []byte
	for i := range rows {
		body = binary.LittleEndian.AppendUint32(body, math.Float32bits(float32(i)))
	}
	for i := range posts {
		if rec := serve("POST", "/v1/streams/t/s/values", "application/octet-stream", body); rec.Code != http.StatusAccepted {
			t.Fatalf("POST %d = %d %s", i, rec.Code, rec.Body)
		}
	}

	const want = posts * rows
	rec := serve("DELETE", "/v1/streams/t/s?timeout=1ms", "", nil)
	var reply struct{ Rows, Count int64 }
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); rec.Code != http.StatusOK || err != nil || reply.Rows != want || reply.Count != want {
		t.Errorf("DELETE ?timeout=1ms = %d %s, want 200 with rows = count = %d", rec.Code, rec.Body, want)
	}
	blob, err := os.ReadFile(filepath.Join(spill, "t.s.snap"))
	if err != nil {
		t.Fatalf("no spill: %v", err)
	}
	snap, err := gpustream.UnmarshalSnapshot[float32](blob)
	if err != nil {
		t.Fatalf("spill does not decode: %v", err)
	}
	if snap.Count() != want {
		t.Errorf("spilled snapshot covers %d rows, want %d", snap.Count(), want)
	}
}

// TestIngestWaitEndsWithRequest holds a stream's turn while a POST waits
// for it, then cancels the POST's request: the POST answers 503 with the
// context's error, its batch goes back to the pool, and the stream counts
// nothing of it.
func TestIngestWaitEndsWithRequest(t *testing.T) {
	svc := New[float32](Config{})
	defer svc.Close()
	e, _, err := svc.reg.create("t", "s", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	post := func(ctx context.Context, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)).WithContext(ctx))
		return rec
	}
	if rec := post(context.Background(), "/v1/streams/t/s/values?sync=1", `[1,2,3]`); rec.Code != http.StatusOK {
		t.Fatalf("first POST = %d %s", rec.Code, rec.Body)
	}
	unchanged := func(when string) {
		t.Helper()
		if rows, batches, errs, count := e.rows.Load(), e.batches.Load(), e.ingestErrs.Load(), e.est.Count(); rows != 3 || batches != 1 || errs != 0 || count != 3 {
			t.Errorf("%s: rows %d, batches %d, ingest_errors %d, count %d; want 3, 1, 0, 3", when, rows, batches, errs, count)
		}
	}

	e.turn <- struct{}{} // hold the turn
	ctx, cancel := context.WithCancel(context.Background())
	replied := make(chan *httptest.ResponseRecorder)
	go func() { replied <- post(ctx, "/v1/streams/t/s/values", `[4,5]`) }()
	for deadline := time.Now().Add(5 * time.Second); e.waiting.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the POST never waited for the turn")
		}
	}
	cancel()
	rec := <-replied
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
		t.Errorf("POST cancelled while it waited = %d %s, want 503 naming the cancelled context", rec.Code, rec.Body)
	}
	if n := e.waiting.Load(); n != 0 {
		t.Errorf("queue_depth = %d after the wait ended, want 0", n)
	}
	unchanged("after the cancelled POST")

	// The same wait, called directly: the batch must come back emptied,
	// which is what batchPool.put does to it.
	b := svc.reg.batches.get()
	b.data = append(b.data[:0], 6, 7)
	if err := e.ingest(ctx, b); !errors.Is(err, context.Canceled) {
		t.Errorf("ingest under a cancelled context = %v, want %v", err, context.Canceled)
	}
	if len(b.data) != 0 {
		t.Errorf("batch holds %d rows after the wait ended; it was not returned to the pool", len(b.data))
	}
	unchanged("after the cancelled ingest")

	<-e.turn
	if rec := post(context.Background(), "/v1/streams/t/s/values?sync=1", `[8]`); rec.Code != http.StatusOK || e.est.Count() != 4 {
		t.Errorf("POST after the turn came back = %d %s with count %d, want 200 and 4", rec.Code, rec.Body, e.est.Count())
	}
}
