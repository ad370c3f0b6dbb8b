package service_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"gpustream"
	"gpustream/internal/service"
)

// TestServiceConcurrentIngestAndQuery drives N tenant writers against M
// readers under the race detector: every ingest runs under its stream's
// turn while readers hit /quantile and /statsz against live copy-on-write
// snapshots. Nothing may fail and no access may race.
func TestServiceConcurrentIngestAndQuery(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	client := ts.Client()

	const (
		tenants          = 4
		batchesPerTenant = 25
		batchRows        = 200
		readers          = 3
	)
	spec := gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01, Phis: []float64{0.5}}
	urls := make([]string, tenants)
	for i := range urls {
		urls[i] = fmt.Sprintf("%s/v1/streams/tenant%d/s", ts.URL, i)
		if code, _ := do(t, client, "PUT", urls[i], "application/json", specBody(t, spec)); code != http.StatusCreated {
			t.Fatalf("PUT tenant%d = %d", i, code)
		}
	}

	vals := make([]float32, batchRows)
	for i := range vals {
		vals[i] = float32(i)
	}
	blob, _ := json.Marshal(vals)

	var wg sync.WaitGroup
	var failures atomic.Int64
	stop := make(chan struct{})

	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for b := 0; b < batchesPerTenant; b++ {
				req, _ := http.NewRequest("POST", url+"/values", bytes.NewReader(blob))
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				if err != nil {
					failures.Add(1)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					failures.Add(1)
				}
			}
		}(urls[i])
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var url string
				if n%3 == 2 {
					url = ts.URL + "/statsz"
				} else {
					url = urls[(i+n)%tenants] + "/quantile"
				}
				resp, err := client.Get(url)
				if err != nil {
					failures.Add(1)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
			}
		}(i)
	}

	// Release the readers once every writer POST is observable in /statsz,
	// then wait for everything.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	<-waitWriters(urls, client, tenants*batchesPerTenant*batchRows)
	close(stop)
	<-done

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed under concurrency", n)
	}

	// Every acknowledged batch must have landed: one more row each, then the counts.
	for i, url := range urls {
		if code, _ := do(t, client, "POST", url+"/values?sync=1", "application/json", []byte(`[0]`)); code != http.StatusOK {
			t.Fatalf("flush tenant%d = %d", i, code)
		}
		_, body := do(t, client, "GET", url, "", nil)
		want := int64(batchesPerTenant*batchRows + 1)
		if got := int64(body["count"].(float64)); got != want {
			t.Errorf("tenant%d count = %d, want %d", i, got, want)
		}
	}
}

// waitWriters polls /statsz until ingest_rows reaches want.
func waitWriters(urls []string, client *http.Client, want int) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		statsz := urls[0][:len(urls[0])-len("/v1/streams/tenant0/s")] + "/statsz"
		for {
			resp, err := client.Get(statsz)
			if err != nil {
				return
			}
			var body struct {
				IngestRows int64 `json:"ingest_rows"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil || body.IngestRows >= int64(want) {
				return
			}
		}
	}()
	return ch
}

// TestServiceDrainDuringLoad races Drain against in-flight POSTs: every
// request must resolve as accepted (202/200) or cleanly rejected
// (409 closing / 503 draining) — never a panic, hang, or torn write.
func TestServiceDrainDuringLoad(t *testing.T) {
	svc := service.New[float32](service.Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()

	url := ts.URL + "/v1/streams/t/s"
	spec := gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01}
	if code, _ := do(t, client, "PUT", url, "application/json", specBody(t, spec)); code != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	blob, _ := json.Marshal(make([]float32, 100))

	var wg sync.WaitGroup
	var accepted, rejected, unexpected atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < 50; b++ {
				req, _ := http.NewRequest("POST", url+"/values", bytes.NewReader(blob))
				req.Header.Set("Content-Type", "application/json")
				resp, err := client.Do(req)
				if err != nil {
					unexpected.Add(1)
					continue
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted, http.StatusOK:
					accepted.Add(1)
				case http.StatusConflict, http.StatusServiceUnavailable:
					rejected.Add(1)
				default:
					unexpected.Add(1)
				}
			}
		}()
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("drain during load: %v", err)
	}
	wg.Wait()

	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d requests resolved with unexpected status/error", n)
	}
	t.Logf("drain race: %d accepted, %d rejected", accepted.Load(), rejected.Load())
}

// TestServicePooledBatchesSurviveConcurrency is the buffer-ownership test of
// the POST path (DESIGN.md §18): body buffers and batch slices are
// recycled across requests, so a slice handed back before the estimator had
// consumed it — or a body reused under a decoder — would surface as rows of
// one poster counted for another. Each poster sends only its own value, in
// JSON and binary batches of varying length, synced and unsynced, to a
// frequency stream and to a parallel-quantile stream, all eight contending
// for each stream's turn; afterwards the frequency stream must hold every
// poster's exact row count and the quantile stream's rank boundaries must
// sit where the counts put them, within eps.
func TestServicePooledBatchesSurviveConcurrency(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	client := ts.Client()

	const (
		posters = 8
		batches = 24
		qeps    = 0.0002
	)
	freqURL, quantURL := ts.URL+"/v1/streams/pool/freq", ts.URL+"/v1/streams/pool/pq"
	// eps*N < 1 on the frequency stream: nothing is ever compressed away,
	// so its counts are exact.
	fspec := gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 1e-5, Support: 0.01}
	qspec := gpustream.Spec{Family: gpustream.FamilyParallelQuantile, Eps: qeps, Shards: 2}
	for url, spec := range map[string]gpustream.Spec{freqURL: fspec, quantURL: qspec} {
		if code, body := do(t, client, "PUT", url, "application/json", specBody(t, spec)); code != http.StatusCreated {
			t.Fatalf("PUT %s = %d (%v)", url, code, body)
		}
	}

	sent := make([]int64, posters+1) // sent[v]: rows of value v; v = 0 is the barrier's
	var wg sync.WaitGroup
	var failures atomic.Int64
	for p := 1; p <= posters; p++ {
		for b := 0; b < batches; b++ {
			sent[p] += int64(64 + 16*((p+b)%5))
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				vals := make([]float32, 64+16*((p+b)%5))
				for i := range vals {
					vals[i] = float32(p)
				}
				ctype, body := "application/json", []byte(nil)
				if (p+b)%2 == 0 {
					body, _ = json.Marshal(vals)
				} else {
					ctype = "application/octet-stream"
					for _, v := range vals {
						body = binary.LittleEndian.AppendUint32(body, math.Float32bits(v))
					}
				}
				path, want := "/values", http.StatusAccepted
				if b%3 == 0 {
					path, want = "/values?sync=1", http.StatusOK
				}
				for _, url := range []string{freqURL, quantURL} {
					req, _ := http.NewRequest("POST", url+path, bytes.NewReader(body))
					req.Header.Set("Content-Type", ctype)
					resp, err := client.Do(req)
					if err != nil {
						failures.Add(1)
						continue
					}
					resp.Body.Close()
					if resp.StatusCode != want {
						failures.Add(1)
					}
				}
			}
		}(p)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d POSTs failed", n)
	}

	// One synced row of value 0 after every poster's last reply: every
	// batch is in the estimators already, and the row closes the tally.
	sent[0] = 1
	var total int64
	for _, n := range sent {
		total += n
	}
	for _, url := range []string{freqURL, quantURL} {
		if code, body := do(t, client, "POST", url+"/values?sync=1", "application/json", []byte(`[0]`)); code != http.StatusOK {
			t.Fatalf("barrier POST %s = %d (%v)", url, code, body)
		}
		if _, body := do(t, client, "GET", url, "", nil); int64(body["count"].(float64)) != total {
			t.Errorf("%s count = %v, want %d", url, body["count"], total)
		}
	}

	for v, want := range sent {
		_, body := do(t, client, "GET", fmt.Sprintf("%s/frequency?v=%d", freqURL, v), "", nil)
		if got := int64(body["freq"].(float64)); got != want {
			t.Errorf("value %d counted %d times, %d rows of it were sent", v, got, want)
		}
	}

	// The rank just inside either end of value v's run must answer v; one
	// misattributed batch (64 rows at least) moves a boundary by far more
	// than the slack.
	slack := int64(qeps*float64(total)) + 1
	var below int64 = sent[0]
	for v := 1; v <= posters; v++ {
		for _, rank := range []int64{below + slack + 1, below + sent[v] - slack} {
			phi := float64(rank) / float64(total)
			_, body := do(t, client, "GET", fmt.Sprintf("%s/quantile?phi=%.9f", quantURL, phi), "", nil)
			res := body["results"].([]any)[0].(map[string]any)
			if got := res["value"].(float64); got != float64(v) {
				t.Errorf("rank %d of %d answers %v, want %d (rows below: %d, rows of it: %d)", rank, total, got, v, below, sent[v])
			}
		}
		below += sent[v]
	}
}
