package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpustream/internal/service"
	"gpustream/internal/stream"
)

// The service workloads run internal/service behind a real http.Server on
// loopback and drive it in a closed loop: streamd's callers are collectors
// that wait for each reply, and on a two-core host an open loop's generator
// ran later than the POSTs it was timing (README.md, "Why a closed loop").
//
// The measured phase is a sequence of rounds. A round creates the 64 streams,
// sends every stream the same seed-determined batches in the same order,
// ends with one ?sync=1 barrier POST per stream, checks every stream against
// ground truth and deletes them (which drains and spills). A round is fixed
// work — svcBatches+1 batches of svcRows rows to each stream — so the state
// after it is deterministic; rounds repeat until -seconds have gone by and
// every timing is a median over rounds.
const (
	svcTenants    = 8
	svcPerTenant  = 8
	svcStreams    = svcTenants * svcPerTenant
	svcRows       = 500     // rows per POST
	svcBatches    = 128     // POSTs per stream per round, before the barrier POST
	svcPool       = 512     // distinct pre-encoded bodies
	svcCard       = 1 << 14 // zipf vocabulary
	svcSkew       = 1.2
	svcSyncEvery  = 50 // every 50th POST of a client carries ?sync=1
	svcProbes     = 4  // point-frequency probes per frequency stream per round
	svcPollPeriod = 250 * time.Millisecond
	spanHeader    = "X-Bench-Span"
)

const (
	svcQuantSpec = `{"family":"quantile","eps":0.001,"backend":"samplesort"}`
	svcFreqSpec  = `{"family":"frequency","eps":0.001,"support":0.01,"backend":"samplesort"}`
	svcEps       = 1e-3
	svcSupport   = 0.01
	loadPhis     = "0.5,0.9,0.99"
)

// svcSpec is one service workload: the body encoding and the share of reads.
type svcSpec struct {
	name     string
	binary   bool
	getEvery int // every getEvery-th op of a client is a GET; 0 is write-only
}

var (
	svcIngestJSON = svcSpec{"svc-ingest-json", false, 0}
	svcMixedBin   = svcSpec{"svc-mixed-bin", true, 10}
)

// svcRun is the state of one service run after set-up.
type svcRun struct {
	w       svcSpec
	batches int // POSTs per stream per round before the barrier
	bodies  [][]byte
	ctype   string
	truths  []*countTruth // per stream, after a whole round
	probes  [][]float32   // per stream, values whose point frequency is probed

	srv     *service.Server[float32]
	httpSrv *http.Server
	served  chan error
	base    string
	spill   string
	clients []*http.Client
	rec     *recorder
}

// quantileStream reports the family of stream i: even streams are quantile
// streams, odd ones frequency streams.
func quantileStream(i int) bool { return i%2 == 0 }

func streamPath(i int) string {
	return fmt.Sprintf("/v1/streams/t%d/s%d", i/svcPerTenant, i%svcPerTenant)
}

// bodyFor picks the body of stream i's k-th batch, so per-stream content and
// order depend on the seed alone — not on timing or the number of clients.
func (r *svcRun) bodyFor(i, k int) int { return (i*37 + k) % len(r.bodies) }

// setup generates the bodies and ground truth from the seed, starts the
// server and creates the clients. Everything it starts is released by stop.
func (r *svcRun) setup(cfg runConfig) error {
	pool := min(svcPool, svcStreams*(r.batches+1))
	id := r.rec.begin("stream.gen", -1, 0)
	values := stream.ZipfOf[float32](pool*svcRows, svcSkew, svcCard, cfg.Seed)
	r.rec.end(id)

	r.bodies = make([][]byte, pool)
	r.ctype = "application/json"
	if r.w.binary {
		r.ctype = "application/octet-stream"
	}
	for b := range r.bodies {
		rows := values[b*svcRows : (b+1)*svcRows]
		if r.w.binary {
			body := make([]byte, 0, 4*svcRows)
			for _, v := range rows {
				body = binary.LittleEndian.AppendUint32(body, math.Float32bits(v))
			}
			r.bodies[b] = body
			continue
		}
		body, err := json.Marshal(rows)
		if err != nil {
			return fmt.Errorf("encode body: %w", err)
		}
		r.bodies[b] = body
	}

	rng := stream.NewRNG(cfg.Seed ^ 0x2545f491)
	r.truths = make([]*countTruth, svcStreams)
	r.probes = make([][]float32, svcStreams)
	for i := range r.truths {
		t := &countTruth{counts: make([]int32, svcCard)}
		for k := 0; k <= r.batches; k++ {
			b := r.bodyFor(i, k)
			for _, v := range values[b*svcRows : (b+1)*svcRows] {
				t.add(v)
			}
		}
		t.seal()
		r.truths[i] = t
		for range svcProbes {
			r.probes[i] = append(r.probes[i], values[rng.Intn(len(values))])
		}
	}

	spill, err := os.MkdirTemp(cfg.TmpDir, "spill-")
	if err != nil {
		return err
	}
	r.spill = spill
	r.srv = service.New[float32](service.Config{SpillDir: spill})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var handler http.Handler = r.srv
	if r.rec != nil {
		handler = r.spanMiddleware(handler)
	}
	r.httpSrv = &http.Server{Handler: handler}
	r.served = make(chan error, 1)
	go func() { r.served <- r.httpSrv.Serve(ln) }()
	r.base = "http://" + ln.Addr().String()

	r.clients = nil
	for range min(2, runtime.NumCPU()) {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
	}
	return r.createStreams()
}

// stop shuts the HTTP server down, drains the service and waits for the
// serving goroutine. A second call does nothing.
func (r *svcRun) stop() error {
	if r.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.httpSrv.Shutdown(ctx)
	if serveErr := <-r.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.httpSrv = nil
	return errors.Join(err, r.srv.Drain(ctx))
}

// spanMiddleware records one span per request that names a parent span in
// its header: the handler's share of the client's round trip.
func (r *svcRun) spanMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		kind, link, _ := strings.Cut(req.Header.Get(spanHeader), " ")
		op, parent, ok := strings.Cut(link, "/")
		opN, err1 := strconv.Atoi(op)
		parentN, err2 := strconv.Atoi(parent)
		if !ok || err1 != nil || err2 != nil {
			next.ServeHTTP(w, req)
			return
		}
		id := r.rec.begin("service.handler."+kind, parentN, opN)
		next.ServeHTTP(w, req)
		r.rec.end(id)
	})
}

// request is one HTTP exchange. kind names its spans; rec is nil for an
// untraced request. It returns the round-trip time, the status and the body.
func (r *svcRun) request(c *http.Client, rec *recorder, op int, kind, method, path string, body []byte) (time.Duration, int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		return 0, 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", r.ctype)
	}
	t0 := time.Now()
	id := rec.begin("client."+kind, -1, op)
	if id >= 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%s %d/%d", kind, op, id))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end(id)
	return time.Since(t0), resp.StatusCode, data, err
}

// getJSON is a GET that must answer 200 with a document that decodes into
// reply. It returns the round-trip time.
func (r *svcRun) getJSON(c *http.Client, rec *recorder, op int, kind, path string, reply any) (time.Duration, error) {
	d, code, data, err := r.request(c, rec, op, kind, "GET", path, nil)
	switch {
	case err != nil:
		return 0, fmt.Errorf("GET %s: %w", path, err)
	case code != http.StatusOK:
		return 0, fmt.Errorf("GET %s: status %d", path, code)
	}
	if err := json.Unmarshal(data, reply); err != nil {
		return 0, fmt.Errorf("GET %s: %w", path, err)
	}
	return d, nil
}

func (r *svcRun) createStreams() error {
	for i := range svcStreams {
		spec := svcFreqSpec
		if quantileStream(i) {
			spec = svcQuantSpec
		}
		// PUT bodies are JSON whatever the batch encoding.
		req, err := http.NewRequest("PUT", r.base+streamPath(i), strings.NewReader(spec))
		if err != nil {
			return err
		}
		resp, err := r.clients[0].Do(req)
		if err != nil {
			return fmt.Errorf("create stream %d: %w", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create stream %d: status %d", i, resp.StatusCode)
		}
	}
	return nil
}

// quantileReply and hittersReply are the daemon's GET documents.
type quantileReply struct {
	Count   int64 `json:"count"`
	Results []struct {
		Phi   float64 `json:"phi"`
		Value float64 `json:"value"`
		OK    bool    `json:"ok"`
	} `json:"results"`
}

type hittersReply struct {
	Count int64 `json:"count"`
	OK    bool  `json:"ok"`
	Items []struct {
		Value float64 `json:"value"`
		Freq  int64   `json:"freq"`
	} `json:"items"`
}

type frequencyReply struct {
	Count int64 `json:"count"`
	Freq  int64 `json:"freq"`
	OK    bool  `json:"ok"`
}

// svcRound is what one round measured.
type svcRound struct {
	wall, cpu  time.Duration // first POST to last barrier reply
	rows       int64
	postUs     []float64 // 202 POST round trips
	syncUs     []float64 // in-loop ?sync=1 POST round trips
	quantUs    []float64 // GET /quantile round trips
	hittersUs  []float64 // GET /heavyhitters round trips
	barrier    time.Duration
	drain      time.Duration
	spillBytes int64
	heap       int64
	requests   int
	check      verdict

	// traced rounds only
	backlogRows    int64
	depths         []float64
	status         *service.ServiceStatus
	allocB, allocs uint64
}

// clientLoad is one client's closed loop over its streams for one round.
type clientLoad struct {
	r        *svcRun
	c        *http.Client
	rec      *recorder
	opBase   int
	streams  []int
	sent     map[int]int64 // rows sent per stream
	acked    map[int]int64 // rows known queryable per stream
	posts    int
	ops      int
	out      *svcRound
	failures verdict
}

func (l *clientLoad) op() int { l.ops++; return l.opBase + l.ops }

func (l *clientLoad) post(i, k int, sync bool) {
	path, kind := streamPath(i)+"/values", "post"
	if sync {
		path, kind = path+"?sync=1", "post_sync"
	}
	l.failures.op()
	d, code, _, err := l.r.request(l.c, l.rec, l.op(), kind, "POST", path, l.r.bodies[l.r.bodyFor(i, k)])
	want := http.StatusAccepted
	if sync {
		want = http.StatusOK
	}
	if err != nil || code != want {
		l.failures.fail("POST %s: status %d, error %v", path, code, err)
		return
	}
	l.sent[i] += svcRows
	l.posts++
	if sync {
		l.acked[i] = l.sent[i]
		if k < l.r.batches { // the barrier POST is reported apart
			l.out.syncUs = append(l.out.syncUs, float64(d)/1e3)
		}
	} else {
		l.out.postUs = append(l.out.postUs, float64(d)/1e3)
	}
}

// get issues the read a dashboard makes on stream i and checks it as far as
// a mid-run answer can be checked: 200, ok, and a count between what is
// known queryable and what was sent.
func (l *clientLoad) get(i int) {
	l.failures.op()
	var count int64
	var ok bool
	if quantileStream(i) {
		var reply quantileReply
		d, err := l.r.getJSON(l.c, l.rec, l.op(), "get_quantile", streamPath(i)+"/quantile?phi="+loadPhis, &reply)
		if err != nil {
			l.failures.fail("%v", err)
			return
		}
		l.out.quantUs = append(l.out.quantUs, float64(d)/1e3)
		count, ok = reply.Count, len(reply.Results) == 3
		for _, res := range reply.Results {
			ok = ok && res.OK == (reply.Count > 0)
		}
	} else {
		var reply hittersReply
		d, err := l.r.getJSON(l.c, l.rec, l.op(), "get_hh", streamPath(i)+"/heavyhitters", &reply)
		if err != nil {
			l.failures.fail("%v", err)
			return
		}
		l.out.hittersUs = append(l.out.hittersUs, float64(d)/1e3)
		count, ok = reply.Count, reply.OK
	}
	if !ok || count < l.acked[i] || count > l.sent[i] {
		l.failures.fail("GET stream %d: ok=%v count=%d outside [%d, %d]", i, ok, count, l.acked[i], l.sent[i])
	}
}

// load is the client's closed loop. A POST carries ?sync=1 when it is the
// client's svcSyncEvery-th or when a GET follows it: a collector that reads
// what it just wrote asks for exactly that, and it pins the point in the
// stream at which the read's snapshot flushes the frequency estimator's
// partial window — so the state after a round does not depend on timing.
func (l *clientLoad) load() {
	for k := range l.r.batches {
		for _, i := range l.streams {
			g := l.r.w.getEvery
			read := g > 0 && (l.ops+2)%g == 0
			l.post(i, k, read || (l.posts+1)%svcSyncEvery == 0)
			if read {
				l.get(i)
			}
		}
	}
}

func (l *clientLoad) barrier() {
	for _, i := range l.streams {
		l.post(i, l.r.batches, true)
	}
}

// statsz fetches the daemon's own status document.
func (r *svcRun) statsz() (*service.ServiceStatus, error) {
	var st service.ServiceStatus
	_, err := r.getJSON(r.clients[0], nil, 0, "statsz", "/statsz", &st)
	return &st, err
}

// round runs one round on the streams that exist, then deletes them. traced
// selects span recording and the /statsz polls.
func (r *svcRun) round(op int, traced bool) (svcRound, error) {
	var out svcRound
	rec := r.rec
	if !traced {
		rec = nil
	}

	loads := make([]*clientLoad, len(r.clients))
	outs := make([]svcRound, len(r.clients))
	for c := range loads {
		loads[c] = &clientLoad{r: r, c: r.clients[c], rec: rec, opBase: op*1_000_000 + c*100_000,
			sent: map[int]int64{}, acked: map[int]int64{}, out: &outs[c]}
		for i := c; i < svcStreams; i += len(r.clients) {
			loads[c].streams = append(loads[c].streams, i)
		}
	}
	allClients := func(f func(*clientLoad)) {
		var wg sync.WaitGroup
		for _, l := range loads {
			wg.Add(1)
			go func() { defer wg.Done(); f(l) }()
		}
		wg.Wait()
	}

	// The /statsz poll of a traced round samples every stream's queue depth.
	stopPoll := make(chan struct{})
	var pollDone sync.WaitGroup
	if traced {
		pollDone.Add(1)
		go func() {
			defer pollDone.Done()
			tick := time.NewTicker(svcPollPeriod)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					if st, err := r.statsz(); err == nil {
						for _, s := range st.Streams {
							out.depths = append(out.depths, float64(s.QueueDepth))
						}
					}
				}
			}
		}()
	}

	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	cpu0, t0 := cpuTime(), time.Now()
	allClients((*clientLoad).load)
	close(stopPoll)
	pollDone.Wait()
	if traced {
		st, err := r.statsz()
		if err != nil {
			return out, err
		}
		for _, s := range st.Streams {
			out.backlogRows += s.Rows - s.Count
		}
	}
	tb := time.Now()
	allClients((*clientLoad).barrier)
	out.barrier = time.Since(tb)
	out.wall, out.cpu = time.Since(t0), cpuTime()-cpu0

	for c, l := range loads {
		out.postUs = append(out.postUs, outs[c].postUs...)
		out.syncUs = append(out.syncUs, outs[c].syncUs...)
		out.quantUs = append(out.quantUs, outs[c].quantUs...)
		out.hittersUs = append(out.hittersUs, outs[c].hittersUs...)
		out.requests += l.ops
		out.check.merge(l.failures)
		for _, rows := range l.sent {
			out.rows += rows
		}
	}
	if traced {
		st, err := r.statsz()
		if err != nil {
			return out, err
		}
		out.status = st
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		out.allocB, out.allocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	}

	// Outside the timed section: reads on a now idle daemon, the oracle,
	// the live heap, and the drain.
	r.verify(&out, rec, op)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held := ms.HeapAlloc
	td := time.Now()
	for i := range svcStreams {
		out.check.op()
		_, code, _, err := r.request(r.clients[0], rec, op*1_000_000+900_000+i, "delete", "DELETE", streamPath(i), nil)
		if err != nil || code != http.StatusOK {
			out.check.fail("DELETE stream %d: status %d, error %v", i, code, err)
		}
	}
	out.drain = time.Since(td)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.heap = int64(held) - int64(ms.HeapAlloc)

	snaps, err := filepath.Glob(filepath.Join(r.spill, "*.snap"))
	if err != nil || len(snaps) != svcStreams {
		out.check.op()
		out.check.fail("spill directory holds %d snapshots, want %d (error %v)", len(snaps), svcStreams, err)
	}
	for _, path := range snaps {
		if fi, err := os.Stat(path); err == nil {
			out.spillBytes += fi.Size()
		}
	}
	return out, nil
}

// verify reads every stream once the barrier has made all rows queryable and
// checks the answers against the stream's exact counts: 99 quantiles, or the
// heavy hitters and a few point frequencies. On a write-only workload the
// three-phi GETs it issues first are the workload's query latency samples.
func (r *svcRun) verify(out *svcRound, rec *recorder, op int) {
	c := r.clients[0]
	v := &out.check
	for i, t := range r.truths {
		opID := op*1_000_000 + 800_000 + i*10
		v.op()
		if quantileStream(i) {
			var first, all quantileReply
			d, err := r.getJSON(c, rec, opID, "get_quantile", streamPath(i)+"/quantile?phi="+loadPhis, &first)
			if err == nil {
				_, err = r.getJSON(c, rec, opID+1, "verify", streamPath(i)+"/quantile?phi="+allPhis, &all)
			}
			if err != nil || first.Count != t.total() || len(all.Results) != 99 {
				v.fail("stream %d after the barrier: count %d, want %d; %d of 99 quantiles; error %v", i, first.Count, t.total(), len(all.Results), err)
				continue
			}
			if r.w.getEvery == 0 {
				out.quantUs = append(out.quantUs, float64(d)/1e3)
			}
			for _, res := range all.Results {
				checkQuantile(v, t, svcEps, res.Phi, float32(res.Value), res.OK)
			}
			continue
		}
		var reply hittersReply
		d, err := r.getJSON(c, rec, opID, "get_hh", streamPath(i)+"/heavyhitters", &reply)
		if err != nil || !reply.OK || reply.Count != t.total() {
			v.fail("stream %d after the barrier: ok=%v, count %d, want %d; error %v", i, reply.OK, reply.Count, t.total(), err)
			continue
		}
		if r.w.getEvery == 0 {
			out.hittersUs = append(out.hittersUs, float64(d)/1e3)
		}
		items := make([]hitter, len(reply.Items))
		for j, it := range reply.Items {
			items[j] = hitter{float32(it.Value), it.Freq}
		}
		checkHeavyHitters(v, t, svcEps, svcSupport, items)
		for j, probe := range r.probes[i] {
			var fr frequencyReply
			path := streamPath(i) + "/frequency?v=" + strconv.FormatFloat(float64(probe), 'g', -1, 32)
			if _, err := r.getJSON(c, rec, opID+1+j, "verify", path, &fr); err != nil || !fr.OK {
				v.op()
				v.fail("frequency of %v on stream %d: ok=%v, error %v", probe, i, fr.OK, err)
				continue
			}
			checkFrequency(v, t, svcEps, probe, fr.Freq)
		}
	}
}

// allPhis is the oracle's quantile probe list: 0.01,0.02,...,0.99.
var allPhis = func() string {
	phis := make([]string, 99)
	for i := range phis {
		phis[i] = strconv.FormatFloat(float64(i+1)/100, 'g', -1, 64)
	}
	return strings.Join(phis, ",")
}()

func runService(w svcSpec, cfg runConfig) (*result, error) {
	probe := startHostProbe()
	r := &svcRun{w: w, batches: max(2, svcBatches/cfg.Scale)}
	if cfg.Trace {
		r.rec = newRecorder()
	}

	// Set-up, several times so that setup_s is a median: generation, ground
	// truth, body encoding, server start and stream creation. The last
	// repeat's server is the one measured.
	defer r.stop() // the success path checks stop's error below
	var setups []float64
	for i := range setupRepeats {
		if i > 0 {
			if err := r.stop(); err != nil {
				return nil, fmt.Errorf("stop between set-ups: %w", err)
			}
		}
		t0 := time.Now()
		if err := r.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// One unmeasured round warms the connections, the window-buffer pool
	// and the heap; set-up created its streams.
	warm, err := r.round(0, false)
	if err != nil {
		return nil, err
	}
	total := warm.check

	var plain, traced []svcRound
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	err = measure(cfg, time.Duration(cfg.Seconds*float64(time.Second)), func(op int, withSpans bool) error {
		if err := r.createStreams(); err != nil {
			return err
		}
		rd, err := r.round(op, withSpans)
		total.merge(rd.check)
		if withSpans {
			traced = append(traced, rd)
		} else {
			plain = append(plain, rd)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, rd := range slices.Concat(plain[1:], traced) {
		total.op()
		if rd.spillBytes != plain[0].spillBytes {
			total.fail("spilled state differs between rounds (%d vs %d bytes)", rd.spillBytes, plain[0].spillBytes)
		}
	}
	if err := r.stop(); err != nil {
		total.op()
		total.fail("drain at the end of the run: %v", err)
	}

	cpuNsRow := func(rd svcRound) float64 { return float64(rd.cpu) / float64(rd.rows) }
	mrows := each(plain, func(rd svcRound) float64 { return float64(rd.rows) / rd.wall.Seconds() / 1e6 })
	res := &result{Workload: w.name, Host: probe.finish(len(r.clients))}
	res.EndToEnd = map[string]float64{
		"setup_s":             median(setups),
		"ingest_mvps":         median(mrows),
		"cpu_ns_per_value":    median(each(plain, cpuNsRow)),
		"write_p50_us":        median(each(plain, func(rd svcRound) float64 { return median(rd.postUs) })),
		"visible_p50_us":      median(each(plain, func(rd svcRound) float64 { return median(rd.syncUs) })),
		"query_p50_us":        median(each(plain, func(rd svcRound) float64 { return median(rd.quantUs) })),
		"state_kb_per_stream": float64(plain[0].spillBytes) / svcStreams / 1024,
		"live_heap_mb":        median(each(plain, func(rd svcRound) float64 { return float64(rd.heap) })) / (1 << 20),
	}
	var posts, syncs, quants, hitters []float64
	for _, rd := range plain {
		posts = append(posts, rd.postUs...)
		syncs = append(syncs, rd.syncUs...)
		quants = append(quants, rd.quantUs...)
		hitters = append(hitters, rd.hittersUs...)
	}
	res.Detail = []string{
		fmt.Sprintf("rounds %d of %d rows over %d streams (%d traced), %d clients; eps_used %.4f",
			len(plain), plain[0].rows, svcStreams, len(traced), len(r.clients), total.used),
		fmt.Sprintf("CPU ns/row by round: %s", series(each(plain, cpuNsRow))),
		fmt.Sprintf("Mrows/s per round:   %s", timing(mrows)),
		fmt.Sprintf("POST us:             %s", timing(posts)),
		fmt.Sprintf("POST ?sync=1 us:     %s", timing(syncs)),
		fmt.Sprintf("GET quantile us:     %s", timing(quants)),
		fmt.Sprintf("GET heavyhitters us: %s", timing(hitters)),
	}
	if cfg.Trace {
		res.PerLayer = r.layers(total.used, plain, traced, gcBefore)
		res.PerLayer["service.failed"] = float64(total.failed)
		overhead := median(each(traced, cpuNsRow)) / median(each(plain, cpuNsRow))
		if err := finishTrace(res, cfg, overhead, r.rec); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Problems = total.attempted, total.failed, total.problems
	return res, nil
}
