package service

import (
	"net/http"
	"runtime"
	"slices"
	"time"

	"gpustream"
	"gpustream/internal/pipeline"
)

// StreamStatus is one stream's /statsz (and stream-info GET) report: the
// spec it was created from, ingest-path counters, and the engine's live
// per-estimator pipeline telemetry (gpustream.EstimatorStats, including
// the staged executor's Overlap/Stall/MaxInFlight when async ingestion
// ran).
type StreamStatus struct {
	Tenant string         `json:"tenant"`
	Stream string         `json:"stream"`
	Spec   gpustream.Spec `json:"spec"`

	Rows         int64 `json:"rows"`             // rows taken under the turn
	Count        int64 `json:"count"`            // rows the estimator has ingested
	Batches      int64 `json:"batches"`          // batches taken under the turn
	IngestErrors int64 `json:"ingest_errors"`    // batches the estimator refused
	QueueDepth   int   `json:"queue_depth"`      // POSTs waiting for the turn right now
	StallNs      int64 `json:"enqueue_stall_ns"` // ns POSTs spent waiting for the turn
	IdleNs       int64 `json:"idle_ns"`          // ns since the last ingest or query

	Estimators []gpustream.EstimatorStats `json:"estimators"`
}

// ServiceStatus is the /statsz document: service counters plus every live
// stream's status.
type ServiceStatus struct {
	Now        time.Time `json:"now"`
	UptimeNs   int64     `json:"uptime_ns"`
	Draining   bool      `json:"draining"`
	Goroutines int       `json:"goroutines"`
	Tenants    int       `json:"tenants"`
	StreamsN   int       `json:"streams_total"`

	Requests      int64 `json:"requests"`
	IngestRows    int64 `json:"ingest_rows"`
	IngestBatches int64 `json:"ingest_batches"`
	EnqueueStall  int64 `json:"enqueue_stall_ns"`
	Evictions     int64 `json:"evictions"`
	IdleEvictions int64 `json:"idle_evictions"`
	Drained       int64 `json:"drained"`
	Spills        int64 `json:"spills"`

	// SpareBytes is the recycled estimator storage the process keeps for
	// the next bucket or histogram any stream builds, moved out of the
	// streams themselves: at most one buffer per capacity class per
	// element type, of any size (pipeline.SpareBytes, DESIGN.md §33).
	SpareBytes int64 `json:"spare_bytes"`

	Streams []StreamStatus `json:"streams"`
}

// streamStatus assembles one entry's report. Engine.Stats synchronizes with
// ingestion internally, so the counters are consistent mid-stream.
func (s *Server[T]) streamStatus(e *entry[T]) StreamStatus {
	idle := time.Now().UnixNano() - e.lastUsed.Load()
	if idle < 0 {
		idle = 0
	}
	return StreamStatus{
		Tenant:       e.tenant,
		Stream:       e.stream,
		Spec:         e.spec,
		Rows:         e.rows.Load(),
		Count:        e.est.Count(),
		Batches:      e.batches.Load(),
		IngestErrors: e.ingestErrs.Load(),
		QueueDepth:   int(e.waiting.Load()),
		StallNs:      e.stallNs.Load(),
		IdleNs:       idle,
		Estimators:   e.eng.Stats(),
	}
}

// handleStatsz exports the full service status as JSON — the metric sink a
// scraper or the future adaptive controller reads. It stays available
// during drain.
func (s *Server[T]) handleStatsz(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	tenants := make(map[string]struct{}, len(entries))
	streams := make([]StreamStatus, 0, len(entries))
	for _, e := range entries {
		tenants[e.tenant] = struct{}{}
		streams = append(streams, s.streamStatus(e))
	}
	writeJSON(w, http.StatusOK, ServiceStatus{
		Now:           time.Now(),
		UptimeNs:      time.Since(s.start).Nanoseconds(),
		Draining:      s.draining.Load(),
		Goroutines:    runtime.NumGoroutine(),
		Tenants:       len(tenants),
		StreamsN:      len(entries),
		Requests:      s.ctr.requests.Load(),
		IngestRows:    s.ctr.ingestRows.Load(),
		IngestBatches: s.ctr.ingestBatches.Load(),
		EnqueueStall:  s.ctr.enqueueStall.Load(),
		Evictions:     s.ctr.evictions.Load(),
		IdleEvictions: s.ctr.idleEvictions.Load(),
		Drained:       s.ctr.drained.Load(),
		Spills:        s.ctr.spills.Load(),
		SpareBytes:    pipeline.SpareBytes(),
		Streams:       streams,
	})
}

// handleHealthz is the liveness probe: 200 while serving, 503 "draining"
// once shutdown starts (so load balancers stop routing here while in-flight
// streams flush). A stream whose estimator has refused a batch makes the
// status "degraded" and is named in unhealthy as tenant/stream, sorted; the
// code stays 200, since every other stream still serves and probes that
// read only the code must not fail the whole daemon over one stream.
func (s *Server[T]) handleHealthz(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	var unhealthy []string
	for _, e := range entries {
		if e.ingestErrs.Load() > 0 {
			unhealthy = append(unhealthy, e.tenant+"/"+e.stream)
		}
	}
	slices.Sort(unhealthy)
	status, code := "ok", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case len(unhealthy) > 0:
		status = "degraded"
	}
	writeJSON(w, code, struct {
		Status    string   `json:"status"`
		Streams   int      `json:"streams"`
		Unhealthy []string `json:"unhealthy,omitempty"`
	}{status, len(entries), unhealthy})
}
