// Package service is the multi-tenant streaming estimation service behind
// cmd/streamd: a long-running stdlib-HTTP daemon where tenants create named
// streams from declarative gpustream.Spec documents, POST batches of values,
// and GET eps-approximate answers served from copy-on-write Snapshot() views
// so queries never block ingestion.
//
// A POST ingests its own batch: the handler decodes it, takes the stream's
// turn (a one-slot lock it waits for under the request context), runs the
// batch through the estimator — which may itself fan out across K shard
// workers or a staged async executor — gives the turn back and replies, so
// every reply carries the estimator's verdict and the service starts no
// goroutine per stream. /statsz exports every estimator's pipeline.Stats
// plus service counters; /healthz reports liveness, drain state and the
// streams whose estimator refused a batch.
// DESIGN.md §18 documents the registry lifecycle and drain
// semantics.
package service

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gpustream"
)

// Config tunes the service. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// MaxStreams caps live streams across all tenants; creating one more
	// evicts the least-recently-used stream (drain + spill) first.
	// Default 4096.
	MaxStreams int
	// IdleTTL evicts streams that have seen no ingest or query for this
	// long. Zero disables idle eviction.
	IdleTTL time.Duration
	// SweepInterval is the idle-eviction janitor cadence. Defaults to
	// IdleTTL/4 (clamped to [1s, 1m]) when IdleTTL is set.
	SweepInterval time.Duration
	// MaxBatchRows rejects POST batches larger than this many rows with
	// 413. It also bounds how long a drain waits for the batch in flight.
	// Default 1 << 20.
	MaxBatchRows int
	// MaxBodyBytes caps request bodies. Default 32 MiB.
	MaxBodyBytes int64
	// DrainTimeout is the default deadline for draining one stream — on
	// DELETE (overridable per request) and per stream during shutdown.
	// Default 30s.
	DrainTimeout time.Duration
	// SpillDir, when non-empty, receives every drained stream's final
	// snapshot as a <tenant>.<stream>.snap file in the versioned wire
	// format (gpustream.MarshalSnapshot), so a restart or a downstream
	// merge tree (cmd/snapmerge) can pick up where the daemon left off.
	// Names cannot contain a dot (validName), so the file name is unique
	// per (tenant, stream).
	SpillDir string
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxStreams <= 0 {
		c.MaxStreams = 4096
	}
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = 1 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.IdleTTL > 0 && c.SweepInterval <= 0 {
		c.SweepInterval = c.IdleTTL / 4
		if c.SweepInterval < time.Second {
			c.SweepInterval = time.Second
		}
		if c.SweepInterval > time.Minute {
			c.SweepInterval = time.Minute
		}
	}
	return c
}

// counters are the service-level metric sink exported by /statsz.
type counters struct {
	requests      atomic.Int64 // HTTP requests served
	ingestRows    atomic.Int64 // rows taken under a stream's turn
	ingestBatches atomic.Int64 // batches taken under a stream's turn
	enqueueStall  atomic.Int64 // ns POSTs spent waiting for a stream's turn
	evictions     atomic.Int64 // LRU (capacity) evictions
	idleEvictions atomic.Int64 // idle-TTL evictions
	drained       atomic.Int64 // streams drained (DELETE, eviction, shutdown)
	spills        atomic.Int64 // snapshots spilled to SpillDir
}

// Server is the multi-tenant streaming service over element type T. It
// implements http.Handler; bind it to an http.Server (cmd/streamd) or an
// httptest server. Create with New, stop with Drain.
type Server[T gpustream.Value] struct {
	cfg   Config
	reg   *registry[T]
	mux   *http.ServeMux
	start time.Time

	draining atomic.Bool
	ctr      counters

	janitorStop chan struct{}
	janitorWG   sync.WaitGroup

	drainOnce sync.Once
	drainErr  error
}

// New returns a ready-to-serve Server with cfg's defaults applied. If
// IdleTTL is set, an eviction janitor goroutine runs until Drain.
func New[T gpustream.Value](cfg Config) *Server[T] {
	s := &Server[T]{
		cfg:         cfg.withDefaults(),
		start:       time.Now(),
		janitorStop: make(chan struct{}),
	}
	s.reg = newRegistry[T](&s.cfg, &s.ctr)
	s.mux = s.routes()
	if s.cfg.IdleTTL > 0 {
		s.janitorWG.Add(1)
		go s.janitor()
	}
	return s
}

// ServeHTTP dispatches to the service routes. During drain, stream
// endpoints answer 503 while /healthz and /statsz keep reporting.
func (s *Server[T]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.ctr.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// janitor periodically evicts idle streams.
func (s *Server[T]) janitor() {
	defer s.janitorWG.Done()
	ticker := time.NewTicker(s.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-ticker.C:
			s.reg.sweepIdle(s.cfg.IdleTTL)
		}
	}
}

// Drain gracefully stops the service: new stream operations are rejected,
// the idle janitor stops, and every live stream is drained concurrently —
// the batch in flight finished under the stream's turn, the estimator
// closed via CloseContext (honoring ctx) where available, and the final
// snapshot spilled to SpillDir. Drain is idempotent; concurrent and
// subsequent calls return the first run's error. The ctx deadline bounds
// the whole drain but for the batches in flight; cmd/streamd calls this on
// SIGTERM.
func (s *Server[T]) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.janitorStop)
		s.janitorWG.Wait()
		s.drainErr = s.reg.drainAll(ctx)
	})
	return s.drainErr
}

// Close drains with the configured DrainTimeout.
func (s *Server[T]) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Drain(ctx)
}

// Streams reports the number of live streams.
func (s *Server[T]) Streams() int { return s.reg.len() }

// validName reports whether a tenant or stream name is acceptable: 1-64
// characters from [A-Za-z0-9_-], so names embed safely in URLs, JSON, and
// spill file names.
func validName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// streamKey is the registry key of one tenant's stream.
func streamKey(tenant, stream string) string { return tenant + "/" + stream }

// errConflict distinguishes a PUT with a different spec from other errors.
var errConflict = fmt.Errorf("service: stream exists with a different spec")

// errClosing is returned by ingest once a stream is draining.
var errClosing = fmt.Errorf("service: stream is draining")

// errIngest wraps the estimator's error when a batch failed in it.
var errIngest = fmt.Errorf("service: ingest failed")
