// Command streamd is the multi-tenant streaming estimation daemon: tenants
// create named streams from declarative estimator specs (PUT a
// gpustream.Spec), POST batches of values, and GET eps-approximate answers
// (quantiles, heavy hitters, point frequencies) served from copy-on-write
// snapshots so queries never block ingestion.
//
//	streamd -addr :8080 -type float32 -spill /var/lib/streamd
//
// A POST is ingested before it is answered, under its stream's turn (one
// batch in an estimator at a time), so every 202 or 200 reply means the
// batch is queryable and will be in the stream's final snapshot (unless a
// sharded stream's drain runs out of time, which the drain reports). On
// SIGTERM/SIGINT the daemon stops accepting connections, drains every
// stream's estimator concurrently, and spills each final snapshot to the
// spill directory as <tenant>.<stream>.snap in the versioned wire format
// (readable by cmd/snapmerge and gpustream.UnmarshalSnapshot).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpustream/internal/service"
)

// instance is the type-erased face of service.Server[T]: the daemon picks
// the value type at startup (-type), the HTTP surface is type-independent.
type instance interface {
	http.Handler
	Drain(context.Context) error
	Streams() int
}

// Connection timeouts, so a client that stalls cannot hold a connection —
// and the pooled body buffer a half-read POST occupies — for ever. All three
// bound reads only: the read deadline is lifted once a request's body is in,
// so a POST waiting for its stream's turn or a DELETE waiting out a drain
// is not cut short, and no WriteTimeout is set for the same reason.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute // headers + body; 32 MiB at 0.5 MiB/s
	idleTimeout       = 2 * time.Minute
)

func build(typ string, cfg service.Config) (instance, error) {
	switch typ {
	case "float32":
		return service.New[float32](cfg), nil
	case "float64":
		return service.New[float64](cfg), nil
	case "uint32":
		return service.New[uint32](cfg), nil
	case "uint64":
		return service.New[uint64](cfg), nil
	case "int32":
		return service.New[int32](cfg), nil
	case "int64":
		return service.New[int64](cfg), nil
	default:
		return nil, fmt.Errorf("unsupported -type %q (want float32, float64, uint32, uint64, int32, or int64)", typ)
	}
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		typ          = flag.String("type", "float32", "value type for all streams: float32, float64, uint32, uint64, int32, int64")
		spill        = flag.String("spill", "", "directory for final snapshots on drain, one <tenant>.<stream>.snap each (empty: don't spill)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "deadline for draining all streams at shutdown")
		maxStreams   = flag.Int("max-streams", 4096, "stream cap; beyond it the least-recently-used stream is drained and evicted")
		idleTTL      = flag.Duration("idle-ttl", 0, "evict streams idle longer than this (0: never)")
		maxBatch     = flag.Int("max-batch-rows", 1<<20, "largest accepted batch, in rows")
	)
	flag.Parse()

	svc, err := build(*typ, service.Config{
		MaxStreams:   *maxStreams,
		IdleTTL:      *idleTTL,
		MaxBatchRows: *maxBatch,
		DrainTimeout: *drainTimeout,
		SpillDir:     *spill,
	})
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("streamd: serving %s values on %s (max-streams=%d)", *typ, *addr, *maxStreams)

	select {
	case err := <-errc:
		log.Fatalf("streamd: %v", err)
	case <-ctx.Done():
	}

	// Shutdown: stop accepting, finish in-flight requests, then drain and
	// spill every stream under one shared deadline.
	log.Printf("streamd: signal received, draining %d streams (deadline %s)", svc.Streams(), *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("streamd: http shutdown: %v", err)
	}
	if err := svc.Drain(dctx); err != nil {
		log.Fatalf("streamd: drain: %v", err)
	}
	log.Printf("streamd: drained cleanly")
}
