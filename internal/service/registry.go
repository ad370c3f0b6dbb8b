package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"gpustream"
)

// entry is one live stream: its spec, a dedicated engine + estimator, and
// its turn. Every estimator family is built for one writer and any number
// of readers, so a POST ingests its own batch while it holds the turn and
// queries read copy-on-write snapshots beside it.
type entry[T gpustream.Value] struct {
	tenant, stream string
	spec           gpustream.Spec
	eng            *gpustream.Engine[T]
	est            gpustream.Estimator[T]
	created        time.Time
	ctr            *counters
	pool           *batchPool[T]

	// turn is the stream's ingest lock, a one-slot channel so that a POST
	// can wait for it under its request context: a send takes the turn, a
	// receive gives it back. closing is read and written only by its holder.
	turn    chan struct{}
	closing bool

	rows       atomic.Int64 // rows taken under the turn
	batches    atomic.Int64 // batches taken under the turn
	ingestErrs atomic.Int64 // ProcessSlice failures
	waiting    atomic.Int64 // POSTs waiting for the turn right now
	stallNs    atomic.Int64 // ns POSTs spent waiting for the turn
	lastUsed   atomic.Int64 // unix nanos of the last ingest or query
}

// batch is one decoded POST body, recycled through a batchPool.
type batch[T gpustream.Value] struct{ data []T }

// batchPool recycles batches — above all their data slices — between the
// handlers that fill them.
type batchPool[T gpustream.Value] struct{ p sync.Pool }

func (bp *batchPool[T]) get() *batch[T] {
	if b, ok := bp.p.Get().(*batch[T]); ok {
		return b
	}
	return new(batch[T])
}

// put recycles b. The caller must be done with b.data: the next get hands
// the same backing array to another request. A slice grown past
// maxPooledBytes (at 8 bytes a row, the widest) is left to the collector.
func (bp *batchPool[T]) put(b *batch[T]) {
	if cap(b.data) > maxPooledBytes/8 {
		return
	}
	b.data = b.data[:0]
	bp.p.Put(b)
}

// touch refreshes the idle clock.
func (e *entry[T]) touch() { e.lastUsed.Store(time.Now().UnixNano()) }

// takeTurn waits for the stream's turn under ctx. Only a wait that had to
// block counts as stall.
func (e *entry[T]) takeTurn(ctx context.Context) error {
	select {
	case e.turn <- struct{}{}:
		return nil
	default:
	}
	start := time.Now()
	e.waiting.Add(1)
	defer e.waiting.Add(-1)
	select {
	case e.turn <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	d := int64(time.Since(start))
	e.stallNs.Add(d)
	e.ctr.enqueueStall.Add(d)
	return nil
}

// ingest runs b through the estimator under the stream's turn, waiting for
// the turn under ctx, and returns b to the pool: every estimator's
// ProcessSlice copies what it keeps (the Estimator contract: "the caller
// may reuse the slice immediately"). It returns errClosing once the stream
// drains, ctx's error if the wait ends first, and the estimator's error
// wrapped in errIngest. On a nil return the batch is queryable.
func (e *entry[T]) ingest(ctx context.Context, b *batch[T]) error {
	defer e.pool.put(b)
	if err := e.takeTurn(ctx); err != nil {
		return err
	}
	defer func() { <-e.turn }()
	if e.closing {
		return errClosing
	}
	// Rows and batches count, per stream and per server alike, what the
	// turn took; ingest_errors counts the batches the estimator refused.
	rows := int64(len(b.data))
	e.rows.Add(rows)
	e.batches.Add(1)
	e.ctr.ingestRows.Add(rows)
	e.ctr.ingestBatches.Add(1)
	e.touch()
	if err := e.est.ProcessSlice(b.data); err != nil {
		e.ingestErrs.Add(1)
		return fmt.Errorf("%w: %v", errIngest, err)
	}
	return nil
}

// drain closes the ingestion path and the estimator. It takes the turn
// without a deadline — the batch in flight is at most MaxBatchRows rows —
// and sets closing, so every batch a POST was told about is in the
// estimator and no ProcessSlice runs from here on. Then CloseContext (where
// the family has one — the sharded estimators' context-aware drain) or
// Close. It is idempotent and safe to call concurrently (DELETE racing
// shutdown).
func (e *entry[T]) drain(ctx context.Context) error {
	e.turn <- struct{}{}
	e.closing = true
	<-e.turn
	if cc, ok := e.est.(interface{ CloseContext(context.Context) error }); ok {
		return cc.CloseContext(ctx)
	}
	return e.est.Close()
}

// registry is the tenant/stream table: creation, lookup, LRU and idle
// eviction, and the drain-everything shutdown path.
type registry[T gpustream.Value] struct {
	cfg     *Config
	ctr     *counters
	batches batchPool[T]

	mu      sync.RWMutex
	streams map[string]*entry[T]
}

func newRegistry[T gpustream.Value](cfg *Config, ctr *counters) *registry[T] {
	return &registry[T]{cfg: cfg, ctr: ctr, streams: make(map[string]*entry[T])}
}

func (r *registry[T]) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.streams)
}

// get returns the live entry and refreshes its idle clock.
func (r *registry[T]) get(tenant, stream string) (*entry[T], bool) {
	r.mu.RLock()
	e, ok := r.streams[streamKey(tenant, stream)]
	r.mu.RUnlock()
	if ok {
		e.touch()
	}
	return e, ok
}

// create builds the stream described by spec under its own engine (bound to
// spec.Backend). Re-creating an existing
// stream is idempotent when the spec matches and errConflict when it does
// not. At capacity, the least-recently-used stream is evicted first —
// drained with the configured DrainTimeout and spilled like any other
// drain.
func (r *registry[T]) create(tenant, stream string, spec gpustream.Spec) (*entry[T], bool, error) {
	e, victim, created, err := r.insert(tenant, stream, spec)
	if !created {
		return e, false, err
	}
	if victim != nil {
		r.ctr.evictions.Add(1)
		r.finish(victim)
	}
	return e, true, nil
}

// insert is create's work under r.mu: the existing entry, or a new one
// linked in with the LRU victim it displaced unlinked. r.mu is released on
// every path, a panicking constructor's included, so one bad request cannot
// wedge every later one.
func (r *registry[T]) insert(tenant, stream string, spec gpustream.Spec) (e, victim *entry[T], created bool, err error) {
	key := streamKey(tenant, stream)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.streams[key]; ok {
		if reflect.DeepEqual(old.spec, spec) {
			return old, nil, false, nil
		}
		return nil, nil, false, fmt.Errorf("%w: %s", errConflict, key)
	}
	eng := gpustream.NewOf[T](spec.Backend)
	est, err := eng.NewFromSpec(spec)
	if err != nil {
		return nil, nil, false, err
	}
	if len(r.streams) >= r.cfg.MaxStreams {
		victim = r.lruLocked()
		if victim != nil {
			delete(r.streams, streamKey(victim.tenant, victim.stream))
		}
	}
	e = &entry[T]{
		tenant: tenant, stream: stream, spec: spec,
		eng: eng, est: est, created: time.Now(), ctr: r.ctr, pool: &r.batches,
		turn: make(chan struct{}, 1),
	}
	e.touch()
	r.streams[key] = e
	return e, victim, true, nil
}

// lruLocked picks the least-recently-used entry. Caller holds r.mu.
func (r *registry[T]) lruLocked() *entry[T] {
	var oldest *entry[T]
	var oldestUsed int64
	for _, e := range r.streams {
		if used := e.lastUsed.Load(); oldest == nil || used < oldestUsed {
			oldest, oldestUsed = e, used
		}
	}
	return oldest
}

// remove unlinks a stream; the caller drains it.
func (r *registry[T]) remove(tenant, stream string) (*entry[T], bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := streamKey(tenant, stream)
	e, ok := r.streams[key]
	if ok {
		delete(r.streams, key)
	}
	return e, ok
}

// list snapshots the live entries for /statsz and shutdown.
func (r *registry[T]) list() []*entry[T] {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*entry[T], 0, len(r.streams))
	for _, e := range r.streams {
		out = append(out, e)
	}
	return out
}

// sweepIdle evicts every stream idle longer than ttl.
func (r *registry[T]) sweepIdle(ttl time.Duration) {
	cutoff := time.Now().Add(-ttl).UnixNano()
	var idle []*entry[T]
	r.mu.Lock()
	for key, e := range r.streams {
		if e.lastUsed.Load() < cutoff {
			idle = append(idle, e)
			delete(r.streams, key)
		}
	}
	r.mu.Unlock()
	for _, e := range idle {
		r.ctr.idleEvictions.Add(1)
		r.finish(e)
	}
}

// finish drains one unlinked entry with the configured timeout and spills
// its final snapshot. Used by DELETE, eviction, and shutdown.
func (r *registry[T]) finish(e *entry[T]) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.DrainTimeout)
	defer cancel()
	return r.finishContext(ctx, e)
}

// finishContext is finish with a caller-supplied deadline.
func (r *registry[T]) finishContext(ctx context.Context, e *entry[T]) error {
	err := e.drain(ctx)
	r.ctr.drained.Add(1)
	if serr := r.spill(e); serr != nil && err == nil {
		err = serr
	}
	return err
}

// spill writes e's final snapshot to SpillDir in the wire format. The
// estimator stays queryable after Close, so the snapshot reflects
// every batch a POST was told about. The file is <tenant>.<stream>.snap: the
// dot is outside validName's alphabet, so no two (tenant, stream) pairs
// share a file (an in-alphabet separator let ("a_", "b") and ("a", "_b")
// overwrite each other). It is replaced atomically (writeAtomic), so a
// spill that fails leaves the previous one whole.
func (r *registry[T]) spill(e *entry[T]) error {
	if r.cfg.SpillDir == "" {
		return nil
	}
	blob, err := gpustream.MarshalSnapshot[T](e.est.Snapshot())
	if err == nil {
		err = writeAtomic(r.cfg.SpillDir, e.tenant+"."+e.stream+".snap", blob)
	}
	if err != nil {
		return fmt.Errorf("service: spill %s/%s: %w", e.tenant, e.stream, err)
	}
	r.ctr.spills.Add(1)
	return nil
}

// writeAtomic replaces dir/name with blob so that a reader, or a restart
// after a crash, finds either the old file or the new one, never a torn
// mix: it writes a temp file of its own in dir, syncs it, renames it over
// dir/name and syncs dir so the rename is durable. Each call's temp file
// is unique (os.CreateTemp), so two spills of one name at once — a
// re-created stream deleted while its predecessor drains — cannot rename
// or truncate each other's; the last rename wins, whole. On a failure after
// the temp file was created it removes the temp file; dir/name is
// untouched until the rename.
func writeAtomic(dir, name string, blob []byte) error {
	f, err := createTemp(dir, name+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(blob)
	if err = errors.Join(err, f.Chmod(0o644), f.Sync(), f.Close()); err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// createTemp is os.CreateTemp, a variable so that a test can make a spill
// fail after its temp file exists.
var createTemp = os.CreateTemp

// drainAll unlinks every stream and drains them concurrently under one
// shared deadline, joining errors. Thousands of tenants drain in parallel;
// each stream's CloseContext bounds its own shard fan-in under ctx.
func (r *registry[T]) drainAll(ctx context.Context) error {
	r.mu.Lock()
	entries := make([]*entry[T], 0, len(r.streams))
	for _, e := range r.streams {
		entries = append(entries, e)
	}
	r.streams = make(map[string]*entry[T])
	r.mu.Unlock()

	errs := make([]error, len(entries))
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.finishContext(ctx, e)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
