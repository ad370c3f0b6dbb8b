package shard

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestCloseContextDrains: a generous deadline behaves exactly like Close —
// everything buffered and in flight lands in the shard estimators.
func TestCloseContextDrains(t *testing.T) {
	t.Parallel()
	var processed atomic.Int64
	p := newPool[float32]([]func([]float32){
		func(b []float32) { processed.Add(int64(len(b))) },
		func(b []float32) { processed.Add(int64(len(b))) },
	}, 8, nil)
	for i := 0; i < 100; i++ {
		if err := p.Process(float32(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := p.CloseContext(ctx); err != nil {
		t.Fatalf("CloseContext: %v", err)
	}
	if processed.Load() != 100 || p.Count() != 100 {
		t.Fatalf("processed=%d count=%d, want 100", processed.Load(), p.Count())
	}
	if err := p.Process(1); !errors.Is(err, errClosed) {
		t.Fatalf("Process after CloseContext = %v", err)
	}
}

// TestCloseContextBackpressure wedges the single worker so its channel
// fills, then closes with a short deadline: the drain must give up, drop
// the un-handed-off buffer from the count, and still mark the pool[float32] closed.
// The values already dispatched are absorbed once the worker unblocks.
func TestCloseContextBackpressure(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	var processed atomic.Int64
	p := newPool[float32]([]func([]float32){func(b []float32) {
		<-release
		processed.Add(int64(len(b)))
	}}, 4, nil)

	// 12 values = 3 batches: one held by the blocked worker, two filling
	// the channel buffer. 3 more stay in the hand-off buffer — dispatching
	// them would block, so the expiring CloseContext must drop them.
	for i := 0; i < 15; i++ {
		if err := p.Process(float32(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.CloseContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseContext = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("CloseContext blocked %v past its deadline", waited)
	}
	if p.Count() != 12 {
		t.Fatalf("Count = %d, want 12 (3 undispatched values dropped)", p.Count())
	}
	if err := p.Process(1); !errors.Is(err, errClosed) {
		t.Fatalf("Process after abandoned close = %v", err)
	}

	// Unblock the worker: the dispatched batches drain and the goroutine
	// exits via its closed channel.
	close(release)
	p.wg.Wait()
	if processed.Load() != 12 {
		t.Fatalf("processed = %d after release, want 12", processed.Load())
	}
}

// TestCloseContextWaitExpiry covers the cond-wait path: the buffer is
// empty but batches are in flight behind a wedged worker, so CloseContext
// must wake from its drain wait when the context expires.
func TestCloseContextWaitExpiry(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	p := newPool[float32]([]func([]float32){func(b []float32) { <-release }}, 4, nil)
	for i := 0; i < 12; i++ { // exactly 3 dispatched batches, empty buffer
		if err := p.Process(float32(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.CloseContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseContext = %v, want context.DeadlineExceeded", err)
	}
	if p.Count() != 12 {
		t.Fatalf("Count = %d, want 12 (dispatched batches stay counted)", p.Count())
	}
	close(release)
	p.wg.Wait()
}
