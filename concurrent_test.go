package gpustream_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"gpustream"
	"gpustream/internal/stream"
)

// The concurrent-query contract: one writer and any number of query
// goroutines may share an estimator; live queries are synchronized with
// ingestion, Snapshot() views are immutable, and lifecycle misuse reports
// errors instead of panicking. These tests are the -race workout for all
// six estimator families.

const (
	hammerEps     = 0.01
	hammerWindow  = 50_000
	hammerReaders = 4
)

// hammerN picks the writer's stream length: 1M un-short (the acceptance
// bar), scaled down for -short runs.
func hammerN() int {
	if testing.Short() {
		return 120_000
	}
	return 1_000_000
}

// families enumerates the six estimator families over a CPU-backed engine,
// each twice: synchronous under its own name, and on the staged executor
// (WithAsyncIngestion, applied per shard on the parallel families) under
// name+"-async", where the readers' barriers merge the window the writer
// left pending.
func families(eng *gpustream.Engine[float32]) map[string]func() gpustream.Estimator[float32] {
	m := map[string]func() gpustream.Estimator[float32]{}
	for _, async := range []bool{false, true} {
		var eo []gpustream.EstimatorOption
		suffix := ""
		if async {
			eo = []gpustream.EstimatorOption{gpustream.WithAsyncIngestion()}
			suffix = "-async"
		}
		m["frequency"+suffix] = func() gpustream.Estimator[float32] { return eng.NewFrequencyEstimator(hammerEps, eo...) }
		m["quantile"+suffix] = func() gpustream.Estimator[float32] { return eng.NewQuantileEstimator(hammerEps, eo...) }
		m["sliding-frequency"+suffix] = func() gpustream.Estimator[float32] {
			return eng.NewSlidingFrequency(hammerEps, hammerWindow, eo...)
		}
		m["sliding-quantile"+suffix] = func() gpustream.Estimator[float32] {
			return eng.NewSlidingQuantile(hammerEps, hammerWindow, eo...)
		}
		m["parallel-frequency"+suffix] = func() gpustream.Estimator[float32] {
			return eng.NewParallelFrequencyEstimator(hammerEps, 2, append([]gpustream.EstimatorOption{gpustream.WithBatchSize(1 << 14)}, eo...)...)
		}
		m["parallel-quantile"+suffix] = func() gpustream.Estimator[float32] {
			return eng.NewParallelQuantileEstimator(hammerEps, 2, append([]gpustream.EstimatorOption{gpustream.WithBatchSize(1 << 14)}, eo...)...)
		}
	}
	return m
}

// liveQuery exercises the family-specific live query surface, which must be
// safe mid-ingestion. Quantile queries panic on an empty stream by
// contract, so they are gated on Count.
func liveQuery(est gpustream.Estimator[float32], probe float32) {
	switch e := est.(type) {
	case *gpustream.FrequencyEstimator[float32]:
		e.Query(0.02)
		e.Estimate(probe)
	case *gpustream.QuantileEstimator[float32]:
		if e.Count() > 0 {
			e.Query(0.5)
		}
	case *gpustream.SlidingFrequency[float32]:
		e.Query(0.02)
		e.Estimate(probe)
		e.QueryWindow(0.02, hammerWindow/2)
	case *gpustream.SlidingQuantile[float32]:
		if e.Count() > 0 {
			e.Query(0.5)
			e.QueryWindow(0.5, hammerWindow/2)
		}
	case *gpustream.ParallelFrequencyEstimator[float32]:
		e.Query(0.02)
		e.Estimate(probe)
	case *gpustream.ParallelQuantileEstimator[float32]:
		if e.Count() > 0 {
			e.Query(0.5)
		}
	}
}

// TestConcurrentQueryDuringIngest runs, for every family in both execution
// modes, four reader goroutines issuing live queries, stats reads, and
// snapshots while one writer ingests the full stream. Run under -race this
// is the publication-protocol check, and in async mode it races readers
// that merge pending windows against the writer that seals them.
func TestConcurrentQueryDuringIngest(t *testing.T) {
	n := hammerN()
	data := stream.Zipf(n, 1.2, 5000, 42)
	probe := data[0]
	eng := gpustream.New(gpustream.BackendCPU)
	for name, mk := range families(eng) {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			est := mk()
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < hammerReaders; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						v := est.Snapshot()
						if v.Count() < 0 || v.Size() < 0 {
							t.Error("negative snapshot dimensions")
							return
						}
						if q, ok := v.Quantile(0.5); ok && q != q { // NaN guard
							t.Error("NaN quantile")
							return
						}
						if _, ok := v.HeavyHitters(0.02); ok {
							v.Frequency(probe)
						}
						st := est.Stats()
						if st.SortedValues < 0 {
							t.Error("torn stats")
							return
						}
						liveQuery(est, probe)
						est.Count()
						// Yield so the single writer is not starved on
						// small GOMAXPROCS hosts.
						time.Sleep(200 * time.Microsecond)
					}
				}()
			}
			for off := 0; off < len(data); off += 4096 {
				end := off + 4096
				if end > len(data) {
					end = len(data)
				}
				if err := est.ProcessSlice(data[off:end]); err != nil {
					t.Errorf("ProcessSlice: %v", err)
					break
				}
			}
			close(done)
			wg.Wait()
			if err := est.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := est.Count(); got != int64(len(data)) {
				t.Fatalf("Count = %d, want %d", got, len(data))
			}
		})
	}
}

// prefixAnswers probes a snapshot and a serial estimator stopped at the
// same prefix with the same queries; the two answer sets must be
// bit-identical.
func snapshotVsSerial(t *testing.T, name string, snap gpustream.Snapshot[float32], serial gpustream.Estimator[float32]) {
	t.Helper()
	sv := serial.Snapshot()
	if snap.Count() != sv.Count() {
		t.Fatalf("%s: snapshot Count %d != serial %d", name, snap.Count(), sv.Count())
	}
	for _, phi := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
		a, aok := snap.Quantile(phi)
		b, bok := sv.Quantile(phi)
		if aok != bok || a != b {
			t.Fatalf("%s: Quantile(%g) = (%v,%v) != serial (%v,%v)", name, phi, a, aok, b, bok)
		}
	}
	for _, sp := range []float64{0, 0.01, 0.05} {
		a, aok := snap.HeavyHitters(sp)
		b, bok := sv.HeavyHitters(sp)
		if aok != bok || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: HeavyHitters(%g) diverged (%d vs %d items)", name, sp, len(a), len(b))
		}
	}
	for v := float32(0); v < 32; v++ {
		a, aok := snap.Frequency(v)
		b, bok := sv.Frequency(v)
		if aok != bok || a != b {
			t.Fatalf("%s: Frequency(%v) = (%d,%v) != serial (%d,%v)", name, v, a, aok, b, bok)
		}
	}
}

// TestSnapshotMatchesSerialPrefix is the acceptance check: a Snapshot taken
// at a stream prefix answers bit-identically to a serial estimator that
// stopped ingesting at that prefix, even though the snapshotted estimator
// keeps ingesting. Parallel families run K=1, where output is bit-identical
// to serial by construction.
func TestSnapshotMatchesSerialPrefix(t *testing.T) {
	const n = 200_000
	prefix := n/2 + 137 // deliberately not window-aligned
	data := stream.Zipf(n, 1.2, 2000, 7)
	eng := gpustream.New(gpustream.BackendCPU)

	cases := map[string][2]func() gpustream.Estimator[float32]{
		"frequency": {
			func() gpustream.Estimator[float32] { return eng.NewFrequencyEstimator(hammerEps) },
			func() gpustream.Estimator[float32] { return eng.NewFrequencyEstimator(hammerEps) },
		},
		"quantile": {
			func() gpustream.Estimator[float32] { return eng.NewQuantileEstimator(hammerEps) },
			func() gpustream.Estimator[float32] { return eng.NewQuantileEstimator(hammerEps) },
		},
		"sliding-frequency": {
			func() gpustream.Estimator[float32] { return eng.NewSlidingFrequency(hammerEps, hammerWindow) },
			func() gpustream.Estimator[float32] { return eng.NewSlidingFrequency(hammerEps, hammerWindow) },
		},
		"sliding-quantile": {
			func() gpustream.Estimator[float32] { return eng.NewSlidingQuantile(hammerEps, hammerWindow) },
			func() gpustream.Estimator[float32] { return eng.NewSlidingQuantile(hammerEps, hammerWindow) },
		},
		"parallel-frequency": {
			func() gpustream.Estimator[float32] {
				return eng.NewParallelFrequencyEstimator(hammerEps, 1, gpustream.WithBatchSize(1<<12))
			},
			func() gpustream.Estimator[float32] { return eng.NewFrequencyEstimator(hammerEps) },
		},
		"parallel-quantile": {
			func() gpustream.Estimator[float32] {
				return eng.NewParallelQuantileEstimator(hammerEps, 1, gpustream.WithBatchSize(1<<12))
			},
			func() gpustream.Estimator[float32] { return eng.NewQuantileEstimator(hammerEps) },
		},
	}
	for name, mk := range cases {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			live, serial := mk[0](), mk[1]()
			if err := live.ProcessSlice(data[:prefix]); err != nil {
				t.Fatal(err)
			}
			snap := live.Snapshot()
			// The live estimator moves on; the snapshot must not.
			if err := live.ProcessSlice(data[prefix:]); err != nil {
				t.Fatal(err)
			}
			if err := serial.ProcessSlice(data[:prefix]); err != nil {
				t.Fatal(err)
			}
			snapshotVsSerial(t, name, snap, serial)
		})
	}
}

// TestSnapshotImmutableAfterMoreIngest records a snapshot's answers, drives
// enough further ingestion to recycle every buffer the snapshot could alias
// (window swaps, pane expiry), closes the estimator, and checks the
// snapshot still gives the recorded answers.
func TestSnapshotImmutableAfterMoreIngest(t *testing.T) {
	const n = 150_000
	data := stream.Zipf(n, 1.2, 2000, 11)
	eng := gpustream.New(gpustream.BackendCPU)
	for name, mk := range families(eng) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			est := mk()
			if err := est.ProcessSlice(data[:n/3]); err != nil {
				t.Fatal(err)
			}
			snap := est.Snapshot()
			record := func() (int64, int, []gpustream.Item[float32], float32) {
				hh, _ := snap.HeavyHitters(0.02)
				q, _ := snap.Quantile(0.5)
				return snap.Count(), snap.Size(), hh, q
			}
			c0, s0, hh0, q0 := record()
			if err := est.ProcessSlice(data[n/3:]); err != nil {
				t.Fatal(err)
			}
			if err := est.Close(); err != nil {
				t.Fatal(err)
			}
			c1, s1, hh1, q1 := record()
			if c0 != c1 || s0 != s1 || q0 != q1 || !reflect.DeepEqual(hh0, hh1) {
				t.Fatalf("snapshot mutated: count %d->%d size %d->%d q %v->%v hh %d->%d items",
					c0, c1, s0, s1, q0, q1, len(hh0), len(hh1))
			}
		})
	}
}

// TestLifecycleErrors replaces the panic-on-ingest-after-Close contract:
// closed estimators report ErrClosed from ingestion, stay queryable, and
// tolerate redundant Flush/Close.
func TestLifecycleErrors(t *testing.T) {
	data := stream.Zipf(30_000, 1.2, 500, 13)
	eng := gpustream.New(gpustream.BackendCPU)
	for name, mk := range families(eng) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			est := mk()
			if err := est.ProcessSlice(data); err != nil {
				t.Fatalf("ProcessSlice: %v", err)
			}
			if err := est.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if err := est.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := est.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if err := est.Flush(); err != nil {
				t.Fatalf("Flush after Close: %v", err)
			}
			if err := est.Process(1); !errors.Is(err, gpustream.ErrClosed) {
				t.Fatalf("Process after Close = %v, want ErrClosed", err)
			}
			if err := est.ProcessSlice(data[:2]); !errors.Is(err, gpustream.ErrClosed) {
				t.Fatalf("ProcessSlice after Close = %v, want ErrClosed", err)
			}
			if got := est.Count(); got != int64(len(data)) {
				t.Fatalf("rejected ingestion changed Count to %d", got)
			}
			// Still queryable after Close, including fresh snapshots.
			v := est.Snapshot()
			if v.Count() != int64(len(data)) {
				t.Fatalf("post-Close snapshot Count = %d", v.Count())
			}
			liveQuery(est, data[0])
		})
	}
}

// TestCloseContext exercises the parallel estimators' deadline-aware drain:
// a live context drains everything; an expired context abandons the
// un-handed-off buffer, reports the context error, and leaves the estimator
// closed but queryable.
func TestCloseContext(t *testing.T) {
	eng := gpustream.New(gpustream.BackendCPU)
	data := stream.Zipf(100_000, 1.2, 1000, 17)

	t.Run("drains", func(t *testing.T) {
		est := eng.NewParallelQuantileEstimator(hammerEps, 4, gpustream.WithBatchSize(1<<12))
		if err := est.ProcessSlice(data); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := est.CloseContext(ctx); err != nil {
			t.Fatalf("CloseContext: %v", err)
		}
		if est.Count() != int64(len(data)) {
			t.Fatalf("Count = %d after drained close", est.Count())
		}
		est.Query(0.5)
	})

	t.Run("expired", func(t *testing.T) {
		// A batch size larger than the stream keeps every value in the
		// hand-off buffer, so an already-cancelled context must drop them.
		est := eng.NewParallelFrequencyEstimator(hammerEps, 2, gpustream.WithBatchSize(1<<20))
		if err := est.ProcessSlice(data); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := est.CloseContext(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CloseContext = %v, want context.Canceled", err)
		}
		if est.Count() != 0 {
			t.Fatalf("dropped values still counted: Count = %d", est.Count())
		}
		if err := est.Process(1); !errors.Is(err, gpustream.ErrClosed) {
			t.Fatalf("Process after abandoned Close = %v, want ErrClosed", err)
		}
		if items := est.Query(0); items != nil {
			t.Fatalf("abandoned close left queryable state: %v", items)
		}
	})

	t.Run("idempotent", func(t *testing.T) {
		est := eng.NewParallelQuantileEstimator(hammerEps, 2)
		if err := est.Close(); err != nil {
			t.Fatal(err)
		}
		if err := est.CloseContext(context.Background()); err != nil {
			t.Fatalf("CloseContext after Close: %v", err)
		}
	})
}

// TestEngineStatsConsistentMidIngest reads Engine[float32].Stats concurrently with
// serial-estimator ingestion; every report must be internally consistent
// (counters move together under the estimator lock).
func TestEngineStatsConsistentMidIngest(t *testing.T) {
	eng := gpustream.New(gpustream.BackendCPU)
	fe := eng.NewFrequencyEstimator(hammerEps)
	qe := eng.NewQuantileEstimator(hammerEps)
	data := stream.Zipf(200_000, 1.2, 2000, 19)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, es := range eng.Stats() {
				st := es.Stats
				if st.SortedValues > 0 && st.Windows == 0 {
					t.Errorf("%s: torn stats: %d sorted values but 0 windows", es.Kind, st.SortedValues)
					return
				}
			}
		}
	}()
	for off := 0; off < len(data); off += 1024 {
		end := off + 1024
		if end > len(data) {
			end = len(data)
		}
		_ = fe.ProcessSlice(data[off:end])
		_ = qe.ProcessSlice(data[off:end])
	}
	close(done)
	wg.Wait()
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	if err := qe.Close(); err != nil {
		t.Fatal(err)
	}
	all := eng.Stats()
	if len(all) != 2 || all[0].Stats.SortedValues != int64(len(data)) {
		t.Fatalf("final stats: %+v", all)
	}
}
