package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"gpustream/internal/pipeline"
)

// flipRescaler scripts a 4 <-> 1 reshard schedule: four shards for `every`
// ingested values (long enough for the round-robin to feed all of them),
// then one, and so on. Each scale-down moves three shards' telemetry from
// the live set into the retired accumulator.
type flipRescaler struct{ every int64 }

func (r flipRescaler) Observe(total int64, shards int) int {
	want := 4
	if (total/r.every)%2 == 1 {
		want = 1
	}
	if want == shards {
		return 0
	}
	return want
}

// TestStatsMonotoneUnderReshard polls Stats() while a scripted reshard
// schedule retires shards under it. Live and retired telemetry must be read
// as one consistent aggregate: a reader that saw the victims both in the
// live set and in the retired accumulator would report more windows than
// were ever sealed, and the next reading would drop back.
func TestStatsMonotoneUnderReshard(t *testing.T) {
	type estimator interface {
		ProcessSlice([]float32) error
		Close() error
		Stats() pipeline.Stats
	}
	const batch = 256
	batches := 400
	if testing.Short() {
		batches = 150
	}
	for _, tc := range []struct {
		name string
		mk   func() estimator
	}{
		{"frequency", func() estimator {
			return NewFrequency(0.01, 1, cpuSorter, Config[float32]{Batch: batch, Rescaler: flipRescaler{every: 8 * batch}})
		}},
		{"quantile", func() estimator {
			return NewQuantile(0.01, 1, cpuSorter, Config[float32]{Batch: batch, Rescaler: flipRescaler{every: 8 * batch}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			est := tc.mk()
			data := genStream(rand.New(rand.NewSource(21)), batch*batches, 1)

			var (
				stop atomic.Bool
				wg   sync.WaitGroup
				high pipeline.Stats // the largest reading the poller saw
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					st := est.Stats()
					if st.Windows < high.Windows || st.SortedValues < high.SortedValues {
						t.Errorf("Stats went backwards: windows %d -> %d, sorted %d -> %d",
							high.Windows, st.Windows, high.SortedValues, st.SortedValues)
						return
					}
					high = st
				}
			}()
			err := est.ProcessSlice(data)
			if err == nil {
				err = est.Close()
			}
			stop.Store(true)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			final := est.Stats()
			if final.SortedValues != int64(len(data)) {
				t.Fatalf("final SortedValues = %d, want %d", final.SortedValues, len(data))
			}
			if high.Windows > final.Windows || high.SortedValues > final.SortedValues {
				t.Fatalf("mid-stream Stats exceeded the final totals: windows %d > %d or sorted %d > %d",
					high.Windows, final.Windows, high.SortedValues, final.SortedValues)
			}
		})
	}
}
