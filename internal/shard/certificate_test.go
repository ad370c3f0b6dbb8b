package shard

import (
	"math"
	"testing"

	"gpustream/internal/oracle"
	"gpustream/internal/quantile"
	"gpustream/internal/stream"
)

// TestShardViewsCarryTheirCertificates: every shard's view has its own
// certificate as Eps, within the shards' eps. At K = 1 the parallel view is
// that shard's view; at K = 3 and under an elastic schedule it is their
// merge, which claims the largest shard Eps (the GK merge rule, retired
// shards included) and so bounds its own certificate. Every view answers
// every rank within its certificate.
func TestShardViewsCarryTheirCertificates(t *testing.T) {
	t.Parallel()
	const eps = 0.02
	const chunk = 25_000
	data := stream.Zipf(4*chunk, 1.2, 1005, 9)
	for _, tc := range []struct {
		name string
		k    int
		cfg  Config[float32]
	}{
		{"K=1", 1, Config[float32]{Batch: 1000}},
		{"K=3", 3, Config[float32]{Batch: 1000}},
		{"elastic", 1, Config[float32]{Batch: 1000, Rescaler: &stepRescaler{after: chunk / 2, steps: []int{3, 2, 4}}}},
	} {
		q := NewQuantile(eps, tc.k, cpuSorter, tc.cfg)
		for fed := chunk; fed <= len(data); fed += chunk {
			if err := q.ProcessSlice(data[fed-chunk : fed]); err != nil {
				t.Fatal(err)
			}
			v := q.Summary()
			claimed := 0.0
			q.mu.RLock()
			if q.retired != nil {
				claimed = q.retired.Summary().Eps
			}
			for _, est := range q.ests {
				s := est.Snapshot().(*quantile.Snapshot[float32]).Summary()
				if s == nil {
					continue
				}
				if s.Eps != s.Certificate() || !(s.Eps <= q.ShardEps()) {
					t.Fatalf("%s after %d: a shard view claims %v, certifies %v, shard eps %v", tc.name, fed, s.Eps, s.Certificate(), q.ShardEps())
				}
				claimed = math.Max(claimed, s.Eps)
			}
			q.mu.RUnlock()
			c := v.Certificate()
			if v.Eps != claimed || !(c <= v.Eps) || (tc.name == "K=1" && c != v.Eps) {
				t.Fatalf("%s after %d: view claims %v (shards %v) and certifies %v", tc.name, fed, v.Eps, claimed, c)
			}
			if d := oracle.New(data[:fed]).WorstRank(v.QueryRank, oracle.Every(v.N)); float64(d)/float64(v.N) > c {
				t.Fatalf("%s after %d: an answer is %d ranks off, certificate %v", tc.name, fed, d, c)
			}
		}
		q.Close()
	}
}
