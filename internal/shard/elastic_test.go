package shard

import (
	"math/rand"
	"testing"

	"gpustream/internal/oracle"
)

// stepRescaler commands a fixed shard-count sequence, one command per
// Observe call once `after` values have been ingested, then keeps.
type stepRescaler struct {
	after int64
	steps []int
	i     int
}

func (r *stepRescaler) Observe(total int64, shards int) int {
	if r.i >= len(r.steps) || total < r.after*int64(r.i+1) {
		return 0
	}
	cmd := r.steps[r.i]
	r.i++
	return cmd
}

// TestElasticQuantileRescale walks a quantile family up and back down
// through scripted rescales and checks the invariants the elastic design
// promises: no values lost, eps holds over the union of live and retired
// shards, the live count tracks the last command, and retired telemetry is
// folded into Stats.
func TestElasticQuantileRescale(t *testing.T) {
	t.Parallel()
	const n = 30_000
	const eps = 0.02
	rng := rand.New(rand.NewSource(11))
	data := genStream(rng, n, 1)

	r := &stepRescaler{after: 4_000, steps: []int{3, 4, 2, 1}}
	q := NewQuantile(eps, int64(n), 1, cpuSorter, Config[float32]{Batch: 1024, Rescaler: r})
	if got := q.ShardEps(); got != eps/2 {
		t.Fatalf("elastic K=1 shard eps = %v, want merge-safe %v", got, eps/2)
	}
	if err := q.ProcessSlice(data); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if r.i != len(r.steps) {
		t.Fatalf("executed %d of %d rescale commands", r.i, len(r.steps))
	}
	if got := q.Shards(); got != 1 {
		t.Fatalf("final shards = %d, want 1", got)
	}
	if got := q.Count(); got != int64(n) {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	truth := oracle.New(data)
	for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if d := truth.Distance(q.Query(phi), oracle.Target(phi, int64(n))); float64(d) > eps*float64(n)+1e-9 {
			t.Errorf("phi=%g: rank error %d > eps*N=%g", phi, d, eps*float64(n))
		}
	}
	// Retired shards' windows fold into the aggregate telemetry: the sum
	// over live + retired must cover every ingested value exactly once.
	if st := q.Stats(); st.SortedValues != int64(n) {
		t.Fatalf("Stats.SortedValues = %d after rescales, want %d", st.SortedValues, n)
	}
	// Snapshot over live + retired shards covers the whole stream too.
	if c := q.Snapshot().Count(); c != int64(n) {
		t.Fatalf("snapshot count = %d, want %d", c, n)
	}
}

// TestElasticFrequencyRescale is the frequency-family analogue: additive
// undercounts across live and retired shards keep the no-overcount /
// bounded-undercount contract through any reshard schedule.
func TestElasticFrequencyRescale(t *testing.T) {
	t.Parallel()
	const n = 30_000
	const eps = 0.01
	rng := rand.New(rand.NewSource(12))
	data := genStream(rng, n, 0)

	r := &stepRescaler{after: 4_000, steps: []int{4, 2, 3}}
	fq := NewFrequency(eps, 2, cpuSorter, Config[float32]{Batch: 1024, Rescaler: r})
	if err := fq.ProcessSlice(data); err != nil {
		t.Fatal(err)
	}
	if err := fq.Close(); err != nil {
		t.Fatal(err)
	}
	if r.i != len(r.steps) {
		t.Fatalf("executed %d of %d rescale commands", r.i, len(r.steps))
	}
	if got := fq.Shards(); got != 3 {
		t.Fatalf("final shards = %d, want 3", got)
	}
	if _, err := oracle.Frequencies(oracle.New(data), fq.Snapshot(), eps, false); err != nil {
		t.Fatal(err)
	}
}

// TestPoolWorkerLifecycle pins the pool's add/remove primitives directly:
// round-robin picks up fresh workers, removal quiesces and joins exactly
// the tail, boundary commands are rejected, and a closed pool refuses both.
func TestPoolWorkerLifecycle(t *testing.T) {
	t.Parallel()
	counts := make([]int64, 4)
	proc := func(i int) func([]float32) {
		return func(b []float32) { counts[i] += int64(len(b)) }
	}
	p := newPool([]func([]float32){proc(0), proc(1)}, 8, nil)

	feed := func(k int) {
		for i := 0; i < k; i++ {
			if err := p.ProcessSlice(make([]float32, 8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(4)
	if !p.addWorkers([]func([]float32){proc(2), proc(3)}) {
		t.Fatal("addWorkers on live pool failed")
	}
	if got := p.Shards(); got != 4 {
		t.Fatalf("Shards after add = %d, want 4", got)
	}
	feed(8) // round-robin must now include workers 2 and 3
	if _, ok := p.removeWorkers(0); ok {
		t.Fatal("removeWorkers(0) succeeded")
	}
	if _, ok := p.removeWorkers(4); ok {
		t.Fatal("removeWorkers(all) succeeded; pool must keep one worker")
	}
	idle, ok := p.removeWorkers(2)
	if !ok || len(idle) != 2 {
		t.Fatalf("removeWorkers(2) = %v, %v", idle, ok)
	}
	if got := p.Shards(); got != 2 {
		t.Fatalf("Shards after remove = %d, want 2", got)
	}
	feed(4)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if counts[2] == 0 || counts[3] == 0 {
		t.Fatalf("added workers never dispatched: counts = %v", counts)
	}
	if total := counts[0] + counts[1] + counts[2] + counts[3]; total != 16*8 {
		t.Fatalf("dispatched %d values, want %d", total, 16*8)
	}
	if p.addWorkers([]func([]float32){proc(0)}) {
		t.Fatal("addWorkers on closed pool succeeded")
	}
	if _, ok := p.removeWorkers(1); ok {
		t.Fatal("removeWorkers on closed pool succeeded")
	}
}

// TestElasticRescaleAfterCloseRollsBack exercises the scale-up rollback:
// when the pool refuses new workers (closed), the family must close the
// speculatively built shard estimators and restore its shard set.
func TestElasticRescaleAfterCloseRollsBack(t *testing.T) {
	t.Parallel()
	r := &stepRescaler{}
	q := NewQuantile(0.02, 1_000, 2, cpuSorter, Config[float32]{Batch: 64, Rescaler: r})
	data := make([]float32, 256)
	for i := range data {
		data[i] = float32(i)
	}
	if err := q.ProcessSlice(data); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q.rescale(4) // pool is closed: addWorkers fails, shard set must roll back
	if got := q.Shards(); got != 2 {
		t.Fatalf("Shards after rolled-back rescale = %d, want 2", got)
	}
	q.mu.RLock()
	ests := len(q.ests)
	q.mu.RUnlock()
	if ests != 2 {
		t.Fatalf("estimator set after rolled-back rescale = %d, want 2", ests)
	}
	// Queries still answer from the intact shard set.
	if v := q.Query(0.5); v < 0 || v > 256 {
		t.Fatalf("post-rollback median = %v", v)
	}
}
