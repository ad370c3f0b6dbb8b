package gpustream_test

import (
	"math/rand"
	"reflect"
	"testing"

	"gpustream"
	"gpustream/internal/stream"
)

// The ingestion metamorphic property: how a stream is chunked across
// Process/ProcessSlice calls is invisible to queries. The pipeline core
// re-batches everything into windows, so feeding the whole stream in one
// slice, one element at a time, or in random-size chunks must produce
// bit-identical answers for every estimator family.

// chunkPlans returns the three ingestion plans as chunk-length sequences.
func chunkPlans(n int, seed int64) [][]int {
	whole := []int{n}
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var random []int
	for left := n; left > 0; {
		c := 1 + rng.Intn(2500)
		if c > left {
			c = left
		}
		random = append(random, c)
		left -= c
	}
	return [][]int{whole, ones, random}
}

// ingest feeds data according to plan, using Process for 1-chunks and
// ProcessSlice otherwise, so both entry points are exercised.
func ingest[T gpustream.Value](est interface {
	Process(T) error
	ProcessSlice([]T) error
}, data []T, plan []int) {
	off := 0
	for _, c := range plan {
		if c == 1 {
			_ = est.Process(data[off])
		} else {
			_ = est.ProcessSlice(data[off : off+c])
		}
		off += c
	}
}

func metamorphicStream(n int) []float32 {
	return stream.Zipf(n, 1.2, n/50+10, 99)
}

// answersEqual fails the test when any two plans' answers differ.
func answersEqual(t *testing.T, name string, answers []any) {
	t.Helper()
	for i := 1; i < len(answers); i++ {
		if !reflect.DeepEqual(answers[0], answers[i]) {
			t.Fatalf("%s: ingestion plan %d disagrees with plan 0:\n  plan 0: %v\n  plan %d: %v",
				name, i, answers[0], i, answers[i])
		}
	}
}

func TestMetamorphicFrequency(t *testing.T) {
	const n = 30_000
	data := metamorphicStream(n)
	var answers []any
	for _, plan := range chunkPlans(n, 7) {
		est := gpustream.New(gpustream.BackendCPU).NewFrequencyEstimator(0.002)
		ingest(est, data, plan)
		ans := struct {
			Items []gpustream.Item[float32]
			Est   []int64
			Size  int
		}{Items: est.Query(0.01), Size: est.SummarySize()}
		for _, v := range []float32{0, 1, 5, 17, 1e6} {
			ans.Est = append(ans.Est, est.Estimate(v))
		}
		answers = append(answers, any(ans))
	}
	answersEqual(t, "frequency", answers)
}

func TestMetamorphicQuantile(t *testing.T) {
	const n = 30_000
	data := metamorphicStream(n)
	var answers []any
	for _, plan := range chunkPlans(n, 8) {
		est := gpustream.New(gpustream.BackendCPU).NewQuantileEstimator(0.005)
		ingest(est, data, plan)
		var qs []float32
		for _, phi := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			qs = append(qs, est.Query(phi))
		}
		answers = append(answers, any(qs))
	}
	answersEqual(t, "quantile", answers)
}

func TestMetamorphicSlidingFrequency(t *testing.T) {
	const n = 30_000
	data := metamorphicStream(n)
	var answers []any
	for _, plan := range chunkPlans(n, 9) {
		est := gpustream.New(gpustream.BackendCPU).NewSlidingFrequency(0.01, 8_000)
		ingest(est, data, plan)
		ans := struct {
			Full []gpustream.WindowItem[float32]
			Sub  []gpustream.WindowItem[float32]
			Est  int64
		}{Full: est.Query(0.02), Sub: est.QueryWindow(0.02, 3_000), Est: est.Estimate(1)}
		answers = append(answers, any(ans))
	}
	answersEqual(t, "sliding-frequency", answers)
}

func TestMetamorphicSlidingQuantile(t *testing.T) {
	const n = 30_000
	data := metamorphicStream(n)
	var answers []any
	for _, plan := range chunkPlans(n, 10) {
		est := gpustream.New(gpustream.BackendCPU).NewSlidingQuantile(0.01, 8_000)
		ingest(est, data, plan)
		var qs []float32
		for _, phi := range []float64{0.1, 0.5, 0.9} {
			qs = append(qs, est.Query(phi), est.QueryWindow(phi, 3_000))
		}
		answers = append(answers, any(qs))
	}
	answersEqual(t, "sliding-quantile", answers)
}

// TestMetamorphicParallelK1 pins the K=1 sharded estimators to the same
// property: batching through the shard pool must not change answers either.
func TestMetamorphicParallelK1(t *testing.T) {
	const n = 30_000
	data := metamorphicStream(n)
	var freqAns, quantAns []any
	for _, plan := range chunkPlans(n, 11) {
		eng := gpustream.New(gpustream.BackendCPU)
		fe := eng.NewParallelFrequencyEstimator(0.002, 1, gpustream.WithBatchSize(1000))
		qe := eng.NewParallelQuantileEstimator(0.005, 1, gpustream.WithBatchSize(1000))
		ingest(fe, data, plan)
		ingest(qe, data, plan)
		fe.Close()
		qe.Close()
		freqAns = append(freqAns, any(fe.Query(0.01)))
		quantAns = append(quantAns, any([]float32{qe.Query(0.25), qe.Query(0.5), qe.Query(0.75)}))
	}
	answersEqual(t, "parallel-frequency", freqAns)
	answersEqual(t, "parallel-quantile", quantAns)
}

// TestMetamorphicAsyncMatchesSync extends the chunking property across the
// staged executor: for every ingestion plan, async ingestion must agree
// bit-for-bit with synchronous ingestion of the same chunks — for all four
// serial families and for K∈{1,4} sharded ingestion. (For K>1 the shard
// assignment depends on the chunk plan, so async is pinned to sync per plan
// rather than across plans.)
func TestMetamorphicAsyncMatchesSync(t *testing.T) {
	const n = 30_000
	data := metamorphicStream(n)
	for pi, plan := range chunkPlans(n, 14) {
		serial := func(async bool) any {
			var eopts []gpustream.EstimatorOption
			if async {
				eopts = append(eopts, gpustream.WithAsyncIngestion())
			}
			eng := gpustream.New(gpustream.BackendCPU)
			fe := eng.NewFrequencyEstimator(0.002, eopts...)
			qe := eng.NewQuantileEstimator(0.005, eopts...)
			sf := eng.NewSlidingFrequency(0.01, 8_000, eopts...)
			sq := eng.NewSlidingQuantile(0.01, 8_000, eopts...)
			for _, est := range []interface {
				Process(float32) error
				ProcessSlice([]float32) error
			}{fe, qe, sf, sq} {
				ingest(est, data, plan)
			}
			ans := struct {
				Heavy   []gpustream.Item[float32]
				Medians []float32
				SlideHH []gpustream.WindowItem[float32]
				SlideQ  []float32
			}{Heavy: fe.Query(0.01), SlideHH: sf.Query(0.02)}
			for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
				ans.Medians = append(ans.Medians, qe.Query(phi))
				ans.SlideQ = append(ans.SlideQ, sq.Query(phi))
			}
			fe.Close()
			qe.Close()
			sf.Close()
			sq.Close()
			return ans
		}
		parallel := func(k int, async bool) any {
			popts := []gpustream.EstimatorOption{gpustream.WithBatchSize(1024)}
			if async {
				popts = append(popts, gpustream.WithAsyncIngestion())
			}
			eng := gpustream.New(gpustream.BackendCPU)
			pf := eng.NewParallelFrequencyEstimator(0.002, k, popts...)
			pq := eng.NewParallelQuantileEstimator(0.005, k, popts...)
			ingest(pf, data, plan)
			ingest(pq, data, plan)
			pf.Close()
			pq.Close()
			return any(struct {
				HH []gpustream.Item[float32]
				Qs []float32
			}{HH: pf.Query(0.01), Qs: []float32{pq.Query(0.25), pq.Query(0.5), pq.Query(0.75)}})
		}
		if s, a := serial(false), serial(true); !reflect.DeepEqual(s, a) {
			t.Fatalf("plan %d: serial async diverged from sync:\n  sync:  %v\n  async: %v", pi, s, a)
		}
		for _, k := range []int{1, 4} {
			if s, a := parallel(k, false), parallel(k, true); !reflect.DeepEqual(s, a) {
				t.Fatalf("plan %d: K=%d async diverged from sync:\n  sync:  %v\n  async: %v", pi, k, s, a)
			}
		}
	}
}

// typedChunkCase runs the whole family matrix at element type T under the
// three ingestion plans and demands bit-identical answers, extending the
// chunking metamorphic property beyond float32.
func typedChunkCase[T gpustream.Value](t *testing.T, data []T, seed int64) {
	n := len(data)
	var answers []any
	for _, plan := range chunkPlans(n, seed) {
		eng := gpustream.NewOf[T](gpustream.BackendCPU)
		fe := eng.NewFrequencyEstimator(0.002)
		qe := eng.NewQuantileEstimator(0.005)
		sf := eng.NewSlidingFrequency(0.01, n/4)
		sq := eng.NewSlidingQuantile(0.01, n/4)
		pf := eng.NewParallelFrequencyEstimator(0.002, 1, gpustream.WithBatchSize(1000))
		pq := eng.NewParallelQuantileEstimator(0.005, 1, gpustream.WithBatchSize(1000))
		for _, est := range []interface {
			Process(T) error
			ProcessSlice([]T) error
		}{fe, qe, sf, sq, pf, pq} {
			ingest(est, data, plan)
		}
		pf.Close()
		pq.Close()
		ans := struct {
			Heavy   []gpustream.Item[T]
			Medians []T
			SlideHH []gpustream.WindowItem[T]
			SlideQ  []T
			ParHH   []gpustream.Item[T]
			ParQ    []T
		}{
			Heavy:   fe.Query(0.01),
			SlideHH: sf.Query(0.02),
			ParHH:   pf.Query(0.01),
		}
		for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
			ans.Medians = append(ans.Medians, qe.Query(phi))
			ans.SlideQ = append(ans.SlideQ, sq.Query(phi))
			ans.ParQ = append(ans.ParQ, pq.Query(phi))
		}
		answers = append(answers, any(ans))
	}
	answersEqual(t, "typed-chunking", answers)
}

func TestMetamorphicTypedUint64(t *testing.T) {
	const n = 30_000
	data := stream.ZipfOf[uint64](n, 1.2, n/50+10, 41)
	for i, v := range data {
		data[i] = v<<40 | 0xBEEF // answers live beyond float32's exact range
	}
	typedChunkCase(t, data, 12)
}

func TestMetamorphicTypedFloat64(t *testing.T) {
	const n = 30_000
	typedChunkCase(t, stream.ZipfOf[float64](n, 1.2, n/50+10, 42), 13)
}
