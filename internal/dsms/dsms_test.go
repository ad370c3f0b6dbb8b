package dsms

import (
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/stream"
)

func newExec(budget int) *Executor {
	return NewExecutor(cpusort.QuicksortSorter[float32]{}, budget)
}

func TestContinuousQueries(t *testing.T) {
	e := newExec(0)
	e.Register(QuerySpec{Kind: FrequencyAbove, Eps: 0.005, Param: 0.05, Name: "hh"})
	e.Register(QuerySpec{Kind: QuantileAt, Eps: 0.01, Param: 0.5, Name: "median"})
	e.Register(QuerySpec{Kind: SlidingFrequencyAbove, Eps: 0.01, Param: 0.1, Window: 2000, Name: "recent-hh"})
	e.Register(QuerySpec{Kind: SlidingQuantileAt, Eps: 0.02, Param: 0.9, Window: 2000, Name: "recent-p90"})

	data := stream.Zipf(20000, 1.3, 500, 1)
	for ; len(data) > 0; data = data[1000:] {
		e.Push(data[:1000])
	}

	results := e.Results()
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if len(byName["hh"].Items) == 0 {
		t.Fatal("no heavy hitters on a Zipf stream")
	}
	if byName["hh"].Items[0].Value != 0 {
		t.Fatalf("top item = %v, want 0", byName["hh"].Items[0].Value)
	}
	if byName["median"].N != 20000 {
		t.Fatalf("median N = %d", byName["median"].N)
	}
	if byName["recent-hh"].N != 2000 {
		t.Fatalf("sliding N = %d", byName["recent-hh"].N)
	}
	if byName["recent-p90"].Quantile < 0 {
		t.Fatal("p90 missing")
	}
	st := e.Stats()
	if st.Ingested != 20000 || st.Shed != 0 || st.Ticks != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLoadShedding(t *testing.T) {
	e := newExec(500)
	e.Register(QuerySpec{Kind: FrequencyAbove, Eps: 0.01, Param: 0.1, Name: "hh"})
	// One big burst: 10000 arrive, only 500 fit the tick budget.
	e.Push(stream.Zipf(10000, 1.3, 100, 2))
	st := e.Stats()
	if st.Ingested != 500 || st.Shed != 9500 {
		t.Fatalf("stats = %+v", st)
	}
	// The uniform-stride sample preserves heavy hitters.
	res := e.Results()[0]
	if len(res.Items) == 0 || res.Items[0].Value != 0 {
		t.Fatalf("heavy hitter lost under shedding: %v", res.Items)
	}
}

func TestNoSheddingUnderBudget(t *testing.T) {
	e := newExec(1000)
	e.Register(QuerySpec{Kind: QuantileAt, Eps: 0.05, Param: 0.5, Name: "m"})
	for i := 0; i < 10; i++ {
		e.Push(stream.Uniform(800, uint64(i)))
	}
	if st := e.Stats(); st.Shed != 0 || st.Ingested != 8000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGPUBackendMatchesCPU(t *testing.T) {
	mk := func(s interface {
		Sort([]float32)
		Name() string
	}) *Executor {
		e := NewExecutor(s, 0)
		e.Register(QuerySpec{Kind: FrequencyAbove, Eps: 0.01, Param: 0.1, Name: "hh"})
		e.Register(QuerySpec{Kind: QuantileAt, Eps: 0.01, Param: 0.5, Name: "m"})
		return e
	}
	cpu := mk(cpusort.QuicksortSorter[float32]{})
	gpu := mk(gpusort.NewSorter[float32]())
	data := stream.Zipf(10000, 1.2, 200, 3)
	for ; len(data) > 0; data = data[2500:] {
		cpu.Push(data[:2500])
		gpu.Push(data[:2500])
	}
	cr, gr := cpu.Results(), gpu.Results()
	if cr[1].Quantile != gr[1].Quantile {
		t.Fatalf("medians differ: %v vs %v", cr[1].Quantile, gr[1].Quantile)
	}
	if len(cr[0].Items) != len(gr[0].Items) {
		t.Fatalf("heavy hitter sets differ")
	}
}

func TestEmptyExecutor(t *testing.T) {
	e := newExec(0)
	e.Register(QuerySpec{Kind: QuantileAt, Eps: 0.1, Param: 0.5, Name: "m"})
	res := e.Results()
	if res[0].N != 0 || res[0].Quantile != 0 {
		t.Fatalf("empty result = %+v", res[0])
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewExecutor(cpusort.QuicksortSorter[float32]{}, -1) },
		func() { newExec(0).Register(QuerySpec{Kind: FrequencyAbove, Eps: 0, Name: "x"}) },
		func() { newExec(0).Register(QuerySpec{Kind: QueryKind(99), Eps: 0.1, Name: "x"}) },
		func() {
			e := newExec(0)
			e.Register(QuerySpec{Kind: QuantileAt, Eps: 0.1, Param: 0.5, Name: "m"})
			e.Push([]float32{1})
			e.Register(QuerySpec{Kind: QuantileAt, Eps: 0.1, Param: 0.5, Name: "late"})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		}()
	}
}
