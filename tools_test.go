package gpustream

import (
	"bytes"
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/stream"
)

func TestStreamingHistogramThroughEngine(t *testing.T) {
	eng := New(BackendGPU)
	h := eng.NewStreamingHistogram(10, 0.01)
	h.ProcessSlice(stream.Uniform(20000, 2))
	buckets := h.Buckets()
	if len(buckets) != 10 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if sel := h.Selectivity(0.5); sel < 0.4 || sel > 0.6 {
		t.Fatalf("Selectivity(0.5) = %v", sel)
	}
}

func TestExternalSortThroughEngine(t *testing.T) {
	eng := New(BackendGPU)
	data := stream.Zipf(30000, 1.1, 3000, 3)
	var buf bytes.Buffer
	st, err := eng.ExternalSort(NewSliceSource(data), &buf, ExternalSortConfig{RunSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if st.InitialRuns < 7 {
		t.Fatalf("runs = %d", st.InitialRuns)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), data...)
	cpusort.Quicksort(want)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestTraceHelpersRoundTrip(t *testing.T) {
	data := stream.Uniform(500, 4)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil || len(got) != 500 {
		t.Fatalf("round trip: %v %v", len(got), err)
	}
}
