package frequency

import (
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/oracle"
)

func FuzzLossyCounting(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const eps = 0.1
		e := NewEstimator(eps, cpusort.QuicksortSorter[float32]{})
		vals := make([]float32, len(raw))
		for i, b := range raw {
			vals[i] = float32(b % 32)
			e.Process(vals[i])
		}
		e.Flush()
		x := oracle.New(vals)
		n := float64(x.N())
		for v := 0; v < 32; v++ {
			truth := x.Count(float32(v))
			est := e.Estimate(float32(v))
			if est > truth {
				t.Fatalf("overcount on %d", v)
			}
			if float64(truth-est) > eps*n+1e-9 {
				t.Fatalf("undercount beyond eps*N on %d: est %d true %d", v, est, truth)
			}
		}
	})
}
