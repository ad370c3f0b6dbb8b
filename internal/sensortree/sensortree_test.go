package sensortree

import (
	"testing"

	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/oracle"
	"gpustream/internal/stream"
)

// buildTree constructs a complete tree of the given fanout and depth with
// per-leaf Gaussian observations, returning the tree and all raw readings.
func buildTree(fanout, depth, readings int, seed *uint64) (*Node, []float32) {
	n := &Node{}
	var all []float32
	if depth == 0 {
		*seed++
		n.Observations = stream.Gaussian(readings, float64(50+*seed%20), 10, *seed)
		return n, n.Observations
	}
	for i := 0; i < fanout; i++ {
		c, obs := buildTree(fanout, depth-1, readings, seed)
		n.Children = append(n.Children, c)
		all = append(all, obs...)
	}
	return n, all
}

func TestAggregateErrorBound(t *testing.T) {
	for _, eps := range []float64{0.02, 0.05} {
		seed := uint64(1)
		root, all := buildTree(3, 3, 2000, &seed)
		agg := NewAggregator(eps, cpusort.QuicksortSorter[float32]{})
		s, st := agg.Aggregate(root)
		if s.N != int64(len(all)) {
			t.Fatalf("root N = %d, want %d", s.N, len(all))
		}
		if got := oracle.New(all).GridError(s.QueryRank); got > eps+1e-9 {
			t.Fatalf("eps=%v: root rank error %v", eps, got)
		}
		if st.Nodes != 1+3+9+27 {
			t.Fatalf("visited %d nodes", st.Nodes)
		}
		if st.Observations != int64(len(all)) {
			t.Fatalf("observations = %d", st.Observations)
		}
	}
}

func TestMessageBound(t *testing.T) {
	const eps = 0.05
	seed := uint64(10)
	root, _ := buildTree(4, 3, 5000, &seed)
	agg := NewAggregator(eps, cpusort.QuicksortSorter[float32]{})
	_, st := agg.Aggregate(root)
	h := root.Height()
	// Messages are pruned to ceil(h/eps)+1 entries; leaves send their
	// unpruned (2/eps) summaries.
	budget := int(float64(h)/eps) + 2
	leafMsg := int(2/eps) + 3
	max := budget
	if leafMsg > max {
		max = leafMsg
	}
	if st.MaxMessage > max {
		t.Fatalf("max message %d exceeds budget %d", st.MaxMessage, max)
	}
	if st.MessageEntries == 0 {
		t.Fatal("no communication recorded")
	}
}

func TestCommunicationFarBelowRaw(t *testing.T) {
	// The point of the algorithm: total transmitted entries must be far
	// below shipping all raw readings up the tree.
	seed := uint64(20)
	root, all := buildTree(4, 2, 10000, &seed)
	agg := NewAggregator(0.01, cpusort.QuicksortSorter[float32]{})
	_, st := agg.Aggregate(root)
	if st.MessageEntries*5 > len(all) {
		t.Fatalf("communication %d entries not far below raw %d", st.MessageEntries, len(all))
	}
}

func TestInteriorObservations(t *testing.T) {
	// Interior nodes with their own readings must be counted too.
	root := &Node{
		Observations: stream.Uniform(1000, 1),
		Children: []*Node{
			{Observations: stream.Uniform(1000, 2)},
			{Observations: stream.Uniform(1000, 3)},
		},
	}
	agg := NewAggregator(0.05, cpusort.QuicksortSorter[float32]{})
	s, _ := agg.Aggregate(root)
	if s.N != 3000 {
		t.Fatalf("N = %d, want 3000", s.N)
	}
}

func TestEmptyNodes(t *testing.T) {
	root := &Node{Children: []*Node{{}, {Observations: []float32{1, 2, 3}}}}
	agg := NewAggregator(0.1, cpusort.QuicksortSorter[float32]{})
	s, _ := agg.Aggregate(root)
	if s.N != 3 {
		t.Fatalf("N = %d", s.N)
	}
	med := s.Query(0.5)
	if med != 2 {
		t.Fatalf("median = %v", med)
	}
}

func TestFullyEmptyTree(t *testing.T) {
	agg := NewAggregator(0.1, cpusort.QuicksortSorter[float32]{})
	s, st := agg.Aggregate(&Node{Children: []*Node{{}, {}}})
	if s.N != 0 || st.Observations != 0 {
		t.Fatalf("empty tree produced N=%d", s.N)
	}
}

func TestGPUBackendMatchesCPU(t *testing.T) {
	seed := uint64(30)
	root, _ := buildTree(2, 2, 4096, &seed)
	seed = 30
	root2, _ := buildTree(2, 2, 4096, &seed)
	cpuS, _ := NewAggregator(0.02, cpusort.QuicksortSorter[float32]{}).Aggregate(root)
	gpuS, _ := NewAggregator(0.02, gpusort.NewSorter[float32]()).Aggregate(root2)
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		if cpuS.Query(phi) != gpuS.Query(phi) {
			t.Fatalf("backends disagree at phi=%v", phi)
		}
	}
}

func TestHeight(t *testing.T) {
	leaf := &Node{}
	if leaf.Height() != 0 {
		t.Fatal("leaf height != 0")
	}
	root := &Node{Children: []*Node{{Children: []*Node{{}}}, {}}}
	if root.Height() != 2 {
		t.Fatalf("height = %d", root.Height())
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewAggregator(0, cpusort.QuicksortSorter[float32]{}) },
		func() { NewAggregator(0.1, cpusort.QuicksortSorter[float32]{}).Aggregate(nil) },
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
