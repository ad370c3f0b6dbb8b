// Sensornet: the Greenwald-Khanna sensor-network aggregation model the
// paper's quantile algorithm builds on (Section 5.2). A tree of sensor
// nodes each observes local readings; every node summarizes by sorting
// locally (the GPU-accelerated step on gateway-class nodes), parents merge
// children's summaries and prune them to bound the message size, and the
// root answers quantile queries over the whole network within eps — without
// any node ever shipping raw readings up the tree.
package main

import (
	"fmt"

	"gpustream"
	"gpustream/internal/oracle"
	"gpustream/internal/stream"
)

const (
	fanout   = 4
	depth    = 3 // levels below the root -> 4^3 = 64 leaf sensors
	readings = 8192
	eps      = 0.02
)

// buildTree constructs the sensor hierarchy and collects the raw readings
// (kept only to validate accuracy at the end).
func buildTree(level, id int, raw *[]float32) *gpustream.SensorNode {
	n := &gpustream.SensorNode{}
	if level == depth {
		obs := stream.Gaussian(readings, float64(50+id%7*10), 12, uint64(id+1))
		*raw = append(*raw, obs...)
		n.Observations = obs
		return n
	}
	for c := 0; c < fanout; c++ {
		n.Children = append(n.Children, buildTree(level+1, id*fanout+c, raw))
	}
	return n
}

func main() {
	eng := gpustream.New(gpustream.BackendGPU)
	var raw []float32
	root := buildTree(0, 0, &raw)

	s, st := eng.AggregateSensorTree(root, eps)
	fmt.Printf("aggregated %d readings from %d sensors across %d nodes\n",
		st.Observations, 1<<(2*depth), st.Nodes)
	fmt.Printf("communication: %d summary entries total, largest message %d entries\n",
		st.MessageEntries, st.MaxMessage)
	fmt.Printf("(shipping raw readings would have cost %d entries)\n\n", len(raw))

	// Validate against ground truth.
	exact := append([]float32(nil), raw...)
	eng.Sort(exact)
	fmt.Println("phi     network-estimate   exact")
	for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		est := s.Query(phi)
		truth := exact[int(phi*float64(len(exact)-1))]
		fmt.Printf("%.2f    %16.2f   %6.2f\n", phi, est, truth)
	}
	fmt.Printf("worst normalized rank error vs ground truth: %.5f (eps %.3f)\n",
		oracle.New(raw).GridError(s.QueryRank), eps)
}
