package gpustream_test

import (
	"strings"
	"testing"

	"gpustream"
	"gpustream/internal/acceptance"
)

// The acceptance matrix is the library's broadest guarantee check: every
// estimator family on every backend, live, restored from its wire blob and
// merged up a tree, held by internal/oracle to exact ground truth
// (internal/acceptance, DESIGN.md §19). cmd/validate prints the same cells
// at its own scale. The four tests below split the driver's cells by input
// type and family; each runs its cells as subtests
// <input>/<backend>/<family>, parallel per input/backend group.

// TestAcceptanceMatrix runs the whole-history families on the float32
// inputs at eps 0.02 and again at eps 0.005; go test names the second pass
// <input>/<backend>#01. Frugal trackers carry no eps and run in the first.
func TestAcceptanceMatrix(t *testing.T) {
	for _, eps := range []float64{0.02, 0.005} {
		runCells(t, func(c *acceptance.Cell) (string, bool) {
			if typed(c.Input) || c.Spec.Family.Sliding() {
				return "", false
			}
			if c.Spec.Family == gpustream.FamilyFrugal {
				return c.Input, eps == 0.02
			}
			c.Spec.Eps = eps
			return c.Input, true
		})
	}
}

// TestAcceptanceMatrixSliding runs the two sliding families on the float32
// inputs.
func TestAcceptanceMatrixSliding(t *testing.T) {
	runCells(t, func(c *acceptance.Cell) (string, bool) {
		return c.Input, !typed(c.Input) && c.Spec.Family.Sliding()
	})
}

// TestAcceptanceMatrixTypedUint64 and TestAcceptanceMatrixTypedFloat64 run
// every family on the uint64 and float64 inputs: the float32 guarantees,
// checked on values no float32 stack could represent.
func TestAcceptanceMatrixTypedUint64(t *testing.T) {
	runCells(t, func(c *acceptance.Cell) (string, bool) {
		return strings.CutPrefix(c.Input, "uint64-")
	})
}

func TestAcceptanceMatrixTypedFloat64(t *testing.T) {
	runCells(t, func(c *acceptance.Cell) (string, bool) {
		return strings.CutPrefix(c.Input, "float64-")
	})
}

// typed reports whether the driver's input name carries a value-type
// prefix, i.e. the input is not float32.
func typed(input string) bool {
	return strings.HasPrefix(input, "uint64-") || strings.HasPrefix(input, "float64-")
}

// runCells runs the driver's cells at n = 20,000 on every backend that pick
// keeps, under the input name it returns; pick may adjust the cell's spec.
func runCells(t *testing.T, pick func(c *acceptance.Cell) (input string, ok bool)) {
	type group struct {
		name  string
		cells []acceptance.Cell
	}
	var groups []group
	for _, c := range acceptance.Cells(20000, 1,
		gpustream.BackendSampleSort, gpustream.BackendGPU, gpustream.BackendGPUBitonic,
		gpustream.BackendCPU, gpustream.BackendCPUParallel, gpustream.BackendAuto) {
		input, ok := pick(&c)
		if !ok {
			continue
		}
		name := input + "/" + c.Spec.Backend.String()
		if n := len(groups); n > 0 && groups[n-1].name == name {
			groups[n-1].cells = append(groups[n-1].cells, c)
			continue
		}
		groups = append(groups, group{name, []acceptance.Cell{c}})
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range g.cells {
				t.Run(c.Spec.Family.String(), func(t *testing.T) {
					t.Parallel()
					if r := c.Run(); r.Err != nil {
						t.Errorf("%v: %v", c, r.Err)
					}
				})
			}
		})
	}
}
