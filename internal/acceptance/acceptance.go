// Package acceptance is the one acceptance matrix: every estimator family on
// every backend, built from a gpustream.Spec, fed a stream and checked by
// internal/oracle in three forms — the live estimator's view, that view
// restored from its wire blob, and the root of a merge tree of workers that
// each ingested part of the stream (DESIGN.md §31). The root package's
// TestAcceptanceMatrix tests run it at test scale and cmd/validate prints its
// rows.
package acceptance

import (
	"fmt"
	"sync"

	"gpustream"
	"gpustream/internal/oracle"
	"gpustream/internal/pipeline"
	"gpustream/internal/stream"
)

// Cell is one configuration the matrix checks: an estimator spec over one
// named input stream.
type Cell struct {
	// Input names the stream, prefixed by its value type when that is not
	// float32.
	Input string
	Spec  gpustream.Spec
	// H is the height of the merge tree whose root is the merged form.
	H   int
	run func(Cell) Row
}

// Row is the outcome of one cell: the worst error of each form's answers
// as a share of the stream length that form answers for, and the first
// violation found.
type Row struct {
	// Bound is the share of N the answers are held to: eps, or for frugal
	// the tolerance its input is documented at (0 where only the envelope
	// rule applies). Quantile answers get one rank more.
	Bound                  float64
	Live, Restored, Merged float64
	Err                    error
}

// Run checks the cell.
func (c Cell) Run() Row { return c.run(c) }

// Name is "<input>/<backend>/<family>".
func (c Cell) Name() string {
	return c.Input + "/" + c.Spec.Backend.String() + "/" + c.Spec.Family.String()
}

// String is the cell's name and the spec axes it does not spell.
func (c Cell) String() string {
	s := c.Name()
	if c.Spec.Family != gpustream.FamilyFrugal {
		s += " async=" + c.Spec.Async.String()
	}
	if c.Spec.Family.Parallel() {
		s += " shards=" + c.Spec.Shards.String()
	}
	return s
}

// input is one named stream and the tolerance frugal trackers are held to
// on it.
type input[T gpustream.Value] struct {
	name string
	data []T
	// frugalTol is internal/frugal's documented rank tolerance for a stream
	// of this shape; 0 holds frugal answers only to the observed envelope,
	// the rule for a sorted ramp (TestSortedRampBounded).
	frugalTol float64

	// The truth about data, and data read over until it holds frugalN
	// values with the truth about that, each built once for all the cells
	// that share the input.
	once, frugalOnce   sync.Once
	truth, frugalTruth *oracle.Truth[T]
	frugalData         []T
}

// frugalN is the stream length internal/frugal's tolerances are documented
// at; a frugal cell reads its input over again until it has seen that many
// values, which costs a tracker bank next to nothing.
const frugalN = 200_000

// stream returns the values a cell of family f ingests and the truth about
// all of them.
func (in *input[T]) stream(f gpustream.Family) ([]T, *oracle.Truth[T]) {
	if f == gpustream.FamilyFrugal {
		in.frugalOnce.Do(func() {
			in.frugalData = in.data
			for len(in.frugalData) < frugalN {
				in.frugalData = append(in.frugalData, in.data...)
			}
			in.frugalTruth = oracle.New(in.frugalData)
		})
		return in.frugalData, in.frugalTruth
	}
	in.once.Do(func() { in.truth = oracle.New(in.data) })
	return in.data, in.truth
}

// frugalPhis are the quantiles a frugal cell tracks (internal/frugal's
// TestConvergence bank).
var frugalPhis = []float64{0.1, 0.25, 0.5, 0.75, 0.9}

// Cells returns every cell at stream length n for the given backends: the
// seven families on the four float32 matrix inputs, and on two uint64 and
// two float64 inputs. The async mode, shard count, eps and merge-tree
// height rotate with the backend and input, so each family meets every
// value of each axis.
func Cells(n int, seed uint64, backends ...gpustream.Backend) []Cell {
	f32 := []input[float32]{
		{name: "uniform", data: stream.Uniform(n, seed), frugalTol: 0.05},
		{name: "zipf", data: stream.Zipf(n, 1.2, n/100+5, seed+1), frugalTol: 0.20},
		{name: "sorted", data: stream.Sorted(n), frugalTol: 0},
		// internal/frugal documents no tolerance for bursts: the envelope.
		{name: "bursty", data: stream.Bursty(n, n/50+5, n/100+1, 0.01, seed+2), frugalTol: 0},
	}
	zipfHigh := stream.ZipfOf[uint64](n, 1.2, n/100+5, seed+21)
	for i, v := range zipfHigh {
		zipfHigh[i] = v<<40 | 0xF00D // hot items live in the high 24 bits
	}
	u64 := []input[uint64]{
		{name: "uint64-uniform-full-width", data: stream.UniformU64(n, seed+20), frugalTol: 0.05},
		{name: "uint64-zipf-high-bits", data: zipfHigh, frugalTol: 0.20},
	}
	f64 := []input[float64]{
		{name: "float64-uniform", data: stream.UniformOf[float64](n, seed+22), frugalTol: 0.05},
		{name: "float64-zipf", data: stream.ZipfOf[float64](n, 1.2, n/100+5, seed+23), frugalTol: 0.20},
	}
	var cells []Cell
	cells = appendCells(cells, f32, 0, seed, backends)
	cells = appendCells(cells, u64, len(f32), seed, backends)
	return appendCells(cells, f64, len(f32)+len(u64), seed, backends)
}

func appendCells[T gpustream.Value](cells []Cell, inputs []input[T], offset int, seed uint64, backends []gpustream.Backend) []Cell {
	asyncs := []gpustream.AsyncMode{gpustream.AsyncOff, gpustream.AsyncOn, gpustream.AsyncAuto}
	shards := []gpustream.ShardCount{3, gpustream.ShardsAuto}
	for i := range inputs {
		in := &inputs[i]
		for b, backend := range backends {
			k := offset + i + b
			for f := gpustream.FamilyFrequency; f <= gpustream.FamilyFrugal; f++ {
				spec := gpustream.Spec{Family: f, Backend: backend}
				if f == gpustream.FamilyFrugal {
					spec.Phis = frugalPhis
				} else {
					spec.Eps = []float64{0.02, 0.005}[(offset+i)%2]
					spec.Async = asyncs[k%len(asyncs)]
				}
				if f.Sliding() {
					spec.Window = len(in.data) / 5
				}
				if f.Parallel() {
					spec.Shards = shards[k%len(shards)]
				}
				cells = append(cells, Cell{
					Input: in.name,
					Spec:  spec,
					H:     2 + (offset+i)%2,
					run:   func(c Cell) Row { return runCell(c, in, seed) },
				})
			}
		}
	}
	return cells
}

// runCell builds the cell's estimator, feeds it the input and checks the
// three forms.
func runCell[T gpustream.Value](c Cell, in *input[T], seed uint64) Row {
	row := Row{Bound: c.Spec.Eps}
	if c.Spec.Family == gpustream.FamilyFrugal {
		row.Bound = in.frugalTol
	}
	data, all := in.stream(c.Spec.Family)
	fail := func(form string, err error) Row {
		if row.Err == nil && err != nil {
			row.Err = fmt.Errorf("%s: %w", form, err)
		}
		return row
	}

	live, err := ingest(c.Spec, data)
	if err != nil {
		return fail("live", err)
	}
	truth := all
	if c.Spec.Family.Sliding() {
		truth = oracle.Suffix(data, c.Spec.Window)
	}
	row.Live, err = check(c, live, truth, in.frugalTol)
	if err == nil && c.Spec.Family.AnswersFrequencies() {
		// Point queries are probed on the live view, where a point GET lands.
		items, _ := live.HeavyHitters(0)
		err = oracle.Probes(live, items, probes(truth, items, seed))
	}
	fail("live", err)

	blob, err := gpustream.MarshalSnapshot(live)
	if err != nil {
		return fail("restored", err)
	}
	restored, err := gpustream.UnmarshalSnapshot[T](blob)
	if err != nil {
		return fail("restored", err)
	}
	if le, ok := live.(interface{ Eps() float64 }); ok {
		if re := restored.(interface{ Eps() float64 }).Eps(); re != le.Eps() {
			fail("restored", fmt.Errorf("eps %v, the live view's is %v", re, le.Eps()))
		}
	}
	row.Restored, err = check(c, restored, truth, in.frugalTol)
	fail("restored", err)

	// The merged form: workers at TreeEps each ingest a part of the stream,
	// and a tree of height H merges their marshaled views. A sliding root
	// answers for the union of the workers' windows. A merged frugal tracker
	// is one of its inputs' trackers, so only the envelope rule holds it.
	merged := fmt.Sprintf("merged h=%d", c.H)
	worker := c.Spec
	if worker.Eps != 0 {
		worker.Eps = gpustream.TreeEps(c.Spec.Eps, c.H)
	}
	var blobs [][]byte
	var windows []T
	for _, part := range Partition(data, 2*c.H, seed) {
		view, err := ingest(worker, part)
		if err == nil {
			blob, err = gpustream.MarshalSnapshot(view)
		}
		if err != nil {
			return fail(merged, err)
		}
		blobs = append(blobs, blob)
		if c.Spec.Family.Sliding() {
			windows = append(windows, part[max(len(part)-c.Spec.Window, 0):]...)
		}
	}
	root, err := TreeMerge[T](blobs, c.H, seed)
	if err != nil {
		return fail(merged, err)
	}
	if c.Spec.Family.Sliding() {
		all = oracle.New(windows)
	}
	row.Merged, err = check(c, root, all, 0)
	return fail(merged, err)
}

// ingest builds spec's estimator, feeds it data, closes it and returns its
// view.
func ingest[T gpustream.Value](spec gpustream.Spec, data []T) (gpustream.Snapshot[T], error) {
	est, err := gpustream.NewOf[T](spec.Backend).NewFromSpec(spec)
	if err != nil {
		return nil, err
	}
	err = est.ProcessSlice(data)
	if cerr := est.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if got := est.Count(); got != int64(len(data)) {
		return nil, fmt.Errorf("count %d after ingesting %d values", got, len(data))
	}
	return est.Snapshot(), nil
}

// check holds one view to the truth about the values it answers for and
// returns its worst error as a share of their count. frugalTol is the rank
// tolerance a frugal view is held to; 0 holds it to the envelope only.
func check[T gpustream.Value](c Cell, view gpustream.Snapshot[T], truth *oracle.Truth[T], frugalTol float64) (float64, error) {
	n := float64(truth.N())
	fam := c.Spec.Family
	switch {
	case fam == gpustream.FamilyFrugal:
		worst, err := oracle.QuantileError(truth, view, c.Spec.Phis)
		if err != nil {
			return 0, err
		}
		if frugalTol == 0 {
			return float64(worst) / n, envelope(truth, view, c.Spec.Phis)
		}
		if float64(worst) > frugalTol*n {
			err = fmt.Errorf("frugal rank error %d exceeds the tolerance %g·N = %.1f", worst, frugalTol, frugalTol*n)
		}
		return float64(worst) / n, err
	case fam.AnswersQuantiles():
		phis := oracle.Phis(20)
		worst, err := oracle.Quantiles(truth, view, phis, c.Spec.Eps)
		if err == nil {
			err = certified(truth, view, worst)
		}
		return float64(worst) / n, err
	}
	worst, err := oracle.Frequencies(truth, view, c.Spec.Eps, fam.Sliding())
	if err != nil {
		return float64(worst) / n, err
	}
	support := 2 * c.Spec.Eps
	hh, _ := view.HeavyHitters(support)
	return float64(worst) / n, oracle.Support(truth, hh, support)
}

// certified holds a whole-history quantile view's answers, whose worst rank
// distance is worst, to the error its summary proves (Certificate), which
// needs no ground truth.
func certified[T gpustream.Value](truth *oracle.Truth[T], view gpustream.Snapshot[T], worst int64) error {
	qs, ok := view.(*gpustream.QuantileSnapshot[T])
	if !ok || qs.Summary() == nil {
		return nil
	}
	c := qs.Summary().Certificate()
	if float64(worst) > c*float64(truth.N()) {
		return fmt.Errorf("quantile rank error %d exceeds the certificate %g·N = %.1f", worst, c, c*float64(truth.N()))
	}
	return nil
}

// envelope requires every answer to lie within the smallest and largest
// values the stream holds.
func envelope[T gpustream.Value](truth *oracle.Truth[T], view gpustream.Snapshot[T], phis []float64) error {
	for _, phi := range phis {
		v, _ := view.Quantile(phi)
		if lo, hi := truth.Ranks(v); hi < lo && (lo == 1 || lo == truth.N()+1) {
			return fmt.Errorf("frugal quantile(%g) = %v lies outside the stream's values", phi, v)
		}
	}
	return nil
}

// probes are the point queries a frequency view answers: its eight top
// items, 64 values sampled from the stream, and one value it does not hold.
func probes[T gpustream.Value](truth *oracle.Truth[T], items []pipeline.Item[T], seed uint64) []T {
	var out []T
	for _, it := range items[:min(8, len(items))] {
		out = append(out, it.Value)
	}
	rng := stream.NewRNG(seed)
	for range 64 {
		out = append(out, truth.Value(rng.Intn(truth.Distinct())))
	}
	return append(out, truth.Absent())
}

// lcg is the deterministic generator Partition and TreeMerge draw from.
type lcg struct{ x uint64 }

func (l *lcg) next() uint64 {
	l.x = l.x*6364136223846793005 + 1442695040888963407
	return l.x >> 33
}

// Partition deals every value of data into one of p parts, chosen
// pseudo-randomly per value from seed: the split a load balancer gives p
// ingest processes. Each part keeps its values' stream order.
func Partition[T gpustream.Value](data []T, p int, seed uint64) [][]T {
	parts := make([][]T, p)
	rng := lcg{x: seed*0x9E3779B97F4A7C15 + 1}
	for _, v := range data {
		i := int(rng.next() % uint64(p))
		parts[i] = append(parts[i], v)
	}
	return parts
}

// TreeMerge reassembles the root view from marshaled leaf views through an
// aggregation tree of height h, re-marshaling at every intermediate level
// as processes exchanging snapshot files do. Each level merges its inputs
// in an order shuffled by seed: the merge rules' guarantees do not depend
// on it.
func TreeMerge[T gpustream.Value](blobs [][]byte, h int, seed uint64) (gpustream.Snapshot[T], error) {
	rng := lcg{x: seed ^ 0xD1B54A32D192ED03}
	level := append([][]byte(nil), blobs...)
	for lvl := h; lvl > 2 && len(level) > 1; lvl-- {
		shuffle(level, &rng)
		const fan = 4
		var next [][]byte
		for i := 0; i < len(level); i += fan {
			s, err := mergeBlobs[T](level[i:min(i+fan, len(level))])
			if err != nil {
				return nil, err
			}
			blob, err := gpustream.MarshalSnapshot(s)
			if err != nil {
				return nil, err
			}
			next = append(next, blob)
		}
		level = next
	}
	shuffle(level, &rng)
	return mergeBlobs[T](level)
}

// mergeBlobs unmarshals snapshot blobs and merges them into one view: one
// aggregation node's work.
func mergeBlobs[T gpustream.Value](blobs [][]byte) (gpustream.Snapshot[T], error) {
	snaps := make([]gpustream.Snapshot[T], len(blobs))
	for i, b := range blobs {
		s, err := gpustream.UnmarshalSnapshot[T](b)
		if err != nil {
			return nil, err
		}
		snaps[i] = s
	}
	return gpustream.MergeAll(snaps...)
}

func shuffle(blobs [][]byte, rng *lcg) {
	for i := len(blobs) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		blobs[i], blobs[j] = blobs[j], blobs[i]
	}
}
