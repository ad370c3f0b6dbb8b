package gpustream

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"gpustream/internal/adaptive"
	"gpustream/internal/cpusort"
	"gpustream/internal/gpusort"
	"gpustream/internal/perfmodel"
	"gpustream/internal/samplesort"
)

// Backend selects the sorting hardware path.
type Backend int

const (
	// BackendSampleSort is the host-native backend, and the zero value: a
	// Spec or flag that names no backend runs on it. It keeps the name of
	// the deterministic sample sort it was introduced as — and whose
	// O(n log n) comparison count its modeled-2004 cost still prices — but
	// on the host it is an LSD key-radix sort over the values' fixed-width
	// order-preserving keys, O(n) at every window size (DESIGN.md §9).
	BackendSampleSort Backend = iota
	// BackendGPU is the paper's contribution: the PBSN sorter on the GPU
	// simulator (4-channel packing, blending comparators).
	BackendGPU
	// BackendGPUBitonic is the prior-work GPU baseline (fragment-program
	// bitonic sort).
	BackendGPUBitonic
	// BackendCPU is a serial median-of-3 quicksort (the MSVC analog).
	BackendCPU
	// BackendCPUParallel is a multi-threaded quicksort (the Intel
	// hyper-threaded analog).
	BackendCPUParallel
	// BackendAuto starts every estimator pipeline on sample sort and
	// attaches an adaptive controller that probes all five concrete
	// backends at runtime, commits to the measured-cheapest one, and (for
	// the whole-history families) hill-climbs the sort-window size. The
	// controller only ever moves knobs at window boundaries, so every
	// eps guarantee is preserved.
	BackendAuto
)

// backendRow is everything the package knows about one backend. String,
// ParseBackend, the text (un)marshalers, PipelineBackend, Spec.Validate,
// the adaptive candidate set and the live-telemetry name are all derived
// from backendTable; the one thing a table cannot hold is a generic
// constructor, so newBackendSorter keeps the only switch over backends.
type backendRow struct {
	backend Backend
	name    string   // canonical name: String, MarshalText, telemetry
	aliases []string // legacy cmd-flag spellings ParseBackend also accepts
	model   perfmodel.Backend
	// cost is the modeled-2004 wall clock of one n-value window sort, the
	// adaptive controller's probe-ordering prior; nil for a row that runs
	// another row's sorter.
	cost func(m perfmodel.Model, n int) time.Duration
	// runs is the concrete backend whose sorter the row constructs and
	// starts on: itself for the five concrete rows, sample sort for auto,
	// which is a policy over the concrete rows rather than a sorter.
	runs Backend
}

// backendTable is indexed by Backend value.
var backendTable = [...]backendRow{
	{BackendSampleSort, "samplesort", []string{"sample"}, perfmodel.BackendSampleSort,
		perfmodel.Model.SampleSortTime, BackendSampleSort},
	{BackendGPU, "gpu", nil, perfmodel.BackendGPU,
		func(m perfmodel.Model, n int) time.Duration { return m.PBSNSortTime(n).Total() }, BackendGPU},
	{BackendGPUBitonic, "gpu-bitonic", []string{"bitonic"}, perfmodel.BackendGPU,
		func(m perfmodel.Model, n int) time.Duration { return m.BitonicSortTime(n).Total() }, BackendGPUBitonic},
	{BackendCPU, "cpu", nil, perfmodel.BackendCPU,
		func(m perfmodel.Model, n int) time.Duration { return m.QuicksortTime(n, perfmodel.MSVC) }, BackendCPU},
	{BackendCPUParallel, "cpu-parallel", []string{"cpu-ht"}, perfmodel.BackendCPU,
		func(m perfmodel.Model, n int) time.Duration { return m.QuicksortTime(n, perfmodel.IntelHT) }, BackendCPUParallel},
	{BackendAuto, "auto", nil, perfmodel.BackendSampleSort, nil, BackendSampleSort},
}

// row returns b's table row, nil for a value that names no backend.
func (b Backend) row() *backendRow {
	if b < 0 || int(b) >= len(backendTable) {
		return nil
	}
	return &backendTable[b]
}

// PipelineBackend maps the engine backend to the perfmodel's sort-costing
// backend, for modeled-time reporting of instrumented pipelines. BackendAuto
// maps to the sample-sort cost model, its construction-time backend; an
// unknown value to the CPU model.
func (b Backend) PipelineBackend() perfmodel.Backend {
	if r := b.row(); r != nil {
		return r.model
	}
	return perfmodel.BackendCPU
}

// String implements fmt.Stringer.
func (b Backend) String() string {
	if r := b.row(); r != nil {
		return r.name
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend resolves a backend name — as accepted by the cmd tools'
// -backend flags — to a Backend. The canonical names are the Backend.String
// forms (samplesort, gpu, gpu-bitonic, cpu, cpu-parallel, auto); the legacy
// aliases bitonic (for gpu-bitonic), cpu-ht (the hyper-threaded analog,
// cpu-parallel), and sample (samplesort) are accepted too. Matching is
// case-insensitive.
func ParseBackend(name string) (Backend, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, r := range backendTable {
		if key == r.name || slices.Contains(r.aliases, key) {
			return r.backend, nil
		}
	}
	return 0, fmt.Errorf("gpustream: unknown backend %q (want %s)", name,
		wantNames(backendTable[:], func(r backendRow) string { return r.name }))
}

// wantNames lists a table's canonical names for a Parse error: "a, b, or c".
func wantNames[R any](rows []R, name func(R) string) string {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = name(r)
	}
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + ", or " + names[last]
}

// MarshalText encodes the backend as its canonical name (the String form),
// so Backend fields round-trip through JSON as strings — the symmetric
// counterpart of ParseBackend. Unknown backend values fail.
func (b Backend) MarshalText() ([]byte, error) {
	r := b.row()
	if r == nil {
		return nil, fmt.Errorf("gpustream: cannot marshal invalid backend %s", b)
	}
	return []byte(r.name), nil
}

// UnmarshalText decodes a backend name via ParseBackend, accepting the same
// aliases as the cmd tools' -backend flags.
func (b *Backend) UnmarshalText(text []byte) error {
	parsed, err := ParseBackend(string(text))
	if err != nil {
		return err
	}
	*b = parsed
	return nil
}

// newBackendSorter constructs a fresh sorter instance for the given backend
// at element type T. Parallel estimators call it once per shard: the GPU
// simulator keeps per-sort state (LastStats), so sorter instances must
// never be shared across goroutines. BackendAuto constructs its sample-sort
// starting point — the extension surfaces (HHH, correlated sum, sensor
// trees) have no pipeline telemetry to tune against, so under auto they
// simply run sample sort statically.
func newBackendSorter[T Value](backend Backend) Sorter[T] {
	if r := backend.row(); r != nil {
		switch r.runs {
		case BackendGPU:
			return gpusort.NewSorter[T]()
		case BackendGPUBitonic:
			return gpusort.NewBitonicSorter[T]()
		case BackendCPU:
			return cpusort.QuicksortSorter[T]{}
		case BackendCPUParallel:
			return cpusort.ParallelSorter[T]{}
		case BackendSampleSort:
			return samplesort.NewSorter[T]()
		}
	}
	panic(fmt.Sprintf("gpustream: unknown backend %v", backend))
}

// candidateFor resolves a concrete backend to its adaptive candidate — on
// its own, the probe set of an elastic-concurrency controller on a non-auto
// engine, which tunes the execution mode but must never move the backend
// knob.
func candidateFor[T Value](b Backend, m perfmodel.Model) adaptive.Candidate[T] {
	r := b.row()
	if r == nil || r.runs != b {
		panic(fmt.Sprintf("gpustream: no adaptive candidate for backend %v", b))
	}
	return adaptive.Candidate[T]{
		Backend: r.name,
		New:     func() Sorter[T] { return newBackendSorter[T](b) },
		Modeled: func(n int) time.Duration { return r.cost(m, n) },
	}
}

// autoCandidates is the adaptive controller's probe set: every concrete
// backend, ordered at runtime by the perfmodel's closed-form prior for the
// pipeline's current window size.
func autoCandidates[T Value](m perfmodel.Model) []adaptive.Candidate[T] {
	var cands []adaptive.Candidate[T]
	for _, r := range backendTable {
		if r.runs == r.backend {
			cands = append(cands, candidateFor[T](r.backend, m))
		}
	}
	return cands
}
