package gpustream

import (
	"strings"
	"testing"

	"gpustream/internal/perfmodel"
)

// sorterAtEveryType reports whether newBackendSorter constructs b's sorter
// at all six Value types.
func sorterAtEveryType(b Backend) bool {
	return newBackendSorter[float32](b) != nil && newBackendSorter[float64](b) != nil &&
		newBackendSorter[uint32](b) != nil && newBackendSorter[uint64](b) != nil &&
		newBackendSorter[int32](b) != nil && newBackendSorter[int64](b) != nil
}

// TestParseBackend ranges over the backend table: every row's canonical
// name and legacy cmd aliases parse (case- and space-insensitively), the
// String / ParseBackend / MarshalText / UnmarshalText forms round-trip,
// Spec.Validate accepts the row, its sorter constructs at every Value type,
// its adaptive candidate and a static engine's telemetry carry its name,
// and values outside the table take every error path.
func TestParseBackend(t *testing.T) {
	model := perfmodel.Default()
	auto := autoCandidates[float32](model)
	concrete := 0
	for i, r := range backendTable {
		b := Backend(i)
		if r.backend != b || b.row() != &backendTable[i] {
			t.Fatalf("backendTable[%d] holds %v: the table must be indexed by Backend value", i, r.backend)
		}
		if b.String() != r.name {
			t.Fatalf("%d.String() = %q, want %q", i, b.String(), r.name)
		}
		for _, name := range append([]string{r.name}, r.aliases...) {
			for _, spelled := range []string{name, strings.ToUpper(name), " " + name + " "} {
				if got, err := ParseBackend(spelled); err != nil || got != b {
					t.Fatalf("ParseBackend(%q) = %v, %v; want %v", spelled, got, err, b)
				}
			}
			var u Backend = -1
			if err := u.UnmarshalText([]byte(name)); err != nil || u != b {
				t.Fatalf("UnmarshalText(%q) = %v, %v; want %v", name, u, err, b)
			}
		}
		if text, err := b.MarshalText(); err != nil || string(text) != r.name {
			t.Fatalf("%v.MarshalText() = %q, %v", b, text, err)
		}
		if err := (Spec{Family: FamilyFrequency, Eps: 0.01, Backend: b}).Validate(); err != nil {
			t.Fatalf("Spec.Validate rejects backend %v: %v", b, err)
		}
		if !sorterAtEveryType(b) {
			t.Fatalf("newBackendSorter(%v) returned nil at some Value type", b)
		}
		if b.PipelineBackend() != r.model {
			t.Fatalf("%v.PipelineBackend() = %v, want %v", b, b.PipelineBackend(), r.model)
		}

		// What a static pipeline of this backend runs: the row itself when
		// concrete, the row auto starts on otherwise.
		runs := r.runs.row()
		if runs == nil || runs.runs != runs.backend || runs.cost == nil {
			t.Fatalf("backend %v runs %v, which is not a concrete row", b, r.runs)
		}
		eng := NewOf[float32](b)
		eng.NewFrequencyEstimator(0.01, WithPinnedTuning())
		if got := eng.Stats()[0].Backend; got != runs.name {
			t.Fatalf("static %v engine reports backend %q, want %q", b, got, runs.name)
		}
		if r.runs != b {
			continue
		}
		c := candidateFor[float32](b, model)
		if c.Backend != r.name || c.New() == nil || c.Modeled(1000) <= 0 {
			t.Fatalf("candidateFor(%v) = {%q, ...}: want the row's name, a sorter and a positive modeled cost", b, c.Backend)
		}
		if concrete >= len(auto) || auto[concrete].Backend != r.name {
			t.Fatalf("autoCandidates misses concrete backend %v at position %d", b, concrete)
		}
		concrete++
	}
	if concrete != len(auto) {
		t.Fatalf("autoCandidates has %d entries for %d concrete rows", len(auto), concrete)
	}

	_, err := ParseBackend("vulkan")
	if err == nil {
		t.Fatal("ParseBackend accepted an unknown backend")
	}
	for _, r := range backendTable {
		if !strings.Contains(err.Error(), r.name) {
			t.Fatalf("ParseBackend error %q does not offer %q", err, r.name)
		}
	}
	for _, bad := range []Backend{-1, Backend(len(backendTable))} {
		if bad.row() != nil {
			t.Fatalf("Backend(%d) has a table row", int(bad))
		}
		if _, err := bad.MarshalText(); err == nil {
			t.Fatalf("Backend(%d) marshaled", int(bad))
		}
		if err := (Spec{Family: FamilyFrequency, Eps: 0.01, Backend: bad}).Validate(); err == nil {
			t.Fatalf("Spec.Validate accepted Backend(%d)", int(bad))
		}
	}
}
