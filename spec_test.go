package gpustream_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gpustream"
	"gpustream/internal/stream"
)

// allFamilies is the full family enumeration, used by the round-trip and
// matrix tests below.
var allFamilies = []gpustream.Family{
	gpustream.FamilyFrequency,
	gpustream.FamilyQuantile,
	gpustream.FamilySlidingFrequency,
	gpustream.FamilySlidingQuantile,
	gpustream.FamilyParallelFrequency,
	gpustream.FamilyParallelQuantile,
	gpustream.FamilyFrugal,
}

func TestParseFamilyRoundTrip(t *testing.T) {
	for _, f := range allFamilies {
		got, err := gpustream.ParseFamily(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFamily(%q) = %v, %v; want %v", f.String(), got, err, f)
		}
		// Case-insensitive with surrounding space.
		got, err = gpustream.ParseFamily("  " + strings.ToUpper(f.String()) + " ")
		if err != nil || got != f {
			t.Errorf("ParseFamily(upper %q) = %v, %v; want %v", f.String(), got, err, f)
		}
	}
	for alias, want := range map[string]gpustream.Family{
		"window-frequency":  gpustream.FamilySlidingFrequency,
		"window-quantile":   gpustream.FamilySlidingQuantile,
		"sharded-frequency": gpustream.FamilyParallelFrequency,
		"sharded-quantile":  gpustream.FamilyParallelQuantile,
	} {
		if got, err := gpustream.ParseFamily(alias); err != nil || got != want {
			t.Errorf("ParseFamily(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
	if _, err := gpustream.ParseFamily("nope"); err == nil {
		t.Error("ParseFamily(nope) succeeded")
	}
	if _, err := gpustream.Family(0).MarshalText(); err == nil {
		t.Error("Family(0).MarshalText succeeded")
	}
}

func TestBackendTextRoundTrip(t *testing.T) {
	for _, b := range []gpustream.Backend{
		gpustream.BackendSampleSort, gpustream.BackendGPU, gpustream.BackendGPUBitonic,
		gpustream.BackendCPU, gpustream.BackendCPUParallel, gpustream.BackendAuto,
	} {
		text, err := b.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", b, err)
		}
		var back gpustream.Backend
		if err := back.UnmarshalText(text); err != nil || back != b {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, b)
		}
		// JSON round-trip through a struct field, the shape /statsz and
		// stored specs use.
		blob, err := json.Marshal(struct{ B gpustream.Backend }{b})
		if err != nil {
			t.Fatalf("json.Marshal backend %v: %v", b, err)
		}
		if want := `{"B":"` + b.String() + `"}`; string(blob) != want {
			t.Errorf("json.Marshal backend %v = %s, want %s", b, blob, want)
		}
	}
	if _, err := gpustream.Backend(99).MarshalText(); err == nil {
		t.Error("MarshalText of unknown backend succeeded")
	}
	var b gpustream.Backend
	if err := b.UnmarshalText([]byte("not-a-backend")); err == nil {
		t.Error("UnmarshalText of unknown backend succeeded")
	}
	// Legacy -backend flag aliases keep working through the text decoder.
	if err := b.UnmarshalText([]byte("cpu-ht")); err != nil || b != gpustream.BackendCPUParallel {
		t.Errorf("UnmarshalText(cpu-ht) = %v, %v", b, err)
	}
}

func TestSpecValidate(t *testing.T) {
	// "shards":0 builds GOMAXPROCS shards and "auto" can climb to twice
	// that; pin it so the buffer-bound rows mean the same on every host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	valid := []gpustream.Spec{
		{Family: gpustream.FamilyFrequency, Eps: 0.001, Support: 0.01},
		{Family: gpustream.FamilyQuantile, Eps: 0.001, Capacity: 1 << 20, Phis: []float64{0.5, 0.99}},
		{Family: gpustream.FamilySlidingFrequency, Eps: 0.01, Window: 1000},
		{Family: gpustream.FamilySlidingQuantile, Eps: 0.01, Window: 1000, Async: gpustream.AsyncOn},
		{Family: gpustream.FamilyParallelFrequency, Eps: 0.001, Shards: 4},
		{Family: gpustream.FamilyParallelQuantile, Eps: 0.001, Shards: 0, Async: gpustream.AsyncOn},
		{Family: gpustream.FamilyFrugal, Phis: []float64{0.5}},
		{Family: gpustream.FamilyQuantile, Eps: 0.001, Backend: gpustream.BackendCPU},
		{Family: gpustream.FamilyQuantile, Eps: 0.001, Window: 5000, Backend: gpustream.BackendSampleSort},
		{Family: gpustream.FamilyParallelFrequency, Eps: 0.01, Window: 2000, Backend: gpustream.BackendAuto},
		{Family: gpustream.FamilyParallelQuantile, Eps: 0.001, Shards: gpustream.ShardsAuto, Async: gpustream.AsyncAuto},
		{Family: gpustream.FamilyQuantile, Eps: 0.001, Async: gpustream.AsyncAuto},
		{Family: gpustream.FamilySlidingFrequency, Eps: 0.01, Window: 1000, Async: gpustream.AsyncAuto},
		// At the window-buffer bound: 2^24 values, and a pane of 2^22.
		{Family: gpustream.FamilyFrequency, Eps: 1.0 / (1 << 24)},
		{Family: gpustream.FamilySlidingQuantile, Eps: 0.5, Window: 1 << 24},
		{Family: gpustream.FamilyParallelFrequency, Eps: 0.01, Shards: 1 << 10},
		// A quantile estimator holds a sorted window beside the one it
		// fills: two sort windows of 2^23.
		{Family: gpustream.FamilyQuantile, Eps: 0.01, Window: 1 << 23},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}

	invalid := []struct {
		name string
		spec gpustream.Spec
		want string // substring of the error
	}{
		{"zero spec", gpustream.Spec{}, "no valid family"},
		{"unknown family", gpustream.Spec{Family: gpustream.Family(42), Eps: 0.01}, "no valid family"},
		{"eps zero", gpustream.Spec{Family: gpustream.FamilyQuantile}, "out of (0, 1)"},
		{"eps one", gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 1}, "out of (0, 1)"},
		{"eps negative", gpustream.Spec{Family: gpustream.FamilyParallelQuantile, Eps: -0.5}, "out of (0, 1)"},
		{"frugal with eps", gpustream.Spec{Family: gpustream.FamilyFrugal, Eps: 0.01}, "no eps bound"},
		{"sliding without window", gpustream.Spec{Family: gpustream.FamilySlidingQuantile, Eps: 0.01}, "needs window"},
		{"window on frugal", gpustream.Spec{Family: gpustream.FamilyFrugal, Window: 100}, "takes no window"},
		{"negative sort window", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01, Window: -5}, "window -5"},
		{"shards on serial", gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 0.01, Shards: 4}, "does not shard"},
		{"negative shards", gpustream.Spec{Family: gpustream.FamilyParallelQuantile, Eps: 0.01, Shards: -2}, "shards -2"},
		{"auto shards on serial", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01, Shards: gpustream.ShardsAuto}, "does not shard"},
		{"frugal auto async", gpustream.Spec{Family: gpustream.FamilyFrugal, Async: gpustream.AsyncAuto}, "never sorts"},
		{"bad async mode", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01, Async: gpustream.AsyncMode(7)}, "unknown async mode"},
		{"capacity on frequency", gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 0.01, Capacity: 10}, "takes no capacity"},
		{"negative capacity", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01, Capacity: -1}, "capacity -1"},
		{"frugal async", gpustream.Spec{Family: gpustream.FamilyFrugal, Async: gpustream.AsyncOn}, "never sorts"},
		{"phis on frequency", gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 0.01, Phis: []float64{0.5}}, "phis do not apply"},
		{"phi out of range", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01, Phis: []float64{1.5}}, "out of [0, 1]"},
		{"support on quantile", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01, Support: 0.1}, "support does not apply"},
		{"support out of range", gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 0.01, Support: 1.5}, "out of [0, 1)"},
		{"unknown backend", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01, Backend: gpustream.Backend(9)}, "unknown backend"},
		// Each of these used to reach the constructor, which allocates the
		// whole window buffer up front: out of memory, or a makeslice panic.
		{"sort window past the buffer bound", gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 0.001, Window: 1 << 40}, "over the limit"},
		{"frequency eps past the buffer bound", gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 1e-12}, "over the limit"},
		{"quantile eps past the buffer bound", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 1e-13}, "over the limit"},
		{"parallel quantile eps past the buffer bound", gpustream.Spec{Family: gpustream.FamilyParallelQuantile, Eps: 1e-7}, "over the limit"},
		{"sliding pane past the buffer bound", gpustream.Spec{Family: gpustream.FamilySlidingQuantile, Eps: 0.5, Window: 1 << 62}, "over the limit"},
		{"shards past the bound", gpustream.Spec{Family: gpustream.FamilyParallelFrequency, Eps: 0.01, Shards: 1 << 20}, "shards 1048576 over the limit"},
		{"shards times window past the buffer bound", gpustream.Spec{Family: gpustream.FamilyParallelQuantile, Eps: 1e-4, Shards: 512}, "over the limit"},
		// One sort window fits the bound, the held one beside it does not.
		{"held quantile window past the buffer bound", gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01, Window: 1<<23 + 1}, "over the limit"},
		// 1e7 values per shard fit the bound once, not the four times that
		// "shards":0 builds; 3.3e6 fit it four times, not the eight times
		// "auto" can climb to.
		{"GOMAXPROCS shards past the buffer bound", gpustream.Spec{Family: gpustream.FamilyParallelFrequency, Eps: 1e-7}, "over the limit"},
		{"elastic shards past the buffer bound", gpustream.Spec{Family: gpustream.FamilyParallelFrequency, Eps: 3e-7, Shards: gpustream.ShardsAuto}, "over the limit"},
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) = nil, want error containing %q", tc.spec, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate(%+v) = %q, want substring %q", tc.spec, err, tc.want)
			}
			// A spec that fails validation must fail construction with the
			// same error, never panic.
			eng := gpustream.New(gpustream.BackendGPU)
			if _, cerr := eng.NewFromSpec(tc.spec); cerr == nil {
				t.Errorf("NewFromSpec(%+v) succeeded on invalid spec", tc.spec)
			}
		})
	}
}

func TestNewFromSpecBackendMismatch(t *testing.T) {
	eng := gpustream.New(gpustream.BackendGPU)
	spec := gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.01, Backend: gpustream.BackendCPU}
	if _, err := eng.NewFromSpec(spec); err == nil || !strings.Contains(err.Error(), "does not match engine backend") {
		t.Errorf("NewFromSpec with mismatched backend: %v", err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []gpustream.Spec{
		{Family: gpustream.FamilyQuantile, Eps: 0.001, Capacity: 1 << 20, Phis: []float64{0.5, 0.99}, Async: gpustream.AsyncOn, Backend: gpustream.BackendCPU},
		{Family: gpustream.FamilyParallelFrequency, Eps: 0.01, Shards: 8, Support: 0.02},
		{Family: gpustream.FamilySlidingQuantile, Eps: 0.01, Window: 4096},
		{Family: gpustream.FamilyFrugal, Phis: []float64{0.25, 0.5, 0.75}},
		{Family: gpustream.FamilyParallelQuantile, Eps: 0.001, Shards: gpustream.ShardsAuto, Async: gpustream.AsyncAuto},
	}
	for _, s := range specs {
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", s, err)
		}
		got, err := gpustream.ParseSpec(blob)
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", blob, err)
		}
		if !specEqual(got, s) {
			t.Errorf("round trip %s: got %+v, want %+v", blob, got, s)
		}
	}
	// The family name travels as a string, not an int.
	blob, _ := json.Marshal(gpustream.Spec{Family: gpustream.FamilySlidingFrequency, Eps: 0.01, Window: 10})
	if !bytes.Contains(blob, []byte(`"sliding-frequency"`)) {
		t.Errorf("marshaled spec %s does not carry the family name", blob)
	}

	if _, err := gpustream.ParseSpec([]byte(`{"family":"quantile","eps":0.01,"bogus":1}`)); err == nil {
		t.Error("ParseSpec accepted an unknown field")
	}
	if _, err := gpustream.ParseSpec([]byte(`{"family":"quantile"}`)); err == nil {
		t.Error("ParseSpec accepted an invalid spec (no eps)")
	}
	if _, err := gpustream.ParseSpec([]byte(`not json`)); err == nil {
		t.Error("ParseSpec accepted garbage")
	}
	if _, err := gpustream.ParseSpec([]byte(`{"family":"florble","eps":0.01}`)); err == nil {
		t.Error("ParseSpec accepted an unknown family name")
	}

	// The elastic wire forms: "auto" strings for shards and async, and the
	// legacy boolean/number forms, all through the same decoder.
	got, err := gpustream.ParseSpec([]byte(`{"family":"parallel-quantile","eps":0.001,"shards":"auto","async":"auto"}`))
	if err != nil {
		t.Fatalf("ParseSpec(elastic): %v", err)
	}
	if got.Shards != gpustream.ShardsAuto || got.Async != gpustream.AsyncAuto {
		t.Errorf("ParseSpec(elastic) = shards %v async %v, want auto/auto", got.Shards, got.Async)
	}
	blob, err = json.Marshal(got)
	if err != nil {
		t.Fatalf("Marshal(elastic): %v", err)
	}
	if !bytes.Contains(blob, []byte(`"shards":"auto"`)) || !bytes.Contains(blob, []byte(`"async":"auto"`)) {
		t.Errorf("marshaled elastic spec %s does not carry the auto forms", blob)
	}
	got, err = gpustream.ParseSpec([]byte(`{"family":"parallel-quantile","eps":0.001,"shards":4,"async":true}`))
	if err != nil {
		t.Fatalf("ParseSpec(legacy): %v", err)
	}
	if got.Shards != 4 || got.Async != gpustream.AsyncOn {
		t.Errorf("ParseSpec(legacy) = shards %v async %v, want 4/on", got.Shards, got.Async)
	}
	if _, err := gpustream.ParseSpec([]byte(`{"family":"quantile","eps":0.01,"async":"sideways"}`)); err == nil {
		t.Error("ParseSpec accepted a bad async mode")
	}
	if _, err := gpustream.ParseSpec([]byte(`{"family":"parallel-quantile","eps":0.01,"shards":"many"}`)); err == nil {
		t.Error("ParseSpec accepted a bad shard count")
	}
}

// TestSpecDefaultBackend pins what a spec that names no backend means: the
// host-native sorter — the zero Backend, which omitempty drops again — while
// "gpu" stays a named choice that constructs the simulator and survives a
// JSON round trip.
func TestSpecDefaultBackend(t *testing.T) {
	if got := new(gpustream.Spec).Backend; got != gpustream.BackendSampleSort {
		t.Fatalf("zero Backend is %v, want samplesort", got)
	}
	spec, err := gpustream.ParseSpec([]byte(`{"family":"quantile","eps":0.01}`))
	if err != nil || spec.Backend != gpustream.BackendSampleSort {
		t.Fatalf("backend-less spec parsed to backend %v, %v", spec.Backend, err)
	}
	if blob, _ := json.Marshal(spec); bytes.Contains(blob, []byte("backend")) {
		t.Errorf("marshaled backend-less spec %s names a backend", blob)
	}
	eng := gpustream.New(spec.Backend)
	if _, err := eng.NewFromSpec(spec); err != nil || eng.Sorter().Name() != "samplesort" {
		t.Errorf("backend-less spec: sorter %q, %v", eng.Sorter().Name(), err)
	}

	spec, err = gpustream.ParseSpec([]byte(`{"family":"quantile","eps":0.01,"backend":"gpu"}`))
	if err != nil || spec.Backend != gpustream.BackendGPU {
		t.Fatalf(`"backend":"gpu" parsed to %v, %v`, spec.Backend, err)
	}
	if blob, _ := json.Marshal(spec); !bytes.Contains(blob, []byte(`"backend":"gpu"`)) {
		t.Errorf("marshaled gpu spec %s dropped the backend", blob)
	}
	eng = gpustream.New(spec.Backend)
	if _, err := eng.NewFromSpec(spec); err != nil || !strings.HasPrefix(eng.Sorter().Name(), "gpu") {
		t.Errorf("gpu spec: sorter %q, %v", eng.Sorter().Name(), err)
	}
}

func specEqual(a, b gpustream.Spec) bool {
	if len(a.Phis) != len(b.Phis) {
		return false
	}
	for i := range a.Phis {
		if a.Phis[i] != b.Phis[i] {
			return false
		}
	}
	a.Phis, b.Phis = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestNewFromSpecMatchesTypedConstructors pins the acceptance criterion
// that spec-built estimators are bit-identical to hand-built ones: for
// every family, the same stream ingested through NewFromSpec and through
// the typed constructor yields byte-equal marshaled snapshots and equal
// query answers.
func TestNewFromSpecMatchesTypedConstructors(t *testing.T) {
	const n = 30_000
	data := stream.Zipf(n, 1.2, 800, 11)
	phis := []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99}

	cases := []struct {
		spec  gpustream.Spec
		typed func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32]
	}{
		{
			spec: gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 0.001},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewFrequencyEstimator(0.001)
			},
		},
		{
			spec: gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.001, Capacity: n},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewQuantileEstimator(0.001)
			},
		},
		{
			spec: gpustream.Spec{Family: gpustream.FamilySlidingFrequency, Eps: 0.005, Window: 8192},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewSlidingFrequency(0.005, 8192)
			},
		},
		{
			spec: gpustream.Spec{Family: gpustream.FamilySlidingQuantile, Eps: 0.005, Window: 8192},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewSlidingQuantile(0.005, 8192)
			},
		},
		{
			spec: gpustream.Spec{Family: gpustream.FamilyParallelFrequency, Eps: 0.001, Shards: 2},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewParallelFrequencyEstimator(0.001, 2)
			},
		},
		{
			spec: gpustream.Spec{Family: gpustream.FamilyParallelQuantile, Eps: 0.001, Capacity: n, Shards: 2},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewParallelQuantileEstimator(0.001, 2)
			},
		},
		{
			spec: gpustream.Spec{Family: gpustream.FamilyFrugal, Phis: phis},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewFrugalEstimator(gpustream.WithPhis(phis...))
			},
		},
		// Async specs must be bit-identical too (the staged executor is
		// bit-identical to sync by construction, so spec-vs-typed stays
		// byte-equal).
		{
			spec: gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 0.001, Capacity: n, Async: gpustream.AsyncOn},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewQuantileEstimator(0.001, gpustream.WithAsyncIngestion())
			},
		},
		// The one option type: the serial options and Spec fields match on a
		// serial constructor, and on a parallel one, which applies each
		// option to every shard.
		{
			spec: gpustream.Spec{Family: gpustream.FamilyFrequency, Eps: 0.001, Window: 4096, Async: gpustream.AsyncOn},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewFrequencyEstimator(0.001, gpustream.WithAsyncIngestion(), gpustream.WithSortWindow(4096))
			},
		},
		{
			spec: gpustream.Spec{Family: gpustream.FamilyParallelFrequency, Eps: 0.001, Window: 4096, Shards: 2, Async: gpustream.AsyncOn},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewParallelFrequencyEstimator(0.001, 2, gpustream.WithAsyncIngestion(), gpustream.WithSortWindow(4096))
			},
		},
		{
			spec: gpustream.Spec{Family: gpustream.FamilyParallelQuantile, Eps: 0.001, Window: 4096, Shards: 2, Async: gpustream.AsyncOn},
			typed: func(eng *gpustream.Engine[float32]) gpustream.Estimator[float32] {
				return eng.NewParallelQuantileEstimator(0.001, 2, gpustream.WithAsyncIngestion(), gpustream.WithSortWindow(4096))
			},
		},
	}

	for _, tc := range cases {
		name := tc.spec.Family.String()
		if tc.spec.Async == gpustream.AsyncOn {
			name += "-async"
		}
		if tc.spec.Window > 0 && !tc.spec.Family.Sliding() {
			name += "-window"
		}
		t.Run(name, func(t *testing.T) {
			engSpec := gpustream.New(gpustream.BackendGPU)
			tc.spec.Backend = gpustream.BackendGPU
			fromSpec, err := engSpec.NewFromSpec(tc.spec)
			if err != nil {
				t.Fatalf("NewFromSpec: %v", err)
			}
			engTyped := gpustream.New(gpustream.BackendGPU)
			typed := tc.typed(engTyped)

			for _, est := range []gpustream.Estimator[float32]{fromSpec, typed} {
				if err := est.ProcessSlice(data); err != nil {
					t.Fatalf("ProcessSlice: %v", err)
				}
				if err := est.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}
			if a, b := fromSpec.Count(), typed.Count(); a != b {
				t.Fatalf("Count: spec %d, typed %d", a, b)
			}

			sa, sb := fromSpec.Snapshot(), typed.Snapshot()
			for _, phi := range phis {
				va, oka := sa.Quantile(phi)
				vb, okb := sb.Quantile(phi)
				if va != vb || oka != okb {
					t.Errorf("Quantile(%g): spec (%v, %v), typed (%v, %v)", phi, va, oka, vb, okb)
				}
			}
			ha, oka := sa.HeavyHitters(0.01)
			hb, okb := sb.HeavyHitters(0.01)
			if oka != okb || len(ha) != len(hb) {
				t.Fatalf("HeavyHitters: spec (%d items, %v), typed (%d items, %v)", len(ha), oka, len(hb), okb)
			}
			for i := range ha {
				if ha[i] != hb[i] {
					t.Errorf("HeavyHitters[%d]: spec %+v, typed %+v", i, ha[i], hb[i])
				}
			}

			blobA, errA := gpustream.MarshalSnapshot(sa)
			blobB, errB := gpustream.MarshalSnapshot(sb)
			if errA != nil || errB != nil {
				t.Fatalf("MarshalSnapshot: spec %v, typed %v", errA, errB)
			}
			if !bytes.Equal(blobA, blobB) {
				t.Errorf("marshaled snapshots differ: %d vs %d bytes", len(blobA), len(blobB))
			}
		})
	}
}
