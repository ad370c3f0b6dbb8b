package gpustream

// Declarative estimator specification: a Spec is a JSON-(de)serializable
// description of one estimator — family, error budget, window, sharding,
// ingestion mode, backend — that any process can validate and instantiate
// with Engine.NewFromSpec. It is the construction path of the streaming
// service daemon (cmd/streamd: the PUT handler's request body is a Spec),
// and the cmd tools build their estimators through it too, so every flag
// combination a tool accepts is expressible as a stored document.
//
//	spec := gpustream.Spec{Family: gpustream.FamilyQuantile, Eps: 1e-3}
//	eng := gpustream.New(spec.Backend) // none named: the host-native sorter
//	est, err := eng.NewFromSpec(spec)
//
// Estimators built from a Spec are bit-identical to the same family built
// through the typed constructors (the matrix test in spec_test.go pins
// this): NewFromSpec adds no wrapping, it only dispatches.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"gpustream/internal/frequency"
	"gpustream/internal/quantile"
	"gpustream/internal/shard"
	"gpustream/internal/window"
)

// Family identifies an estimator family — one of the seven concrete
// implementations behind the Estimator interface. The zero value is
// invalid, so a Spec decoded from JSON with no "family" key fails
// validation instead of silently defaulting.
type Family int

const (
	// FamilyFrequency is the whole-history lossy-counting frequency
	// estimator (NewFrequencyEstimator).
	FamilyFrequency Family = iota + 1
	// FamilyQuantile is the whole-history GK quantile estimator
	// (NewQuantileEstimator).
	FamilyQuantile
	// FamilySlidingFrequency answers frequency queries over the most
	// recent Window elements (NewSlidingFrequency).
	FamilySlidingFrequency
	// FamilySlidingQuantile answers quantile queries over the most recent
	// Window elements (NewSlidingQuantile).
	FamilySlidingQuantile
	// FamilyParallelFrequency shards frequency ingestion across K workers
	// (NewParallelFrequencyEstimator).
	FamilyParallelFrequency
	// FamilyParallelQuantile shards quantile ingestion across K workers
	// (NewParallelQuantileEstimator).
	FamilyParallelQuantile
	// FamilyFrugal is the frugal-streaming point-estimate tracker bank
	// (NewFrugalEstimator) — heuristic answers, a few words of state.
	FamilyFrugal
)

// familyRow is everything the package knows about one family. String,
// ParseFamily and its error text, MarshalText, Spec.Validate's membership
// test, the trait methods and the Kind strings Engine.Stats reports are all
// derived from familyTable; the one thing a table cannot hold is a generic
// constructor, so NewFromSpec keeps the only switch over families.
type familyRow struct {
	family  Family
	name    string   // canonical name: String, MarshalText, EstimatorStats.Kind
	aliases []string // other spellings ParseFamily accepts
	// The traits behind needsEps, AnswersQuantiles, AnswersFrequencies,
	// Sliding and Parallel.
	needsEps, quantiles, frequencies, sliding, parallel bool
}

// familyTable is indexed by Family value minus one (the zero Family is
// invalid and has no row).
var familyTable = [...]familyRow{
	{family: FamilyFrequency, name: "frequency", needsEps: true, frequencies: true},
	{family: FamilyQuantile, name: "quantile", needsEps: true, quantiles: true},
	{family: FamilySlidingFrequency, name: "sliding-frequency", aliases: []string{"window-frequency"},
		needsEps: true, frequencies: true, sliding: true},
	{family: FamilySlidingQuantile, name: "sliding-quantile", aliases: []string{"window-quantile"},
		needsEps: true, quantiles: true, sliding: true},
	{family: FamilyParallelFrequency, name: "parallel-frequency", aliases: []string{"sharded-frequency"},
		needsEps: true, frequencies: true, parallel: true},
	{family: FamilyParallelQuantile, name: "parallel-quantile", aliases: []string{"sharded-quantile"},
		needsEps: true, quantiles: true, parallel: true},
	{family: FamilyFrugal, name: "frugal", quantiles: true},
}

// row returns f's table row; a zero row (empty name, no traits) for a value
// that names no family.
func (f Family) row() *familyRow {
	if f < 1 || int(f) > len(familyTable) {
		return new(familyRow)
	}
	return &familyTable[f-1]
}

// String returns the canonical family name, the Kind string Engine.Stats
// reports.
func (f Family) String() string {
	if r := f.row(); r.name != "" {
		return r.name
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// ParseFamily resolves a family name to a Family, mirroring ParseBackend.
// The canonical names are the Family.String forms; "window-frequency" and
// "window-quantile" are accepted as aliases for the sliding families, and
// "sharded-frequency"/"sharded-quantile" for the parallel ones. Matching is
// case-insensitive.
func ParseFamily(name string) (Family, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, r := range familyTable {
		if key == r.name || slices.Contains(r.aliases, key) {
			return r.family, nil
		}
	}
	return 0, fmt.Errorf("gpustream: unknown family %q (want %s)", name,
		wantNames(familyTable[:], func(r familyRow) string { return r.name }))
}

// MarshalText encodes the family as its canonical name, so Family fields
// round-trip through JSON as strings. Invalid families fail.
func (f Family) MarshalText() ([]byte, error) {
	r := f.row()
	if r.name == "" {
		return nil, fmt.Errorf("gpustream: cannot marshal invalid family %s", f)
	}
	return []byte(r.name), nil
}

// UnmarshalText decodes a family name via ParseFamily.
func (f *Family) UnmarshalText(text []byte) error {
	parsed, err := ParseFamily(string(text))
	if err != nil {
		return err
	}
	*f = parsed
	return nil
}

// AsyncMode selects an estimator's ingestion execution mode: synchronous
// (the zero value — sort, merge and compress run inline), asynchronous (the
// paper's co-processing model: a staged executor overlaps the sort of one
// window with the merge/compress of the previous one), or automatic — the
// adaptive controller measures both modes on the live stream and commits to
// the faster one, re-probing on degradation. Mode flips only ever land at
// window boundaries, so every schedule is bit-identical to a fixed mode.
type AsyncMode int

const (
	// AsyncOff ingests synchronously (the default).
	AsyncOff AsyncMode = iota
	// AsyncOn ingests through the staged asynchronous executor.
	AsyncOn
	// AsyncAuto hands the mode to the adaptive controller at runtime.
	AsyncAuto
)

// MarshalJSON encodes the mode in the Spec wire form: the booleans the
// pre-elastic schema used for off/on, or the string "auto".
func (a AsyncMode) MarshalJSON() ([]byte, error) {
	switch a {
	case AsyncOff:
		return []byte("false"), nil
	case AsyncOn:
		return []byte("true"), nil
	case AsyncAuto:
		return []byte(`"auto"`), nil
	}
	return nil, fmt.Errorf("gpustream: cannot marshal invalid async mode %d", int(a))
}

// UnmarshalJSON accepts a boolean (the pre-elastic schema) or one of the
// strings "auto", "on", "off".
func (a *AsyncMode) UnmarshalJSON(data []byte) error {
	switch strings.ToLower(strings.Trim(string(data), `"`)) {
	case "false", "off":
		*a = AsyncOff
	case "true", "on":
		*a = AsyncOn
	case "auto":
		*a = AsyncAuto
	default:
		return fmt.Errorf("gpustream: bad async mode %s (want true, false, or \"auto\")", data)
	}
	return nil
}

// String reports the mode in the -async flag vocabulary.
func (a AsyncMode) String() string {
	switch a {
	case AsyncOn:
		return "on"
	case AsyncAuto:
		return "auto"
	}
	return "off"
}

// ShardCount is a parallel family's worker count: a positive count, zero for
// GOMAXPROCS, or ShardsAuto for elastic sharding — the estimator starts at
// GOMAXPROCS workers and a runtime scaler hill-climbs the count against
// measured throughput, spawning shards at the merge-safe eps/2 budget and
// folding drained shards' summaries back on scale-down (DESIGN.md §16).
type ShardCount int

// ShardsAuto asks the runtime to own the shard count.
const ShardsAuto ShardCount = -1

// MarshalJSON encodes the count as a JSON number, or the string "auto" for
// ShardsAuto.
func (s ShardCount) MarshalJSON() ([]byte, error) {
	if s == ShardsAuto {
		return []byte(`"auto"`), nil
	}
	return json.Marshal(int(s))
}

// UnmarshalJSON accepts a JSON number (the pre-elastic schema) or the string
// "auto".
func (s *ShardCount) UnmarshalJSON(data []byte) error {
	if strings.EqualFold(strings.Trim(string(data), `"`), "auto") {
		*s = ShardsAuto
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("gpustream: bad shard count %s (want a number or \"auto\")", data)
	}
	*s = ShardCount(n)
	return nil
}

// String reports the count in the -shards flag vocabulary.
func (s ShardCount) String() string {
	if s == ShardsAuto {
		return "auto"
	}
	return fmt.Sprintf("%d", int(s))
}

// Spec is a declarative, JSON-(de)serializable description of one
// estimator. Zero values mean "unset": fields a family does not use must be
// left zero (Validate rejects stray settings loudly, so a misspelled
// configuration cannot silently construct the wrong sketch).
type Spec struct {
	// Family selects the estimator family. Required.
	Family Family `json:"family"`
	// Eps is the approximation error budget in (0, 1). Required for every
	// family except frugal, whose answers carry no eps bound (leave zero).
	Eps float64 `json:"eps,omitempty"`
	// Phis are target quantiles in [0, 1]. For the frugal family they
	// select the tracked quantiles (one tracker each; default
	// frugal.DefaultPhis); for the other quantile-answering families they
	// are the default query probes (cmd/streamd answers /quantile with
	// them when the request names no phi). Frequency families take none.
	Phis []float64 `json:"phis,omitempty"`
	// Window is a window size in elements. For the sliding families it is
	// the query window — required (> 0), part of the answer's semantics.
	// For the whole-history frequency/quantile families (serial and
	// parallel) a positive value overrides the sort-window size — a tuning
	// knob, clamped up to the family's eps floor — and zero keeps the
	// default (or, under backend "auto", lets the controller choose).
	// Frugal takes none.
	Window int `json:"window,omitempty"`
	// Capacity is accepted on the quantile families for compatibility and
	// ignored: their bound holds at any stream length.
	Capacity int64 `json:"capacity,omitempty"`
	// Shards is the worker count for the parallel families; zero selects
	// GOMAXPROCS, and ShardsAuto ("auto" in JSON) hands the count to the
	// runtime scaler. Serial families take none.
	Shards ShardCount `json:"shards,omitempty"`
	// Async selects the ingestion execution mode: synchronous (false, the
	// default), staged asynchronous (true — sort overlaps merge/compress),
	// or AsyncAuto ("auto" in JSON) — the adaptive controller owns the mode
	// at runtime. Not applicable to frugal, which never sorts.
	Async AsyncMode `json:"async,omitempty"`
	// Backend is the sorting backend the estimator's pipeline runs on.
	// The zero value is BackendSampleSort, so an omitted JSON field selects
	// the host-native sorter (and omitempty drops it on the way out); the
	// paper's GPU sorter is the named choice "gpu".
	Backend Backend `json:"backend,omitempty"`
	// Support is the default heavy-hitter support threshold in (0, 1) for
	// frequency-answering families — a query-time default (used by
	// cmd/streamd's /heavyhitters), not a construction parameter.
	Support float64 `json:"support,omitempty"`
}

// needsEps reports whether the family carries an eps budget; frugal is the
// one family that does not.
func (f Family) needsEps() bool { return f.row().needsEps }

// AnswersQuantiles reports whether the family answers quantile queries
// (Snapshot().Quantile returns ok on a non-empty stream).
func (f Family) AnswersQuantiles() bool { return f.row().quantiles }

// AnswersFrequencies reports whether the family answers heavy-hitter and
// point-frequency queries.
func (f Family) AnswersFrequencies() bool { return f.row().frequencies }

// Sliding reports whether the family is windowed.
func (f Family) Sliding() bool { return f.row().sliding }

// Parallel reports whether the family shards ingestion.
func (f Family) Parallel() bool { return f.row().parallel }

// Bounds on what one spec may make a process allocate. An estimator
// allocates its whole window buffer at construction and a parallel family
// builds one estimator and one goroutine per shard, so past these a spec is
// an out-of-memory crash, not a large stream. No spec the tools and tests
// write comes near either.
const (
	maxSpecBuffer = 1 << 24 // values, across all of a spec's shards
	maxSpecShards = 1 << 10
)

// buffer reports how many values one of the spec's estimators buffers (for
// a parallel family, one shard's), by the rules its constructor calls: the
// sliding pane, or the sort window at the eps its shards run at — twice
// over for a quantile estimator, which holds one sorted window until the
// next makes level 0 with it. Frugal buffers nothing.
func (s Spec) buffer() float64 {
	switch {
	case s.Family == FamilyFrugal:
		return 0
	case s.Family.Sliding():
		return float64(window.PaneSize(s.Eps, s.Window))
	case s.Family.AnswersQuantiles():
		eps := s.Eps
		if s.Family.Parallel() {
			eps = shard.QuantileEps(eps, s.shardReach(), s.Shards == ShardsAuto)
		}
		return 2 * float64(quantile.Window(eps, s.Window))
	}
	return float64(frequency.Window(s.Eps, s.Window))
}

// shardReach is how many of those buffers the spec's estimator can hold at
// once: the shard count it builds (GOMAXPROCS for zero) or, elastic, the
// count its scaler can climb to.
func (s Spec) shardReach() int {
	if !s.Family.Parallel() {
		return 1
	}
	return shard.Reach(int(s.Shards), s.Shards == ShardsAuto)
}

// Validate checks the spec for internal consistency: a nil error means
// NewFromSpec will construct it without panicking. Unknown families, eps
// outside (0, 1), any field set for a family that does not use it, and a
// window buffer or shard count past the package bounds are all rejected
// with a descriptive error.
func (s Spec) Validate() error {
	if s.Family.row().name == "" {
		return fmt.Errorf("gpustream: spec has no valid family (got %v)", s.Family)
	}
	if s.Family.needsEps() {
		if s.Eps <= 0 || s.Eps >= 1 {
			return fmt.Errorf("gpustream: spec eps %v out of (0, 1) for family %v", s.Eps, s.Family)
		}
	} else if s.Eps != 0 {
		return fmt.Errorf("gpustream: family %v carries no eps bound; leave eps zero (got %v)", s.Family, s.Eps)
	}
	if s.Family.Sliding() {
		if s.Window <= 0 {
			return fmt.Errorf("gpustream: family %v needs window > 0 (got %d)", s.Family, s.Window)
		}
	} else if s.Window != 0 {
		if s.Family == FamilyFrugal {
			return fmt.Errorf("gpustream: family %v takes no window (got %d)", s.Family, s.Window)
		}
		if s.Window < 0 {
			return fmt.Errorf("gpustream: spec window %d < 0 (zero keeps the default sort window)", s.Window)
		}
	}
	if s.Family.Parallel() {
		if s.Shards < 0 && s.Shards != ShardsAuto {
			return fmt.Errorf("gpustream: spec shards %d < 0 (zero selects GOMAXPROCS, \"auto\" enables elastic sharding)", int(s.Shards))
		}
	} else if s.Shards != 0 {
		return fmt.Errorf("gpustream: family %v does not shard (got shards %v)", s.Family, s.Shards)
	}
	if s.Shards > maxSpecShards {
		return fmt.Errorf("gpustream: spec shards %d over the limit of %d", int(s.Shards), maxSpecShards)
	}
	if buf := s.buffer() * float64(s.shardReach()); buf > maxSpecBuffer {
		return fmt.Errorf("gpustream: spec buffers %.4g values per window, over the limit of %d (raise eps, or lower the window or shards)", buf, maxSpecBuffer)
	}
	if s.Family == FamilyQuantile || s.Family == FamilyParallelQuantile {
		if s.Capacity < 0 {
			return fmt.Errorf("gpustream: spec capacity %d < 0 (it is ignored; leave it zero)", s.Capacity)
		}
	} else if s.Capacity != 0 {
		return fmt.Errorf("gpustream: family %v takes no capacity (got %d)", s.Family, s.Capacity)
	}
	switch s.Async {
	case AsyncOff, AsyncOn, AsyncAuto:
	default:
		return fmt.Errorf("gpustream: spec has unknown async mode %d", int(s.Async))
	}
	if s.Family == FamilyFrugal && s.Async != AsyncOff {
		return fmt.Errorf("gpustream: family frugal never sorts; async does not apply")
	}
	if len(s.Phis) > 0 && !s.Family.AnswersQuantiles() {
		return fmt.Errorf("gpustream: family %v answers no quantile queries; phis do not apply", s.Family)
	}
	for _, phi := range s.Phis {
		if phi < 0 || phi > 1 {
			return fmt.Errorf("gpustream: spec phi %v out of [0, 1]", phi)
		}
	}
	if s.Support != 0 {
		if !s.Family.AnswersFrequencies() {
			return fmt.Errorf("gpustream: family %v answers no frequency queries; support does not apply", s.Family)
		}
		if s.Support < 0 || s.Support >= 1 {
			return fmt.Errorf("gpustream: spec support %v out of [0, 1)", s.Support)
		}
	}
	if s.Backend.row() == nil {
		return fmt.Errorf("gpustream: spec has unknown backend %v", s.Backend)
	}
	return nil
}

// ParseSpec decodes and validates a JSON spec document — the request body
// cmd/streamd's PUT handler accepts. Unknown JSON fields are rejected, so a
// misspelled key fails loudly instead of leaving a default in place.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("gpustream: bad spec document: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// NewFromSpec validates the spec and constructs the estimator it describes
// through the same per-family build functions the typed constructors call,
// so the result is bit-identical to a hand-built estimator of the same
// configuration. The spec's backend must match the engine's: the engine is
// the backend binding, and a spec asking for a different sorter is a
// configuration error, not a silent override.
func (e *Engine[T]) NewFromSpec(spec Spec) (Estimator[T], error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Backend != e.backend {
		return nil, fmt.Errorf("gpustream: spec backend %v does not match engine backend %v", spec.Backend, e.backend)
	}
	// The config is filled straight from the spec. A sliding family's Window
	// is its query window, passed positionally; only the whole-history
	// families read it as the sort-window override.
	cfg := estimatorConfig{async: spec.Async, elastic: spec.Shards == ShardsAuto}
	if !spec.Family.Sliding() {
		cfg.window = spec.Window
	}
	shards := int(spec.Shards)
	if cfg.elastic {
		// Elastic sharding starts at the GOMAXPROCS default; the scaler
		// owns the count from the first observed batch on.
		shards = 0
	}
	switch spec.Family {
	case FamilyFrequency:
		return e.newFrequency(spec.Eps, cfg), nil
	case FamilyQuantile:
		return e.newQuantile(spec.Eps, spec.Capacity, cfg), nil
	case FamilySlidingFrequency:
		return e.newSlidingFrequency(spec.Eps, spec.Window, cfg), nil
	case FamilySlidingQuantile:
		return e.newSlidingQuantile(spec.Eps, spec.Window, cfg), nil
	case FamilyParallelFrequency:
		return e.newParallelFrequency(spec.Eps, shards, e.sharding(cfg)), nil
	case FamilyParallelQuantile:
		return e.newParallelQuantile(spec.Eps, spec.Capacity, shards, e.sharding(cfg)), nil
	case FamilyFrugal:
		var fopts []FrugalOption
		if len(spec.Phis) > 0 {
			fopts = append(fopts, WithPhis(spec.Phis...))
		}
		return e.NewFrugalEstimator(fopts...), nil
	}
	// Unreachable: Validate pinned the family above.
	return nil, fmt.Errorf("gpustream: spec has no valid family (got %v)", spec.Family)
}
