// Package keyed implements massive-cardinality keyed quantile estimation:
// one estimator per stream key at a memory cost that stays feasible when
// keys number in the tens of millions. It is the two-tier front-end the
// frugal package exists for:
//
//   - Every key starts in the frugal tier: one frugal-streaming tracker
//     (internal/frugal) per key — a value word and a control byte — pooled
//     in chunked parallel-array slabs with a map index. No per-key
//     allocation, no per-key goroutine; tens of bytes per key all-in.
//   - Keys are simultaneously fed (key only, not value) through the paper's
//     lossy-counting frequency estimator, which acts as the heavy-hitter
//     oracle. Keys whose estimated share crosses the promotion support are
//     promoted to the full tier: a dedicated eps-approximate GK summary
//     (internal/summary) answering any quantile with rank guarantees.
//   - Promotion replays nothing. The promoted summary is seeded with the
//     key's frugal estimate as a point mass weighted by the oracle's count
//     of the key's prefix, so prefix mass is accounted (conservatively,
//     with rank uncertainty up to the prefix length) rather than dropped —
//     DESIGN.md §17 develops the error argument.
//
// The net effect is the natural division of labor for skewed key
// distributions: the heavy keys that dominate queries get real summaries,
// the long tail gets one word each, and the oracle decides which is which
// as the stream evolves.
package keyed

import (
	"fmt"
	"sort"
	"sync"

	"gpustream/internal/frequency"
	"gpustream/internal/frugal"
	"gpustream/internal/pipeline"
	"gpustream/internal/sorter"
	"gpustream/internal/stream"
	"gpustream/internal/summary"
)

// promoted is one full-tier key: its dedicated GK summary over the suffix
// observed since promotion, plus the frugal seed standing in for the prefix.
type promoted[T sorter.Value] struct {
	gk      *summary.GK[T]
	seed    T     // frugal estimate at promotion time
	prefixN int64 // oracle's count of the prefix the seed stands in for
}

// effective returns the key's queryable summary: the suffix GK merged with
// the prefix point mass. The point mass spans ranks [1, prefixN], so its
// rank uncertainty is the whole prefix — exactly the honesty the no-replay
// design owes — and it shrinks relative to the stream as the suffix grows.
func (p *promoted[T]) effective(eps float64) *summary.Summary[T] {
	return summary.Merge(p.gk.ToSummary(), pointMass(p.seed, p.prefixN, eps))
}

// TierStats reports the keyed estimator's tier occupancy, as surfaced
// through Engine.Stats.
type TierStats struct {
	// Keys is the number of distinct keys currently tracked across both
	// tiers.
	Keys int
	// FrugalKeys is the number of keys in the pooled frugal tier.
	FrugalKeys int
	// PromotedKeys is the number of keys holding dedicated GK summaries.
	PromotedKeys int
	// Promotions counts promotion events over the estimator's lifetime.
	Promotions int64
	// PromotionRate is the promoted fraction of distinct keys, in [0, 1].
	PromotionRate float64
	// Observations is the total number of (key, value) pairs processed.
	Observations int64
}

// Option configures an Estimator.
type Option func(*config)

type config struct {
	phi  float64
	seed uint64
}

// WithPhi selects the quantile each frugal-tier tracker targets (default
// 0.5, the per-key median). Promoted keys answer any quantile regardless.
func WithPhi(phi float64) Option {
	return func(c *config) { c.phi = phi }
}

// WithSeed seeds the shared randomized rank gates of the frugal tier.
// Estimates are deterministic for a fixed seed and ingestion order.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// Estimator is the two-tier keyed front-end over (key, value) observations.
// K and T are both stack value types: keys must sort (they feed the
// heavy-hitter oracle's windowed pipeline) and wire-encode (keyed snapshots
// cross processes), which is why K is constrained to sorter.Value rather
// than bare comparable.
//
// One writer and any number of query goroutines may use an Estimator
// concurrently.
type Estimator[K sorter.Value, T sorter.Value] struct {
	mu      sync.Mutex
	phi     float64 // frugal-tier target quantile
	eps     float64 // promoted-tier GK error bound
	support float64 // promotion threshold (share of the stream)

	oracle     *frequency.Estimator[K]
	index      map[K]uint32 // frugal-tier key -> slab slot
	slab       slab[T]
	promoted   map[K]*promoted[T]
	rng        *stream.RNG
	n          int64
	promotions int64
	sinceSweep int
	sweepEvery int
	closed     bool
}

// NewEstimator returns a keyed estimator promoting keys above the given
// support (share of the stream, in (0, 1)) to dedicated eps-approximate GK
// summaries, with the heavy-hitter oracle sorting its windows on s. The
// oracle runs at support/2 error so its threshold (support - eps')·N sits at
// half-support: every key truly above support promotes (the oracle has no
// false negatives), at the cost of also promoting some keys above
// half-support — conservative in the direction that only costs memory,
// never accuracy.
func NewEstimator[K sorter.Value, T sorter.Value](eps, support float64, s sorter.Sorter[K], opts ...Option) *Estimator[K, T] {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("keyed: eps %v out of (0, 1)", eps))
	}
	if support <= 0 || support >= 1 {
		panic(fmt.Sprintf("keyed: support %v out of (0, 1)", support))
	}
	var cfg = config{phi: 0.5, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.phi < 0 || cfg.phi > 1 || cfg.phi != cfg.phi {
		panic(fmt.Sprintf("keyed: phi %v out of [0, 1]", cfg.phi))
	}
	e := &Estimator[K, T]{
		phi:      cfg.phi,
		eps:      eps,
		support:  support,
		oracle:   frequency.NewEstimator(support/2, s),
		index:    make(map[K]uint32),
		promoted: make(map[K]*promoted[T]),
		rng:      stream.NewRNG(cfg.seed),
	}
	// Sweeping for promotions once per oracle window aligns the sweep with
	// the oracle's natural merge boundary (Query flushes any partial window,
	// so off-cadence sweeps would force extra partial merges) and amortizes
	// the O(summary) scan to O(1) per observation.
	e.sweepEvery = e.oracle.WindowSize()
	return e
}

// Phi reports the frugal-tier target quantile.
func (e *Estimator[K, T]) Phi() float64 { return e.phi }

// Eps reports the promoted-tier error bound.
func (e *Estimator[K, T]) Eps() float64 { return e.eps }

// Support reports the promotion threshold.
func (e *Estimator[K, T]) Support() float64 { return e.support }

// Count reports the number of (key, value) observations processed.
func (e *Estimator[K, T]) Count() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Process consumes one keyed observation. After Close it returns an error
// wrapping pipeline.ErrClosed.
func (e *Estimator[K, T]) Process(k K, v T) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("keyed: %w", pipeline.ErrClosed)
	}
	e.ingestLocked(k, v)
	if err := e.oracle.Process(k); err != nil {
		return err
	}
	e.sinceSweep++
	e.maybeSweepLocked()
	return nil
}

// ProcessSlice consumes a batch of keyed observations; keys and vals must
// have equal length and the caller may reuse both slices immediately. After
// Close it returns an error wrapping pipeline.ErrClosed.
//
// The batch is ingested in sweep-cadence chunks, not en bloc: a promotion
// sweep must get the chance to run every oracle window even inside one huge
// batch, or a key promoted by the batch would have fed its entire batch
// prefix to the frugal tier and hand its GK summary nothing (the no-replay
// design never backfills), collapsing its answers to the seed point mass.
func (e *Estimator[K, T]) ProcessSlice(keys []K, vals []T) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("keyed: %d keys but %d values", len(keys), len(vals))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("keyed: %w", pipeline.ErrClosed)
	}
	for len(keys) > 0 {
		chunk := e.sweepEvery - e.sinceSweep
		if chunk > len(keys) {
			chunk = len(keys)
		}
		for i := 0; i < chunk; i++ {
			e.ingestLocked(keys[i], vals[i])
		}
		if err := e.oracle.ProcessSlice(keys[:chunk]); err != nil {
			return err
		}
		e.sinceSweep += chunk
		e.maybeSweepLocked()
		keys, vals = keys[chunk:], vals[chunk:]
	}
	return nil
}

// ingestLocked routes one observation to the key's tier.
func (e *Estimator[K, T]) ingestLocked(k K, v T) {
	e.n++
	if p, ok := e.promoted[k]; ok {
		p.gk.Insert(v)
		return
	}
	idx, ok := e.index[k]
	if !ok {
		idx = e.slab.alloc()
		e.index[k] = idx
	}
	est, ctl := e.slab.at(idx)
	*est, *ctl = frugal.Step(*est, *ctl, v, e.phi, e.rng.Uint64())
}

// maybeSweepLocked runs a promotion sweep once per oracle window.
func (e *Estimator[K, T]) maybeSweepLocked() {
	if e.sinceSweep < e.sweepEvery {
		return
	}
	e.sinceSweep = 0
	e.sweepLocked()
}

// sweepLocked promotes every key the oracle currently reports above the
// support threshold: the key's frugal slot is released back to the slab and
// its estimate becomes the seed of a fresh GK summary, weighted by the
// oracle's count of the prefix it stands in for.
func (e *Estimator[K, T]) sweepLocked() {
	for _, item := range e.oracle.Query(e.support) {
		k := item.Value
		if _, ok := e.promoted[k]; ok {
			continue
		}
		idx, ok := e.index[k]
		if !ok {
			continue
		}
		est, _ := e.slab.at(idx)
		prefixN := item.Freq
		if prefixN < 1 {
			prefixN = 1
		}
		e.promoted[k] = &promoted[T]{gk: summary.NewGK[T](e.eps), seed: *est, prefixN: prefixN}
		e.slab.release(idx)
		delete(e.index, k)
		e.promotions++
	}
}

// Flush forces the oracle's buffered partial window into its summary and
// runs a promotion sweep, so tier assignments reflect every observation
// processed so far.
func (e *Estimator[K, T]) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.oracle.Flush(); err != nil {
		return err
	}
	e.sinceSweep = 0
	e.sweepLocked()
	return nil
}

// Close stops ingestion and closes the oracle; the estimator remains
// queryable. Idempotent.
func (e *Estimator[K, T]) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return e.oracle.Close()
}

// Stats returns the unified pipeline telemetry of the heavy-hitter oracle —
// the only windowed (sorting) pipeline inside the keyed front-end; frugal
// steps and GK inserts contribute no sort/merge/compress work.
func (e *Estimator[K, T]) Stats() pipeline.Stats { return e.oracle.Stats() }

// TierStats reports current tier occupancy.
func (e *Estimator[K, T]) TierStats() TierStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tierStatsLocked()
}

func (e *Estimator[K, T]) tierStatsLocked() TierStats {
	st := TierStats{
		FrugalKeys:   len(e.index),
		PromotedKeys: len(e.promoted),
		Promotions:   e.promotions,
		Observations: e.n,
	}
	st.Keys = st.FrugalKeys + st.PromotedKeys
	if st.Keys > 0 {
		st.PromotionRate = float64(st.PromotedKeys) / float64(st.Keys)
	}
	return st
}

// Quantile answers a per-key quantile query. Promoted keys answer any phi
// from their seeded GK summary (eps-approximate over the suffix, plus the
// prefix point-mass uncertainty); frugal-tier keys answer with their single
// tracked estimate — a heuristic point estimate of the configured Phi target
// regardless of the phi requested. ok is false for keys never observed.
func (e *Estimator[K, T]) Quantile(k K, phi float64) (T, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.promoted[k]; ok {
		return p.effective(e.eps).Query(phi), true
	}
	if idx, ok := e.index[k]; ok {
		est, _ := e.slab.at(idx)
		return *est, true
	}
	var z T
	return z, false
}

// Promoted reports whether k currently holds a dedicated GK summary.
func (e *Estimator[K, T]) Promoted(k K) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.promoted[k]
	return ok
}

// KeyCount returns the oracle's estimated observation count for k, which
// undercounts the true count by at most (support/2)·N. ok is false for keys
// the oracle no longer tracks (necessarily light keys).
func (e *Estimator[K, T]) KeyCount(k K) (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cnt := e.oracle.Estimate(k)
	return cnt, cnt > 0
}

// HeavyKeys returns every key whose estimated share of the stream is at
// least s - support/2, ordered by decreasing count — the oracle's
// epsilon-approximate frequency query over the key stream.
func (e *Estimator[K, T]) HeavyKeys(s float64) []pipeline.Item[K] {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.oracle.Query(s)
}

// FrugalEntry is one frugal-tier key in a Snapshot: the tracker state plus
// the oracle's (clamped, at least 1) count of the key's observations, which
// the merge rules use as the tracker's backing weight.
type FrugalEntry[K sorter.Value, T sorter.Value] struct {
	Key K
	Est T
	Ctl uint8
	Cnt int64
}

// PromotedEntry is one promoted key in a Snapshot: its effective summary
// (suffix GK merged with the prefix point mass).
type PromotedEntry[K sorter.Value, T sorter.Value] struct {
	Key K
	Sum *summary.Summary[T]
}

// Snapshot is an immutable point-in-time view of a keyed estimator: both
// tiers (key-ascending, disjoint) plus the heavy-hitter oracle's summary.
// It is safe for concurrent use. Unlike the unkeyed families it does not
// implement pipeline.View — its query surface is per-key — so it travels
// through the keyed-specific wire entry points (MarshalBinary /
// UnmarshalSnapshot / MergeSnapshots in this package).
type Snapshot[K sorter.Value, T sorter.Value] struct {
	phi        float64
	support    float64
	n          int64
	promotions int64
	frugal     []FrugalEntry[K, T]
	promo      []PromotedEntry[K, T]
	oracle     *frequency.Snapshot[K]
}

// Snapshot returns an immutable view of both tiers and the oracle. Taking
// one is O(keys): the frugal slab is copied out into key-ascending entries.
// The view never sees ingestion that happens after this call.
func (e *Estimator[K, T]) Snapshot() *Snapshot[K, T] {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &Snapshot[K, T]{
		phi:        e.phi,
		support:    e.support,
		n:          e.n,
		promotions: e.promotions,
		oracle:     e.oracle.Snapshot().(*frequency.Snapshot[K]),
	}
	s.frugal = make([]FrugalEntry[K, T], 0, len(e.index))
	for k, idx := range e.index {
		est, ctl := e.slab.at(idx)
		cnt := s.oracle.Estimate(k)
		if cnt < 1 {
			cnt = 1 // the key exists, so it was observed at least once
		}
		s.frugal = append(s.frugal, FrugalEntry[K, T]{Key: k, Est: *est, Ctl: *ctl, Cnt: cnt})
	}
	sort.Slice(s.frugal, func(i, j int) bool {
		return sorter.OrderedKey(s.frugal[i].Key) < sorter.OrderedKey(s.frugal[j].Key)
	})
	s.promo = make([]PromotedEntry[K, T], 0, len(e.promoted))
	for k, p := range e.promoted {
		s.promo = append(s.promo, PromotedEntry[K, T]{Key: k, Sum: p.effective(e.eps)})
	}
	sort.Slice(s.promo, func(i, j int) bool {
		return sorter.OrderedKey(s.promo[i].Key) < sorter.OrderedKey(s.promo[j].Key)
	})
	return s
}

// Phi reports the frugal-tier target quantile.
func (s *Snapshot[K, T]) Phi() float64 { return s.phi }

// Support reports the promotion threshold.
func (s *Snapshot[K, T]) Support() float64 { return s.support }

// Count reports the number of observations the snapshot covers.
func (s *Snapshot[K, T]) Count() int64 { return s.n }

// Promotions reports lifetime promotion events.
func (s *Snapshot[K, T]) Promotions() int64 { return s.promotions }

// Keys reports the number of distinct keys tracked across both tiers.
func (s *Snapshot[K, T]) Keys() int { return len(s.frugal) + len(s.promo) }

// FrugalKeys reports the frugal-tier key count.
func (s *Snapshot[K, T]) FrugalKeys() int { return len(s.frugal) }

// PromotedKeys reports the promoted-tier key count.
func (s *Snapshot[K, T]) PromotedKeys() int { return len(s.promo) }

// AppendKeys appends the keys the snapshot holds to dst: the frugal tier's,
// then the promoted tier's, each ascending.
func (s *Snapshot[K, T]) AppendKeys(dst []K) []K {
	for _, f := range s.frugal {
		dst = append(dst, f.Key)
	}
	for _, p := range s.promo {
		dst = append(dst, p.Key)
	}
	return dst
}

// searchFrugal returns the index of k in the frugal tier, or -1.
func (s *Snapshot[K, T]) searchFrugal(k K) int {
	kk := sorter.OrderedKey(k)
	i := sort.Search(len(s.frugal), func(i int) bool {
		return sorter.OrderedKey(s.frugal[i].Key) >= kk
	})
	if i < len(s.frugal) && s.frugal[i].Key == k {
		return i
	}
	return -1
}

// searchPromoted returns the index of k in the promoted tier, or -1.
func (s *Snapshot[K, T]) searchPromoted(k K) int {
	kk := sorter.OrderedKey(k)
	i := sort.Search(len(s.promo), func(i int) bool {
		return sorter.OrderedKey(s.promo[i].Key) >= kk
	})
	if i < len(s.promo) && s.promo[i].Key == k {
		return i
	}
	return -1
}

// Quantile answers a per-key quantile query with the same tier semantics as
// the live estimator. ok is false for keys the snapshot does not track.
func (s *Snapshot[K, T]) Quantile(k K, phi float64) (T, bool) {
	if i := s.searchPromoted(k); i >= 0 {
		return s.promo[i].Sum.Query(phi), true
	}
	if i := s.searchFrugal(k); i >= 0 {
		return s.frugal[i].Est, true
	}
	var z T
	return z, false
}

// Promoted reports whether k holds a dedicated summary in the snapshot.
func (s *Snapshot[K, T]) Promoted(k K) bool { return s.searchPromoted(k) >= 0 }

// HeavyKeys answers the oracle's epsilon-approximate frequency query over
// the key stream at support sp.
func (s *Snapshot[K, T]) HeavyKeys(sp float64) []pipeline.Item[K] { return s.oracle.Query(sp) }

// KeyCount returns the oracle's estimated observation count for k; ok is
// false for keys the oracle no longer tracks.
func (s *Snapshot[K, T]) KeyCount(k K) (int64, bool) {
	cnt := s.oracle.Estimate(k)
	return cnt, cnt > 0
}
