package frequency

import (
	"fmt"
	"sort"

	"gpustream/internal/sorter"
)

// MisraGries is the deterministic k-counter frequent-items summary of Misra
// and Gries (re-discovered by Demaine et al. and Karp et al., as the paper's
// related work recounts). It undercounts true frequencies by at most N/(k+1)
// and therefore answers eps-approximate queries with k = ceil(1/eps) - 1.
type MisraGries[T sorter.Value] struct {
	k        int
	n        int64
	counters map[T]int64
}

// NewMisraGries returns a summary with k counters.
func NewMisraGries[T sorter.Value](k int) *MisraGries[T] {
	if k <= 0 {
		panic(fmt.Sprintf("frequency: MisraGries with k=%d", k))
	}
	return &MisraGries[T]{k: k, counters: make(map[T]int64, k+1)}
}

// Count reports the number of processed elements.
func (m *MisraGries[T]) Count() int64 { return m.n }

// Size reports the number of live counters.
func (m *MisraGries[T]) Size() int { return len(m.counters) }

// Process consumes one stream element.
func (m *MisraGries[T]) Process(v T) {
	m.n++
	if _, ok := m.counters[v]; ok {
		m.counters[v]++
		return
	}
	if len(m.counters) < m.k {
		m.counters[v] = 1
		return
	}
	// Decrement all; delete zeros. Amortized O(1) per element.
	for key, c := range m.counters {
		if c == 1 {
			delete(m.counters, key)
		} else {
			m.counters[key] = c - 1
		}
	}
}

// ProcessSlice consumes a batch of elements.
func (m *MisraGries[T]) ProcessSlice(data []T) {
	for _, v := range data {
		m.Process(v)
	}
}

// Estimate returns the (under)estimated frequency of v.
func (m *MisraGries[T]) Estimate(v T) int64 { return m.counters[v] }

// Query returns all elements whose estimated frequency is at least
// (s - 1/(k+1)) * N, ordered by decreasing frequency.
func (m *MisraGries[T]) Query(s float64) []Item[T] {
	eps := 1 / float64(m.k+1)
	thresh := (s - eps) * float64(m.n)
	var out []Item[T]
	for v, c := range m.counters {
		if float64(c) >= thresh {
			out = append(out, Item[T]{Value: v, Freq: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// SpaceSaving is the Metwally et al. k-counter summary: when full, the
// minimum counter is reassigned to the new element and incremented, which
// overcounts by at most N/k. Included as the modern counter-based
// comparison point.
type SpaceSaving[T sorter.Value] struct {
	k        int
	n        int64
	counters map[T]*ssCounter[T]
	heap     []*ssCounter[T] // min-heap on count
}

type ssCounter[T sorter.Value] struct {
	value T
	count int64
	err   int64
	pos   int
}

// NewSpaceSaving returns a summary with k counters.
func NewSpaceSaving[T sorter.Value](k int) *SpaceSaving[T] {
	if k <= 0 {
		panic(fmt.Sprintf("frequency: SpaceSaving with k=%d", k))
	}
	return &SpaceSaving[T]{k: k, counters: make(map[T]*ssCounter[T], k)}
}

// Count reports the number of processed elements.
func (s *SpaceSaving[T]) Count() int64 { return s.n }

// Size reports the number of live counters.
func (s *SpaceSaving[T]) Size() int { return len(s.counters) }

func (s *SpaceSaving[T]) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s.heap) && s.heap[l].count < s.heap[m].count {
			m = l
		}
		if r < len(s.heap) && s.heap[r].count < s.heap[m].count {
			m = r
		}
		if m == i {
			return
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		s.heap[i].pos, s.heap[m].pos = i, m
	}
}

func (s *SpaceSaving[T]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].count <= s.heap[i].count {
			return
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		s.heap[i].pos, s.heap[p].pos = i, p
		i = p
	}
}

// Process consumes one stream element.
func (s *SpaceSaving[T]) Process(v T) {
	s.n++
	if c, ok := s.counters[v]; ok {
		c.count++
		s.siftDown(c.pos)
		return
	}
	if len(s.counters) < s.k {
		c := &ssCounter[T]{value: v, count: 1, pos: len(s.heap)}
		s.counters[v] = c
		s.heap = append(s.heap, c)
		s.siftUp(c.pos)
		return
	}
	// Evict the minimum counter.
	min := s.heap[0]
	delete(s.counters, min.value)
	min.err = min.count
	min.count++
	min.value = v
	s.counters[v] = min
	s.siftDown(0)
}

// ProcessSlice consumes a batch of elements.
func (s *SpaceSaving[T]) ProcessSlice(data []T) {
	for _, v := range data {
		s.Process(v)
	}
}

// Estimate returns the (over)estimated frequency of v.
func (s *SpaceSaving[T]) Estimate(v T) int64 {
	if c, ok := s.counters[v]; ok {
		return c.count
	}
	return 0
}

// Query returns all elements whose estimated frequency is at least s*N,
// ordered by decreasing frequency. Space-Saving overestimates, so the
// threshold needs no eps slack to avoid false negatives.
func (s *SpaceSaving[T]) Query(sup float64) []Item[T] {
	thresh := sup * float64(s.n)
	var out []Item[T]
	for _, c := range s.heap {
		if float64(c.count) >= thresh {
			out = append(out, Item[T]{Value: c.value, Freq: c.count})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].Value < out[j].Value
	})
	return out
}
