package summary

import (
	"math"

	"gpustream/internal/sorter"
)

// Delta is one entry of a Packed: the value, its RMin less the RMin of the
// entry before it (0 before the first), and its RMax less its RMin. It
// takes 12 bytes for 4-byte values and 16 for 8-byte ones, where an Entry
// takes 24 for either.
type Delta[T sorter.Value] struct {
	V    T
	D, G uint32
}

// at is the entry d stands for when the entry before it has RMin pred.
func (d Delta[T]) at(pred int64) Entry[T] {
	rmin := pred + int64(d.D)
	return Entry[T]{V: d.V, RMin: rmin, RMax: rmin + int64(d.G)}
}

// Packed is a summary whose rank bounds are stored as 32-bit gaps
// (Delta): what a merge that pruned, or that read a pruned input, leaves.
// A merge reads it in place: each side of a merge stage already keeps the
// RMin of the entry it took last, which is all a Delta needs to give its
// entry back (DESIGN.md §11).
type Packed[T sorter.Value] struct {
	Entries []Delta[T]
	N       int64
	Eps     float64
}

// Size reports the number of entries.
func (p *Packed[T]) Size() int { return len(p.Entries) }

// Summary returns the entries the packed summary stands for as a Summary
// of their own.
func (p *Packed[T]) Summary() *Summary[T] {
	s := &Summary[T]{N: p.N, Eps: p.Eps}
	if len(p.Entries) > 0 {
		s.Entries = make([]Entry[T], len(p.Entries))
		pred := int64(0)
		for i, d := range p.Entries {
			s.Entries[i] = d.at(pred)
			pred = s.Entries[i].RMin
		}
	}
	return s
}

// Certificate is Summary.Certificate over the entries the packed summary
// stands for: an entry's RMax less the RMin before it is D + G.
func (p *Packed[T]) Certificate() float64 {
	pk := packer[T]{out: p.Entries}
	for _, d := range p.Entries {
		pk.worst = max(pk.worst, (int64(d.D)+int64(d.G))/2)
		pk.prev += int64(d.D)
	}
	return pk.certificate(p.N)
}

func (p *Packed[T]) header() (int64, float64) { return p.N, p.Eps }

func (p *Packed[T]) open([]Entry[T]) side[T] { return side[T]{ds: p.Entries} }

// packer writes entries to a Packed, folding Certificate's gap scan into
// the write: prev is the RMin of the entry written last, worst the largest
// floor((RMax - the RMin before it) / 2) so far, 0 before the first entry,
// and over is set once a gap does not fit in 32 bits.
type packer[T sorter.Value] struct {
	out         []Delta[T]
	prev, worst int64
	over        bool
}

// put appends e.
func (pk *packer[T]) put(e Entry[T]) {
	d, g := e.RMin-pk.prev, e.RMax-e.RMin
	pk.over = pk.over || uint64(d)|uint64(g) > math.MaxUint32
	pk.worst = max(pk.worst, (e.RMax-pk.prev)/2)
	pk.out = append(pk.out, Delta[T]{V: e.V, D: uint32(d), G: uint32(g)})
	pk.prev = e.RMin
}

// certificate is the certificate of the entries written, over n elements.
// Summary.Certificate's first term is RMax[0] - 1, where worst took
// floor(RMax[0] / 2), which is no more for a rank of at least 1.
func (pk *packer[T]) certificate(n int64) float64 {
	if n == 0 || len(pk.out) == 0 {
		return 0
	}
	first := int64(pk.out[0].D) + int64(pk.out[0].G) - 1
	return float64(max(pk.worst, first, n-pk.prev)) / float64(n)
}

// MergePacked is MergeInto of a and b when budget is 0, and
// MergePruneInto to budget otherwise, written as a Packed into storage
// that fits it exactly, with that Packed's Certificate, computed as it is
// written. It returns nil when a gap does not fit in 32 bits, which only
// a merge over 2^32 values or more can have; the caller then merges into
// a Summary.
func MergePacked[T sorter.Value](a, b Part[T], budget int) (*Packed[T], float64) {
	parts := [2]Part[T]{a, b}
	c := openChain(parts[:])
	pk := &packer[T]{}
	if budget == 0 || c.live == 0 || c.total-1 <= budget { // as in mergeChain
		pk.out = make([]Delta[T], 0, c.total)
		c.fin.block = make([]Entry[T], blockLen)
		for es := c.fin.next(); len(es) > 0; es = c.fin.next() {
			for _, e := range es {
				pk.put(e)
			}
		}
	} else {
		pk.out = make([]Delta[T], 0, budget+1)
		sw := newPruneSweep[T](nil, c.n, budget)
		sw.pk = pk
		c.fin.sweep(&sw)
		sw.flush()
		if len(pk.out) < cap(pk.out) {
			pk.out = append(make([]Delta[T], 0, len(pk.out)), pk.out...)
		}
	}
	if pk.over {
		return nil, 0
	}
	p := &Packed[T]{Entries: pk.out, N: c.n, Eps: c.eps}
	if budget > 0 {
		p.Eps += pruneEps(c.n, budget)
	}
	return p, pk.certificate(c.n)
}
