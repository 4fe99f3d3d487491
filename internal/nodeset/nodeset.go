// Package nodeset provides a compact bitset of compute-node IDs.
//
// Node sets are the allocation currency of the cluster: every allocation,
// reservation, and loan is an explicit set of node IDs rather than a bare
// count. Carrying identity is what lets the mechanisms implement the paper's
// "return leased nodes to the lender" semantics exactly — an on-demand job
// returns the very nodes it borrowed from each preempted or shrunk job.
//
// A set is sized to its members, not to the machine: it stores the 64-bit
// words from its lowest to its highest member behind a base word offset, so
// a 128-node allocation on a 131,072-node system holds a few words, not
// 2,048. Binary operations walk only the words where the two spans overlap,
// and Pick resumes past a hint of known-empty low words, so a scheduling
// step costs what the job touches rather than what the machine holds.
package nodeset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bitset over non-negative node IDs. The zero value is an empty set.
// Sets are mutable; use Clone before sharing.
type Set struct {
	// off is the word index of words[0]: the set stores node IDs in
	// [off*64, (off+len(words))*64) and holds no member outside that span.
	off   int
	words []uint64
	//schedlint:snapfield popcount cache; recomputed from words at decode
	count int
	//schedlint:snapfield derived cache (words[:skip] are zero); decode starts the span at the first member instead
	skip int
}

// New returns an empty set with nodes [0, n) preallocated, for a set that
// will range over the whole machine, such as a cluster's free pool. A set
// that holds one job's nodes should start as the zero value, which grows to
// fit its members.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Range returns the set {lo, lo+1, ..., hi-1}.
func Range(lo, hi int) *Set {
	s := &Set{}
	s.AddRange(lo, hi)
	return s
}

// AddRange inserts every id in [lo, hi), filling whole words at a time so
// building a 100k-node universe costs ~hi/64 word writes, not hi bit inserts.
// It panics on a negative lo.
func (s *Set) AddRange(lo, hi int) {
	if hi <= lo {
		return
	}
	if lo < 0 {
		panic("nodeset: negative node id")
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	s.cover(first, last+1)
	for w := first; w <= last; w++ {
		mask := ^uint64(0)
		if base := w * wordBits; base < lo {
			mask &= ^uint64(0) << uint(lo-base)
		}
		if end := (w + 1) * wordBits; end > hi {
			mask &= ^uint64(0) >> uint(end-hi)
		}
		i := w - s.off
		added := mask &^ s.words[i]
		s.words[i] |= mask
		s.count += bits.OnesCount64(added)
	}
	s.skip = min(s.skip, first-s.off)
}

// FromIDs returns a set containing exactly ids.
func FromIDs(ids ...int) *Set {
	s := &Set{}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// cover grows the stored span to include words [lo, hi), allocating only
// the words it adds. An empty set re-anchors at lo instead, reusing its
// buffer. A span growing downward at least doubles, so a run of ever-lower
// inserts costs amortized O(1) per word.
func (s *Set) cover(lo, hi int) {
	if lo >= s.off && hi <= s.off+len(s.words) {
		return
	}
	if s.count == 0 {
		s.off, s.skip = lo, 0
		if cap(s.words) < hi-lo {
			s.words = make([]uint64, hi-lo)
			return
		}
		s.words = s.words[:hi-lo]
		clear(s.words)
		return
	}
	if lo < s.off {
		lo = max(0, min(lo, s.off-len(s.words)))
		grown := make([]uint64, s.off-lo+len(s.words))
		copy(grown[s.off-lo:], s.words)
		s.skip += s.off - lo
		s.off, s.words = lo, grown
	}
	if n := hi - s.off; n > len(s.words) {
		s.words = append(s.words, make([]uint64, n-len(s.words))...)
	}
}

// span returns the bounds [lo, hi), relative to words, of s's nonzero
// words; lo == hi when s is empty.
func (s *Set) span() (lo, hi int) {
	if s.count == 0 {
		return 0, 0
	}
	lo, hi = s.skip, len(s.words)
	for s.words[lo] == 0 {
		lo++
	}
	for s.words[hi-1] == 0 {
		hi--
	}
	return lo, hi
}

// overlap returns the absolute word range [lo, hi) that s and o both store
// past their zero prefixes; lo >= hi when there is none. Outside it, at
// least one of the two sets is empty.
func overlap(s, o *Set) (lo, hi int) {
	return max(s.off+s.skip, o.off+o.skip), min(s.off+len(s.words), o.off+len(o.words))
}

// Add inserts id. Adding an existing member is a no-op. It panics on a
// negative id.
func (s *Set) Add(id int) {
	if id < 0 {
		panic("nodeset: negative node id")
	}
	w := id / wordBits
	s.cover(w, w+1)
	i, bit := w-s.off, uint64(1)<<uint(id%wordBits)
	if s.words[i]&bit == 0 {
		s.words[i] |= bit
		s.count++
		s.skip = min(s.skip, i)
	}
}

// Remove deletes id. Removing a non-member is a no-op.
func (s *Set) Remove(id int) {
	if id < 0 {
		return
	}
	i, bit := id/wordBits-s.off, uint64(1)<<uint(id%wordBits)
	if i < 0 || i >= len(s.words) {
		return
	}
	if s.words[i]&bit != 0 {
		s.words[i] &^= bit
		s.count--
	}
}

// Contains reports whether id is a member.
func (s *Set) Contains(id int) bool {
	if id < 0 {
		return false
	}
	i := id/wordBits - s.off
	return i >= 0 && i < len(s.words) && s.words[i]&(1<<uint(id%wordBits)) != 0
}

// Len returns the cardinality in O(1).
func (s *Set) Len() int { return s.count }

// Empty reports whether the set has no members.
func (s *Set) Empty() bool { return s.count == 0 }

// Clone returns a deep copy that stores only the words from the lowest to
// the highest member.
func (s *Set) Clone() *Set {
	lo, hi := s.span()
	c := &Set{off: s.off + lo, words: make([]uint64, hi-lo), count: s.count}
	copy(c.words, s.words[lo:hi])
	return c
}

// UnionWith adds all members of o to s, growing s only as far as o's
// members reach.
func (s *Set) UnionWith(o *Set) {
	lo, hi := o.span()
	if lo == hi {
		return
	}
	s.cover(o.off+lo, o.off+hi)
	d := o.off - s.off
	for i, w := range o.words[lo:hi] {
		j := d + lo + i
		added := w &^ s.words[j]
		s.words[j] |= w
		s.count += bits.OnesCount64(added)
	}
	s.skip = min(s.skip, d+lo)
}

// SubtractWith removes all members of o from s.
func (s *Set) SubtractWith(o *Set) {
	lo, hi := overlap(s, o)
	for w := lo; w < hi; w++ {
		i := w - s.off
		removed := s.words[i] & o.words[w-o.off]
		s.words[i] &^= removed
		s.count -= bits.OnesCount64(removed)
	}
}

// IntersectWith keeps only members present in both sets. s shrinks to the
// overlap of the two spans, so the cost is that overlap, not s's width.
func (s *Set) IntersectWith(o *Set) {
	lo, hi := overlap(s, o)
	if lo >= hi {
		s.off, s.words, s.count, s.skip = 0, s.words[:0], 0, 0
		return
	}
	ow := o.words[lo-o.off : hi-o.off]
	s.words = s.words[lo-s.off : hi-s.off]
	s.off, s.count, s.skip = lo, 0, 0
	for i := range s.words {
		s.words[i] &= ow[i]
		s.count += bits.OnesCount64(s.words[i])
	}
}

// Union returns a new set s ∪ o.
func Union(s, o *Set) *Set {
	c := s.Clone()
	c.UnionWith(o)
	return c
}

// Difference returns a new set s \ o.
func Difference(s, o *Set) *Set {
	c := s.Clone()
	c.SubtractWith(o)
	return c
}

// Intersection returns a new set s ∩ o.
func Intersection(s, o *Set) *Set {
	c := s.Clone()
	c.IntersectWith(o)
	return c
}

// Intersects reports whether s and o share any member, without allocating.
func (s *Set) Intersects(o *Set) bool {
	lo, hi := overlap(s, o)
	for w := lo; w < hi; w++ {
		if s.words[w-s.off]&o.words[w-o.off] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every member of s is a member of o, without
// allocating.
func (s *Set) SubsetOf(o *Set) bool {
	if s.count > o.count {
		return false
	}
	lo, hi := overlap(s, o)
	n := 0
	for w := lo; w < hi; w++ {
		sw := s.words[w-s.off]
		if sw&^o.words[w-o.off] != 0 {
			return false
		}
		n += bits.OnesCount64(sw)
	}
	// Members of s outside the overlap cannot be in o.
	return n == s.count
}

// Equal reports whether s and o contain the same members.
func (s *Set) Equal(o *Set) bool {
	if s.count != o.count {
		return false
	}
	lo, hi := overlap(s, o)
	n := 0
	for w := lo; w < hi; w++ {
		sw := s.words[w-s.off]
		if sw != o.words[w-o.off] {
			return false
		}
		n += bits.OnesCount64(sw)
	}
	// Equal counts and equal overlap words leave no room for a member
	// outside the overlap on either side.
	return n == s.count
}

// Pick removes up to k members (the lowest-numbered ones, for determinism)
// and returns them as a new set. If the set has fewer than k members, all of
// them are taken. Whole words move in one copy — allocating thousands of
// nodes from a 100k-bit free pool costs a few word transfers, not one bit
// insert per node — and the result stores only the words from its first to
// its last member. The scan starts past the source's known-empty low words
// and leaves that hint past the words it empties, so a pool handing out its
// lowest nodes never rescans them.
func (s *Set) Pick(k int) *Set {
	taken := &Set{}
	if k <= 0 || s.count == 0 {
		return taken
	}
	k = min(k, s.count)
	first := s.skip
	for s.words[first] == 0 {
		first++
	}
	// Whole words up to the boundary word move verbatim; the boundary word
	// gives its lowest `need` set bits.
	last, need := first, k
	for c := bits.OnesCount64(s.words[last]); c < need; c = bits.OnesCount64(s.words[last]) {
		need -= c
		last++
	}
	taken.off = s.off + first
	taken.words = make([]uint64, last-first+1)
	copy(taken.words, s.words[first:last])
	clear(s.words[first:last])
	// Clearing the lowest set bit need times leaves the high remainder; the
	// difference is exactly the need bits to take.
	w, rest := s.words[last], s.words[last]
	for range need {
		rest &= rest - 1
	}
	taken.words[last-first] = w &^ rest
	s.words[last] = rest
	taken.count = k
	s.count -= k
	s.skip = last
	if rest == 0 {
		s.skip++
	}
	return taken
}

// NextSet returns the smallest member >= from, scanning a word at a time
// (the NextFree-style iteration of classic bitset allocators). ok is false
// when no such member exists. A negative from is treated as zero.
func (s *Set) NextSet(from int) (id int, ok bool) {
	from = max(from, 0)
	i := from/wordBits - s.off
	if i < s.skip {
		i, from = s.skip, (s.off+s.skip)*wordBits
	}
	if i >= len(s.words) {
		return 0, false
	}
	if w := s.words[i] >> uint(from%wordBits); w != 0 {
		return from + bits.TrailingZeros64(w), true
	}
	for i++; i < len(s.words); i++ {
		if w := s.words[i]; w != 0 {
			return (s.off+i)*wordBits + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// IDs returns the members in ascending order.
func (s *Set) IDs() []int {
	out := make([]int, 0, s.count)
	for i := s.skip; i < len(s.words); i++ {
		base := (s.off + i) * wordBits
		for w := s.words[i]; w != 0; w &= w - 1 {
			out = append(out, base+bits.TrailingZeros64(w))
		}
	}
	return out
}

// ForEach calls fn for every member in ascending order. Iteration stops if
// fn returns false.
func (s *Set) ForEach(fn func(id int) bool) {
	for i := s.skip; i < len(s.words); i++ {
		base := (s.off + i) * wordBits
		for w := s.words[i]; w != 0; w &= w - 1 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
		}
	}
}

// String renders the set as compact ranges, e.g. "{0-3,7,9-10}".
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	ids := s.IDs()
	for i := 0; i < len(ids); {
		j := i
		for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
			j++
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		if j > i {
			fmt.Fprintf(&sb, "%d-%d", ids[i], ids[j])
		} else {
			fmt.Fprintf(&sb, "%d", ids[i])
		}
		i = j + 1
	}
	sb.WriteByte('}')
	return sb.String()
}
