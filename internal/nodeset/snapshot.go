package nodeset

import (
	"math/bits"

	"hybridsched/internal/snapshot"
)

// EncodeSnapshot serializes the set as its raw bit words counted from node 0.
// The encoding is canonical: trailing zero words are trimmed so that equal
// sets always produce equal bytes regardless of capacity history or base
// offset. The words below the offset are written as zeros directly, without
// building a padded copy.
func (s *Set) EncodeSnapshot(e *snapshot.Enc) {
	_, hi := s.span()
	if hi == 0 {
		e.U32(0)
		return
	}
	e.U32(uint32(s.off + hi))
	for range s.off {
		e.U64(0)
	}
	for _, w := range s.words[:hi] {
		e.U64(w)
	}
}

// DecodeSnapshotSet reads a set written by EncodeSnapshot. The span starts
// at the first nonzero word, so a decoded set is as narrow as a built one.
// The cardinality is recomputed from the words, so a corrupt count can never
// disagree with the members. On malformed input the decoder's error is set
// and an empty set is returned.
func DecodeSnapshotSet(d *snapshot.Dec) *Set {
	words := d.U64s()
	if d.Err() != nil {
		return &Set{}
	}
	s := &Set{}
	for len(words) > 0 && words[0] == 0 {
		words = words[1:]
		s.off++
	}
	s.words = words
	for _, w := range words {
		s.count += bits.OnesCount64(w)
	}
	return s
}
