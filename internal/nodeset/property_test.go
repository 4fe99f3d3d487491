package nodeset

import (
	"bytes"
	"math/bits"
	"testing"
	"testing/quick"

	"hybridsched/internal/snapshot"
)

// Property-based tests: every algebraic law a Set must obey is checked
// against a map[int]bool model over randomized ID slices. IDs are drawn as
// uint16 so the bitsets stay a bounded few KiB while still spanning many
// words and forcing grow-on-Add paths.

// fromIDs16 builds a set and its model from a random ID slice (duplicates
// welcome — re-adding must be a no-op).
func fromIDs16(ids []uint16) (*Set, map[int]bool) {
	s := &Set{}
	model := make(map[int]bool, len(ids))
	for _, id := range ids {
		s.Add(int(id))
		model[int(id)] = true
	}
	return s, model
}

// agrees reports whether s contains exactly the model's members, with a
// consistent count.
func agrees(s *Set, model map[int]bool) bool {
	if s.Len() != len(model) {
		return false
	}
	for id := range model {
		if !s.Contains(id) {
			return false
		}
	}
	for _, id := range s.IDs() {
		if !model[id] {
			return false
		}
	}
	return true
}

func quickCheck(t *testing.T, name string, f any) {
	t.Helper()
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestQuickAddRemoveModel(t *testing.T) {
	quickCheck(t, "add/remove vs model", func(add, remove []uint16) bool {
		s, model := fromIDs16(add)
		for _, id := range remove {
			s.Remove(int(id))
			delete(model, int(id))
		}
		return agrees(s, model)
	})
}

func TestQuickUnionSemantics(t *testing.T) {
	quickCheck(t, "union", func(a, b []uint16) bool {
		sa, ma := fromIDs16(a)
		sb, mb := fromIDs16(b)
		u := Union(sa, sb)
		mu := make(map[int]bool, len(ma)+len(mb))
		for id := range ma {
			mu[id] = true
		}
		for id := range mb {
			mu[id] = true
		}
		// The operands must come through untouched (Union clones).
		return agrees(u, mu) && agrees(sa, ma) && agrees(sb, mb)
	})
}

func TestQuickIntersectSubtractSemantics(t *testing.T) {
	quickCheck(t, "intersect/subtract", func(a, b []uint16) bool {
		sa, ma := fromIDs16(a)
		sb, mb := fromIDs16(b)
		inter := Intersection(sa, sb)
		diff := Difference(sa, sb)
		mi := make(map[int]bool)
		md := make(map[int]bool)
		for id := range ma {
			if mb[id] {
				mi[id] = true
			} else {
				md[id] = true
			}
		}
		if !agrees(inter, mi) || !agrees(diff, md) {
			return false
		}
		// Partition law: (a ∩ b) ∪ (a \ b) == a, and the two parts are
		// disjoint.
		if inter.Intersects(diff) {
			return false
		}
		return Union(inter, diff).Equal(sa)
	})
}

func TestQuickSubtractUnionRoundTrip(t *testing.T) {
	quickCheck(t, "subtract/union round-trip", func(a, b []uint16) bool {
		sa, _ := fromIDs16(a)
		sb, _ := fromIDs16(b)
		// (a ∪ b) \ b == a \ b, and re-adding b restores a ∪ b.
		u := Union(sa, sb)
		stripped := Difference(u, sb)
		if !stripped.Equal(Difference(sa, sb)) {
			return false
		}
		stripped.UnionWith(sb)
		return stripped.Equal(u)
	})
}

func TestQuickCloneIsDeep(t *testing.T) {
	quickCheck(t, "clone deep-copies", func(a, mutate []uint16) bool {
		s, model := fromIDs16(a)
		c := s.Clone()
		if !c.Equal(s) {
			return false
		}
		// Mutating the original must not leak into the clone, and vice versa.
		for i, id := range mutate {
			if i%2 == 0 {
				s.Add(int(id))
			} else {
				s.Remove(int(id))
			}
		}
		return agrees(c, model)
	})
}

func TestQuickCountConsistency(t *testing.T) {
	quickCheck(t, "count consistency", func(a, b []uint16, k uint8) bool {
		s, _ := fromIDs16(a)
		o, _ := fromIDs16(b)
		s.UnionWith(o)
		s.SubtractWith(o)
		s.IntersectWith(s.Clone())
		snapshot := s.Clone()
		picked := s.Pick(int(k))
		// Len must equal both the popcount of the words and len(IDs()) after
		// any operation mix, and Pick must partition the set exactly.
		pop := 0
		for _, w := range s.words {
			pop += bits.OnesCount64(w)
		}
		if s.Len() != pop || s.Len() != len(s.IDs()) {
			return false
		}
		if picked.Len() != min(int(k), snapshot.Len()) {
			return false
		}
		if picked.Intersects(s) {
			return false
		}
		if !Union(picked, s).Equal(snapshot) {
			return false
		}
		if s.Empty() != (s.Len() == 0) {
			return false
		}
		return true
	})
}

func TestGrowOnAdd(t *testing.T) {
	cases := []struct {
		name string
		s    *Set
	}{
		{"zero value", &Set{}},
		{"New(0)", New(0)},
		{"New(4)", New(4)},
		{"Range(0,3)", Range(0, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.s.Len()
			tc.s.Add(1000) // far beyond any initial capacity
			if tc.s.off+len(tc.s.words) < 1000/wordBits+1 {
				t.Fatalf("words did not grow to cover node 1000: off %d, %d words", tc.s.off, len(tc.s.words))
			}
			if !tc.s.Contains(1000) || tc.s.Len() != before+1 {
				t.Fatalf("Add(1000) not reflected: len %d", tc.s.Len())
			}
			tc.s.Add(1000) // re-add: count must not move
			if tc.s.Len() != before+1 {
				t.Fatalf("duplicate Add changed count to %d", tc.s.Len())
			}
			tc.s.Remove(5000) // beyond capacity: no-op, no growth panic
			if tc.s.Len() != before+1 {
				t.Fatalf("out-of-range Remove changed count to %d", tc.s.Len())
			}
		})
	}
}

// Offset sets: the properties below build sets far from word 0, whose
// stored span starts at a base word offset, and check them against the same
// map model.

// farBase puts offset sets ~1M nodes up, far past any uint16 ID.
const farBase = 1 << 20

// fromIDsAt is fromIDs16 shifted up by base.
func fromIDsAt(base int, ids []uint16) (*Set, map[int]bool) {
	s := &Set{}
	model := make(map[int]bool, len(ids))
	for _, id := range ids {
		s.Add(base + int(id))
		model[base+int(id)] = true
	}
	return s, model
}

// tight reports whether s stores exactly the words from its lowest to its
// highest member.
func tight(s *Set) bool {
	if s.Empty() {
		return len(s.words) == 0
	}
	ids := s.IDs()
	lo, hi := ids[0], ids[len(ids)-1]
	return s.off == lo/wordBits && len(s.words) == hi/wordBits-lo/wordBits+1
}

func TestQuickFarSetsModel(t *testing.T) {
	quickCheck(t, "far add/remove/clone", func(add, remove []uint16) bool {
		s, model := fromIDsAt(farBase, add)
		for _, id := range remove {
			s.Remove(farBase + int(id))
			delete(model, farBase+int(id))
		}
		if !agrees(s, model) {
			return false
		}
		// A set that ever held a member stays far from word 0, and a clone
		// stores only its members' span.
		if len(add) > 0 && s.off < farBase/wordBits/2 {
			return false
		}
		c := s.Clone()
		return agrees(c, model) && tight(c) && c.Equal(s)
	})
}

func TestQuickDisjointSpans(t *testing.T) {
	quickCheck(t, "algebra across disjoint spans", func(a, b []uint16) bool {
		near, mn := fromIDs16(a)
		far, mf := fromIDsAt(farBase, b)
		mu := make(map[int]bool, len(mn)+len(mf))
		for id := range mn {
			mu[id] = true
		}
		for id := range mf {
			mu[id] = true
		}
		if near.Intersects(far) || far.Intersects(near) {
			return false
		}
		if !agrees(Union(near, far), mu) || !agrees(Union(far, near), mu) {
			return false
		}
		if !agrees(Difference(near, far), mn) || !agrees(Difference(far, near), mf) {
			return false
		}
		if !Intersection(near, far).Empty() || !Intersection(far, near).Empty() {
			return false
		}
		if near.SubsetOf(far) != near.Empty() || far.SubsetOf(near) != far.Empty() {
			return false
		}
		if !near.SubsetOf(Union(near, far)) || !far.SubsetOf(Union(near, far)) {
			return false
		}
		if near.Equal(far) != (near.Empty() && far.Empty()) {
			return false
		}
		// In-place operations leave the operands' models intact.
		far.SubtractWith(near)
		near.IntersectWith(far)
		return agrees(far, mf) && near.Empty()
	})
}

func TestQuickOverlappingOffsetSpans(t *testing.T) {
	quickCheck(t, "algebra across shifted spans", func(a, b []uint16, shift uint16) bool {
		// Two far sets whose spans overlap by a random amount.
		sa, ma := fromIDsAt(farBase, a)
		sb, mb := fromIDsAt(farBase+int(shift)%4096, b)
		mi, md, mu := map[int]bool{}, map[int]bool{}, map[int]bool{}
		subset := true
		for id := range ma {
			mu[id] = true
			if mb[id] {
				mi[id] = true
			} else {
				md[id] = true
				subset = false
			}
		}
		for id := range mb {
			mu[id] = true
		}
		return agrees(Union(sa, sb), mu) && agrees(Intersection(sa, sb), mi) &&
			agrees(Difference(sa, sb), md) && sa.SubsetOf(sb) == subset &&
			sa.Intersects(sb) == (len(mi) > 0) && sa.Equal(sb) == (subset && len(ma) == len(mb))
	})
}

func TestQuickPickPastEmptyLowWords(t *testing.T) {
	quickCheck(t, "pick after the low words empty", func(ids []uint16, first, k uint8) bool {
		s, model := fromIDsAt(farBase, ids)
		// Empty the low words twice over: a first Pick advances the hint,
		// and removing the next lowest members leaves zero words past it.
		s.Pick(int(first))
		for i := 0; i < int(first)/2 && !s.Empty(); i++ {
			id, _ := s.NextSet(0)
			s.Remove(id)
		}
		rest := make(map[int]bool, s.Len())
		for _, id := range s.IDs() {
			rest[id] = true
		}
		for id := range model {
			if !rest[id] {
				delete(model, id)
			}
		}
		want := naivePick(s.Clone(), int(k))
		got := s.Pick(int(k))
		for _, id := range got.IDs() {
			delete(model, id)
		}
		return got.Equal(want) && tight(got) && agrees(s, model) && !got.Intersects(s)
	})
}

func TestQuickEncodeMatchesWordZero(t *testing.T) {
	quickCheck(t, "offset encoding equals word-0 encoding", func(ids []uint16, base uint16, k uint8) bool {
		s, model := fromIDsAt(int(base)*wordBits/3, ids)
		picked := s.Clone().Pick(int(k))
		for _, set := range []*Set{s, s.Clone(), picked} {
			flat := New(int(base)*wordBits/3 + 1<<16)
			set.ForEach(func(id int) bool {
				flat.Add(id)
				return true
			})
			if flat.off != 0 || !bytes.Equal(encoded(set), encoded(flat)) {
				return false
			}
			d := snapshot.NewDec(encoded(set))
			back := DecodeSnapshotSet(d)
			if d.Done() != nil || !back.Equal(set) || !tight(back) {
				return false
			}
		}
		return agrees(s, model)
	})
}
