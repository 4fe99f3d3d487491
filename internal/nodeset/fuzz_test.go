package nodeset

import (
	"bytes"
	"math/bits"
	"sort"
	"testing"

	"hybridsched/internal/snapshot"
)

// fuzzBases anchor the three fuzzed sets at different word offsets: one
// preallocated from word 0, one a few words up, and one far enough away that
// its span starts out disjoint from the other two.
var fuzzBases = [3]int{0, 700, 6000}

// fuzzSets builds the three starting sets and their models.
func fuzzSets() ([3]*Set, [3]map[int]bool) {
	sets := [3]*Set{New(4096), Range(1000, 1300), FromIDs(6000, 6100, 6200)}
	sets[0].Add(3)
	sets[0].Add(200)
	var models [3]map[int]bool
	for i, s := range sets {
		models[i] = map[int]bool{}
		for _, id := range s.IDs() {
			models[i][id] = true
		}
	}
	return sets, models
}

// checkSet fails the test unless s holds exactly model's members and its
// representation is consistent: a non-negative offset, a zero-prefix hint
// inside the words and covering only zero words, and a count equal to the
// popcount of the words.
func checkSet(t *testing.T, step int, name string, s *Set, model map[int]bool) {
	t.Helper()
	if s.off < 0 || s.skip < 0 || s.skip > len(s.words) {
		t.Fatalf("step %d: %s: off %d, skip %d, %d words", step, name, s.off, s.skip, len(s.words))
	}
	for i := 0; i < s.skip; i++ {
		if s.words[i] != 0 {
			t.Fatalf("step %d: %s: word %d below the hint %d is not zero", step, name, i, s.skip)
		}
	}
	pop := 0
	for _, w := range s.words {
		pop += bits.OnesCount64(w)
	}
	if pop != s.count {
		t.Fatalf("step %d: %s: count %d, popcount %d", step, name, s.count, pop)
	}
	if !agrees(s, model) {
		t.Fatalf("step %d: %s = %s, want %v", step, name, s, sortedIDs(model))
	}
}

func sortedIDs(model map[int]bool) []int {
	ids := make([]int, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func encoded(s *Set) []byte {
	var e snapshot.Enc
	s.EncodeSnapshot(&e)
	return e.Bytes()
}

// FuzzSetOps decodes its input into a program of operations on three sets
// built at different offsets and checks every set against a map model after
// each step. Each step reads four bytes: the operation, the target set, the
// operand set, and an argument. Programs stop after 128 steps, so a long
// input cannot stall the fuzzer on model checks.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 4, 0, 1, 0, 3, 1, 0, 40, 6, 2, 0, 0, 11, 1, 0, 0})
	f.Add([]byte{2, 2, 0, 200, 3, 0, 2, 90, 5, 1, 2, 0, 8, 2, 1, 0, 9, 0, 1, 0, 10, 1, 0, 77})
	f.Add([]byte{3, 1, 0, 255, 3, 1, 0, 255, 7, 2, 1, 0, 4, 0, 2, 0, 12, 0, 2, 0, 11, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sets, models := fuzzSets()
		data = data[:min(len(data), 512)]
		for step := 0; step+3 < len(data); step += 4 {
			op := data[step] % 13
			a, b := int(data[step+1]%3), int(data[step+2]%3)
			arg := int(data[step+3])
			// IDs land within ±512 of the target's base, so sets grow both
			// below and above their spans and now and then reach another's.
			id := max(0, fuzzBases[a]+(arg*int(data[step+2])+arg)%1024-512)
			sa, ma := sets[a], models[a]
			switch op {
			case 0:
				sa.Add(id)
				ma[id] = true
			case 1:
				sa.Remove(id)
				delete(ma, id)
			case 2:
				hi := id + int(data[step+2])%200
				sa.AddRange(id, hi)
				for x := id; x < hi; x++ {
					ma[x] = true
				}
			case 3:
				// The lowest arg members move to set b.
				want := sortedIDs(ma)[:min(arg, len(ma))]
				got := sa.Pick(arg)
				for _, x := range want {
					delete(ma, x)
				}
				checkSet(t, step, "Pick source", sa, ma)
				mp := map[int]bool{}
				for _, x := range want {
					mp[x] = true
				}
				checkSet(t, step, "Pick result", got, mp)
				sets[b], models[b] = got, mp
			case 4:
				sa.UnionWith(sets[b])
				for x := range models[b] {
					ma[x] = true
				}
			case 5:
				sa.SubtractWith(sets[b])
				for x := range models[b] {
					delete(ma, x)
				}
			case 6:
				sa.IntersectWith(sets[b])
				for x := range ma {
					if !models[b][x] {
						delete(ma, x)
					}
				}
			case 7:
				if a != b {
					sets[b], models[b] = sa.Clone(), map[int]bool{}
					for x := range ma {
						models[b][x] = true
					}
				}
			case 8:
				want := true
				for x := range ma {
					want = want && models[b][x]
				}
				if sa.SubsetOf(sets[b]) != want {
					t.Fatalf("step %d: %s.SubsetOf(%s) != %v", step, sa, sets[b], want)
				}
			case 9:
				want := len(ma) == len(models[b])
				for x := range ma {
					want = want && models[b][x]
				}
				if sa.Equal(sets[b]) != want {
					t.Fatalf("step %d: %s.Equal(%s) != %v", step, sa, sets[b], want)
				}
			case 10:
				wantID, wantOK := 0, false
				for _, x := range sortedIDs(ma) {
					if x >= id {
						wantID, wantOK = x, true
						break
					}
				}
				if got, ok := sa.NextSet(id); got != wantID || ok != wantOK {
					t.Fatalf("step %d: %s.NextSet(%d) = %d,%v, want %d,%v", step, sa, id, got, ok, wantID, wantOK)
				}
			case 11:
				// The bytes are those of the same members built from word 0,
				// and decoding gives the set back.
				raw := encoded(sa)
				flat := New(fuzzBases[2] + 2048)
				for x := range ma {
					flat.Add(x)
				}
				if !bytes.Equal(raw, encoded(flat)) {
					t.Fatalf("step %d: encoding of %s (off %d) differs from the same set built from word 0", step, sa, sa.off)
				}
				d := snapshot.NewDec(raw)
				sets[a] = DecodeSnapshotSet(d)
				if err := d.Done(); err != nil {
					t.Fatalf("step %d: decode: %v", step, err)
				}
			case 12:
				want := false
				for x := range ma {
					want = want || models[b][x]
				}
				if sa.Intersects(sets[b]) != want {
					t.Fatalf("step %d: %s.Intersects(%s) != %v", step, sa, sets[b], want)
				}
			}
			for i := range sets {
				checkSet(t, step, "set", sets[i], models[i])
			}
		}
	})
}
