// Package cluster implements the node-granular resource manager of the
// simulated HPC system.
//
// Every node is in exactly one of four places at any instant:
//
//   - the FREE pool,
//   - a RESERVATION held by a claimant (an on-demand job collecting nodes
//     ahead of its arrival, or a preempted lender waiting to reclaim returned
//     nodes),
//   - an ALLOCATION held by a running job, or
//   - the DOWN pool: nodes out of service because they failed and are under
//     repair, or because a maintenance drain took them. Down nodes are
//     invisible to every scheduling decision — they are neither free nor
//     reservable until Restore moves them back.
//
// All state changes are explicit moves between these places, so the
// partition invariant can be checked exactly (CheckInvariant), which the
// integration and property tests do after every event. Misuse — double
// allocation, releasing nodes a job does not hold — panics, because it is a
// scheduler bug rather than a runtime condition.
package cluster

import (
	"fmt"
	"sort"

	"hybridsched/internal/nodeset"
)

// Cluster is the node pool. Create one with New.
type Cluster struct {
	n        int
	free     *nodeset.Set
	down     *nodeset.Set
	alloc    map[int]*nodeset.Set // job ID -> held nodes
	reserved map[int]*nodeset.Set // claim ID -> reserved nodes
	//schedlint:snapfield cache of the reserved sets' total size; recomputed while decoding them
	totalRes int
}

// New returns a cluster of n identical nodes, all free.
func New(n int) *Cluster {
	if n < 1 {
		panic("cluster: need at least one node")
	}
	return &Cluster{
		n:        n,
		free:     nodeset.Range(0, n),
		down:     nodeset.New(n),
		alloc:    make(map[int]*nodeset.Set),
		reserved: make(map[int]*nodeset.Set),
	}
}

// N returns the total number of nodes.
func (c *Cluster) N() int { return c.n }

// FreeCount returns the number of unallocated, unreserved nodes.
func (c *Cluster) FreeCount() int { return c.free.Len() }

// FreeSet returns a copy of the free pool's node set.
func (c *Cluster) FreeSet() *nodeset.Set { return c.free.Clone() }

// KeepFree removes from s every node that is not in the free pool, reading
// the pool in place rather than through a FreeSet copy.
func (c *Cluster) KeepFree(s *nodeset.Set) { s.IntersectWith(c.free) }

// DownCount returns the number of out-of-service nodes.
func (c *Cluster) DownCount() int { return c.down.Len() }

// DownSet returns a copy of the out-of-service node set.
func (c *Cluster) DownSet() *nodeset.Set { return c.down.Clone() }

// AvailableCount returns the number of in-service nodes (total minus down),
// regardless of whether they are free, reserved, or allocated.
func (c *Cluster) AvailableCount() int { return c.n - c.down.Len() }

// IsDown reports whether node id is out of service.
func (c *Cluster) IsDown(id int) bool { return c.down.Contains(id) }

// IsFree reports whether node id is in the free pool.
func (c *Cluster) IsFree(id int) bool { return c.free.Contains(id) }

// AllocHolder returns the job whose allocation contains node id, if any. A
// node lives in exactly one pool, so the answer is unique and independent of
// map iteration order.
func (c *Cluster) AllocHolder(id int) (jobID int, ok bool) {
	for j, s := range c.alloc {
		if s.Contains(id) {
			return j, true
		}
	}
	return 0, false
}

// ReservationHolder returns the claim whose reservation contains node id, if
// any.
func (c *Cluster) ReservationHolder(id int) (claim int, ok bool) {
	for cl, s := range c.reserved {
		if s.Contains(id) {
			return cl, true
		}
	}
	return 0, false
}

// TakeDownFree moves up to k free nodes out of service and returns the set
// actually moved (smaller than k when the free pool is short).
func (c *Cluster) TakeDownFree(k int) *nodeset.Set {
	taken := c.free.Pick(k)
	c.down.UnionWith(taken)
	return taken
}

// TakeDownExact moves the specific free nodes in set out of service. It
// panics if any node is not free.
func (c *Cluster) TakeDownExact(set *nodeset.Set) {
	if set.Empty() {
		return
	}
	if !set.SubsetOf(c.free) {
		panic("cluster: TakeDownExact on non-free nodes")
	}
	c.free.SubtractWith(set)
	c.down.UnionWith(set)
}

// TakeDownReserved moves one node out of claim's reservation into the down
// pool (a failure striking a reserved node). It panics if the claim does not
// hold the node.
func (c *Cluster) TakeDownReserved(claim, id int) {
	s, ok := c.reserved[claim]
	if !ok || !s.Contains(id) {
		panic(fmt.Sprintf("cluster: TakeDownReserved(%d, %d): claim does not hold the node", claim, id))
	}
	s.Remove(id)
	c.totalRes--
	if s.Empty() {
		delete(c.reserved, claim)
	}
	c.down.Add(id)
}

// Restore moves the out-of-service nodes in set back into the free pool (a
// repair completing, or a maintenance window ending). It panics if any node
// is not down — restoring an in-service node is an availability-bookkeeping
// bug.
func (c *Cluster) Restore(set *nodeset.Set) {
	if set.Empty() {
		return
	}
	if !set.SubsetOf(c.down) {
		panic("cluster: Restore on nodes that are not down")
	}
	c.down.SubtractWith(set)
	c.free.UnionWith(set)
}

// TotalReserved returns the number of nodes held across all reservations.
func (c *Cluster) TotalReserved() int { return c.totalRes }

// ReservedCount returns the size of claim's reservation (0 if none).
func (c *Cluster) ReservedCount(claim int) int {
	if s, ok := c.reserved[claim]; ok {
		return s.Len()
	}
	return 0
}

// ReservedSet returns a copy of claim's reservation (empty set if none).
func (c *Cluster) ReservedSet(claim int) *nodeset.Set {
	if s, ok := c.reserved[claim]; ok {
		return s.Clone()
	}
	return &nodeset.Set{}
}

// Allocated returns a copy of the node set held by job (empty set if none).
func (c *Cluster) Allocated(job int) *nodeset.Set {
	if s, ok := c.alloc[job]; ok {
		return s.Clone()
	}
	return &nodeset.Set{}
}

// AllocatedCount returns the number of nodes job holds.
func (c *Cluster) AllocatedCount(job int) int {
	if s, ok := c.alloc[job]; ok {
		return s.Len()
	}
	return 0
}

// Reserve moves up to k free nodes into claim's reservation and returns the
// set actually moved (may be smaller than k when the free pool is short).
func (c *Cluster) Reserve(claim, k int) *nodeset.Set {
	taken := c.free.Pick(k)
	if !taken.Empty() {
		c.reservation(claim).UnionWith(taken)
		c.totalRes += taken.Len()
	}
	return taken
}

// ReserveExact moves the specific free nodes in set into claim's reservation.
// It panics if any node is not free.
func (c *Cluster) ReserveExact(claim int, set *nodeset.Set) {
	if set.Empty() {
		return
	}
	if !set.SubsetOf(c.free) {
		panic(fmt.Sprintf("cluster: ReserveExact(%d) on non-free nodes", claim))
	}
	c.free.SubtractWith(set)
	c.reservation(claim).UnionWith(set)
	c.totalRes += set.Len()
}

// UnreserveAll dissolves claim's reservation back into the free pool and
// returns the released set. Unknown claims release nothing.
func (c *Cluster) UnreserveAll(claim int) *nodeset.Set {
	s, ok := c.reserved[claim]
	if !ok {
		return &nodeset.Set{}
	}
	delete(c.reserved, claim)
	c.totalRes -= s.Len()
	c.free.UnionWith(s)
	return s
}

// AllocFree moves exactly k free nodes to job's allocation (read it back
// with Allocated). It panics if fewer than k nodes are free — callers must
// check first.
func (c *Cluster) AllocFree(job, k int) {
	if k <= 0 {
		return
	}
	if c.free.Len() < k {
		panic(fmt.Sprintf("cluster: AllocFree(job %d, %d) with only %d free", job, k, c.free.Len()))
	}
	taken := c.free.Pick(k)
	if s, ok := c.alloc[job]; ok {
		s.UnionWith(taken)
	} else {
		c.alloc[job] = taken // nothing else holds the picked set
	}
}

// AllocExact moves the specific free nodes in set to job's allocation.
// It panics if any node is not free.
func (c *Cluster) AllocExact(job int, set *nodeset.Set) {
	if set.Empty() {
		return
	}
	if !set.SubsetOf(c.free) {
		panic(fmt.Sprintf("cluster: AllocExact(job %d) on non-free nodes", job))
	}
	c.free.SubtractWith(set)
	c.allocation(job).UnionWith(set)
}

// AllocReserved moves up to k nodes from claim's reservation to job's
// allocation and returns the set moved. An empty or missing reservation
// yields an empty set.
func (c *Cluster) AllocReserved(job, claim, k int) *nodeset.Set {
	s, ok := c.reserved[claim]
	if !ok || k <= 0 {
		return &nodeset.Set{}
	}
	taken := s.Pick(k)
	c.totalRes -= taken.Len()
	if s.Empty() {
		delete(c.reserved, claim)
	}
	c.allocation(job).UnionWith(taken)
	return taken
}

// Release returns all of job's nodes to the free pool and returns the
// released set. It panics if job holds nothing — releasing twice is a bug.
func (c *Cluster) Release(job int) *nodeset.Set {
	s, ok := c.alloc[job]
	if !ok {
		panic(fmt.Sprintf("cluster: Release(job %d) holds nothing", job))
	}
	delete(c.alloc, job)
	c.free.UnionWith(s)
	return s
}

// ReleasePartial moves k of job's nodes back to the free pool (a malleable
// shrink) and returns the released set. It panics if job holds fewer than k.
func (c *Cluster) ReleasePartial(job, k int) *nodeset.Set {
	s, ok := c.alloc[job]
	if !ok || s.Len() < k {
		panic(fmt.Sprintf("cluster: ReleasePartial(job %d, %d) holds %d", job, k, c.AllocatedCount(job)))
	}
	taken := s.Pick(k)
	if s.Empty() {
		delete(c.alloc, job)
	}
	c.free.UnionWith(taken)
	return taken
}

// Grow moves up to k free nodes into an existing allocation (a malleable
// expansion) and returns the set moved.
func (c *Cluster) Grow(job, k int) *nodeset.Set {
	if k <= 0 {
		return &nodeset.Set{}
	}
	taken := c.free.Pick(k)
	if !taken.Empty() {
		c.allocation(job).UnionWith(taken)
	}
	return taken
}

// Claims returns the IDs of all current reservation holders, in ascending
// order so callers see the same sequence on every run.
func (c *Cluster) Claims() []int {
	out := make([]int, 0, len(c.reserved))
	for id := range c.reserved {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// CheckInvariant verifies that free, down, reservations, and allocations
// partition the node universe exactly. It returns a descriptive error on
// violation.
func (c *Cluster) CheckInvariant() error {
	all := nodeset.New(c.n)
	all.UnionWith(c.free)
	total := c.free.Len()
	if all.Intersects(c.down) {
		return fmt.Errorf("cluster: down pool overlaps the free pool")
	}
	all.UnionWith(c.down)
	total += c.down.Len()
	resTotal := 0
	for claim, s := range c.reserved {
		if s.Empty() {
			return fmt.Errorf("cluster: empty reservation kept for claim %d", claim)
		}
		if all.Intersects(s) {
			return fmt.Errorf("cluster: reservation %d overlaps other pools", claim)
		}
		all.UnionWith(s)
		total += s.Len()
		resTotal += s.Len()
	}
	if resTotal != c.totalRes {
		return fmt.Errorf("cluster: totalRes %d != actual %d", c.totalRes, resTotal)
	}
	for job, s := range c.alloc {
		if s.Empty() {
			return fmt.Errorf("cluster: empty allocation kept for job %d", job)
		}
		if all.Intersects(s) {
			return fmt.Errorf("cluster: allocation of job %d overlaps other pools", job)
		}
		all.UnionWith(s)
		total += s.Len()
	}
	if total != c.n || !all.Equal(nodeset.Range(0, c.n)) {
		return fmt.Errorf("cluster: pools cover %d of %d nodes", total, c.n)
	}
	return nil
}

func (c *Cluster) reservation(claim int) *nodeset.Set {
	s, ok := c.reserved[claim]
	if !ok {
		s = &nodeset.Set{}
		c.reserved[claim] = s
	}
	return s
}

func (c *Cluster) allocation(job int) *nodeset.Set {
	s, ok := c.alloc[job]
	if !ok {
		s = &nodeset.Set{}
		c.alloc[job] = s
	}
	return s
}
