package metrics

import (
	"hybridsched/internal/job"
	"hybridsched/internal/snapshot"
)

// EncodeSnapshot serializes every accumulator, including the wall-clock
// decision statistics: they are nondeterministic across runs but cheap to
// carry, and the canonical report comparison zeroes them anyway.
func (c *Collector) EncodeSnapshot(e *snapshot.Enc) {
	e.Int(c.nodes)
	e.Bool(c.haveWindow)
	e.I64(c.winStart)
	e.I64(c.winEnd)
	e.I64(c.usage.Useful)
	e.I64(c.usage.Setup)
	e.I64(c.usage.Ckpt)
	e.I64(c.usage.Lost)
	e.I64(c.reservedIdleNS)
	e.Int(c.lastReserved)
	e.I64(c.lastResTime)
	e.I64(c.downNS)
	e.I64(c.downNSAtEnd)
	e.Int(c.lastDown)
	e.I64(c.lastDownTime)
	e.Int(c.failures)
	e.Int(c.failMisses)
	e.Int(c.failsAtEnd)
	e.Int(c.missesAtEnd)
	e.U32(uint32(len(c.results)))
	for _, r := range c.results {
		e.Int(r.ID)
		e.U8(uint8(r.Class))
		e.Int(r.Size)
		e.I64(r.Submit)
		e.I64(r.Start)
		e.I64(r.End)
		e.I64(r.Turnaround)
		e.I64(r.StartDelay)
		e.Int(r.PreemptCount)
		e.Int(r.ShrinkCount)
	}
	n, mean, m2 := c.decision.State()
	e.Int(n)
	e.F64(mean)
	e.F64(m2)
	e.I64(c.maxDecNS)
}

// DecodeSnapshotCollector reads a collector written by EncodeSnapshot. On
// malformed input it sets the decoder's error and returns nil.
func DecodeSnapshotCollector(d *snapshot.Dec) *Collector {
	c := &Collector{}
	c.nodes = d.Int()
	c.haveWindow = d.Bool()
	c.winStart = d.I64()
	c.winEnd = d.I64()
	c.usage = job.Usage{Useful: d.I64(), Setup: d.I64(), Ckpt: d.I64(), Lost: d.I64()}
	c.reservedIdleNS = d.I64()
	c.lastReserved = d.Int()
	c.lastResTime = d.I64()
	c.downNS = d.I64()
	c.downNSAtEnd = d.I64()
	c.lastDown = d.Int()
	c.lastDownTime = d.I64()
	c.failures = d.Int()
	c.failMisses = d.Int()
	c.failsAtEnd = d.Int()
	c.missesAtEnd = d.Int()
	n := d.Count(73) // 9 × 8-byte fields + 1 class byte per JobResult
	if n > 0 {
		c.results = make([]JobResult, n)
		for i := range c.results {
			c.results[i] = JobResult{
				ID:           d.Int(),
				Class:        job.Class(d.U8()),
				Size:         d.Int(),
				Submit:       d.I64(),
				Start:        d.I64(),
				End:          d.I64(),
				Turnaround:   d.I64(),
				StartDelay:   d.I64(),
				PreemptCount: d.Int(),
				ShrinkCount:  d.Int(),
			}
			if r := c.results[i]; r.Class < job.Rigid || r.Class > job.Malleable {
				d.Failf("metrics: job %d: invalid class %d", r.ID, int(r.Class))
				return nil
			}
		}
	}
	c.decision.SetState(d.Int(), d.F64(), d.F64())
	c.maxDecNS = d.I64()
	if d.Err() != nil {
		return nil
	}
	if c.nodes < 1 {
		d.Failf("metrics: invalid node count %d", c.nodes)
		return nil
	}
	return c
}
