package machine

import (
	"fmt"

	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/trace"
)

// stepCore retires the next op of core c; completion of async ops
// re-enters it.
func (m *Machine) stepCore(c *coreCtx) {
	if c.pc >= len(c.ops) {
		if m.streaming && !m.feedClosed {
			// Streaming mode: park until Feed appends more ops (or
			// CloseFeed retires the core).
			c.waiting = true
			return
		}
		// Wait for the write buffer to drain before retiring the core.
		m.drainWriteBuffer(c, func() { m.coreFinished(c) })
		return
	}
	op := c.ops[c.pc]
	c.pc++
	after := c.after
	switch op.Kind {
	case trace.Compute:
		m.eng.After(op.Cycles, after)
	case trace.TxEnd:
		c.txs++
		if m.cfg.Probe.Active() {
			m.cfg.Probe.TxRetired(m.eng.Now(), c.id)
		}
		m.eng.After(0, after) // zero-time, but break recursion depth
	case trace.Barrier:
		m.barrier(c, after)
	case trace.Load:
		m.access(c, mem.Load, mem.LineOf(op.Addr), after)
	case trace.Store:
		if op.Token != 0 {
			line := mem.LineOf(op.Addr)
			if c.pendingTok == nil {
				c.pendingTok = make(map[mem.Line]uint64)
			}
			if prev, ok := c.pendingTok[line]; ok {
				// Silently overwriting would bind the new token to the
				// posted store's version and lose the old one, corrupting
				// Result.TokenVersions. Same-line tagged stores must be
				// separated by a barrier that drains the write buffer.
				panic(fmt.Sprintf(
					"machine: tagged store (token %d) to %v on core %d while token %d is still in flight to that line",
					op.Token, line, c.id, prev))
			}
			c.pendingTok[line] = op.Token
		}
		m.postStore(c, mem.LineOf(op.Addr))
	default:
		panic("machine: unknown op kind")
	}
}

// bindCore builds c's hoisted continuations: shared by every op the core
// executes, so none is allocated per op.
func (m *Machine) bindCore(c *coreCtx) {
	c.after = func() {
		if m.cfg.RecordOpTimes {
			c.opTimes = append(c.opTimes, m.eng.Now())
		}
		m.stepCore(c)
	}
	c.storeIssued = func() { m.afterStore(c, c.after) }
	c.storeDone = func() {
		c.wbOutstanding--
		if len(c.wbFull) > 0 {
			w := c.wbFull[0]
			c.wbFull = c.wbFull[1:]
			w()
		}
		if c.wbOutstanding == 0 && c.wbDrain != nil {
			d := c.wbDrain
			c.wbDrain = nil
			d()
		}
	}
}

// postStore issues a store through the write buffer (Table 1: 32 entries):
// the core moves on after the issue latency while the access completes in
// the background, stalling only when the buffer is full. Strict
// persistency bypasses the buffer — rule S2 forbids a store to issue
// before its predecessor persisted. Either way the core continues with
// its next op.
func (m *Machine) postStore(c *coreCtx, line mem.Line) {
	if m.cfg.Model == SP || m.cfg.WriteBuffer == 0 {
		m.countBulkStore(c)
		m.access(c, mem.Store, line, c.storeIssued)
		return
	}
	if c.wbOutstanding >= m.cfg.WriteBuffer {
		t0 := m.eng.Now()
		c.wbFull = append(c.wbFull, func() {
			c.stalls[StallWriteBuffer] += m.eng.Now() - t0
			m.postStore(c, line)
		})
		return
	}
	c.wbOutstanding++
	m.countBulkStore(c)
	m.access(c, mem.Store, line, c.storeDone)
	m.eng.After(m.cfg.L1Latency, c.storeIssued)
}

// countBulkStore tracks the hardware persistence engine's store quota.
func (m *Machine) countBulkStore(c *coreCtx) {
	if m.cfg.BulkEpochStores > 0 {
		c.storesSinceBarrier++
	}
}

// afterStore applies bulk-mode hardware barrier insertion at issue order.
func (m *Machine) afterStore(c *coreCtx, cont func()) {
	if m.cfg.BulkEpochStores > 0 && c.storesSinceBarrier >= m.cfg.BulkEpochStores {
		c.storesSinceBarrier = 0
		m.hardwareBarrier(c, cont)
		return
	}
	cont()
}

// drainWriteBuffer runs cont once every posted store has completed. Only
// one drain waiter can exist per core (the core is serial).
func (m *Machine) drainWriteBuffer(c *coreCtx, cont func()) {
	if c.wbOutstanding == 0 {
		cont()
		return
	}
	t0 := m.eng.Now()
	c.wbDrain = func() {
		c.stalls[StallWriteBuffer] += m.eng.Now() - t0
		cont()
	}
}

// barrier handles a programmer-inserted persist barrier per the model. A
// barrier first drains the write buffer: an epoch may only complete when
// all its stores have completed (§4.1's EpochCMP precondition).
func (m *Machine) barrier(c *coreCtx, cont func()) {
	switch m.cfg.Model {
	case NP, SP, WT:
		// NP ignores barriers; SP and WT already order every store.
		cont()
	case EP:
		m.drainWriteBuffer(c, func() { m.epBarrier(c, cont) })
	case LB:
		if m.cfg.BulkEpochStores > 0 {
			// Bulk mode: hardware places barriers; programmer barriers
			// in the trace are transparent.
			cont()
			return
		}
		m.drainWriteBuffer(c, func() { m.lbBarrier(c, epoch.BarrierAdvance, cont) })
	}
}

// epBarrier closes the epoch and stalls until it has persisted (rule E2).
func (m *Machine) epBarrier(c *coreCtx, cont func()) {
	tbl := c.table
	if !tbl.CanAdvance() {
		// Cannot happen under EP (previous epoch persisted before the
		// barrier returned), but guard for structural safety.
		oldest := tbl.Oldest()
		c.arb.DemandThrough(oldest.ID.Num, epoch.CausePressure)
		m.stallUntil(c, &oldest.Persisted, StallPressure, func() { m.epBarrier(c, cont) })
		return
	}
	closed := tbl.Current()
	tbl.Advance(m.eng.Now(), epoch.BarrierAdvance)
	c.arb.DemandThrough(closed.ID.Num, epoch.CauseEager)
	m.stallUntil(c, &closed.Persisted, StallBarrier, cont)
}

// lbBarrier closes the epoch without waiting (buffered epoch persistency),
// stalling only when the in-flight window is exhausted.
func (m *Machine) lbBarrier(c *coreCtx, why epoch.AdvanceReason, cont func()) {
	tbl := c.table
	if !tbl.CanAdvance() {
		oldest := tbl.Oldest()
		c.arb.DemandThrough(oldest.ID.Num, epoch.CausePressure)
		m.stallUntil(c, &oldest.Persisted, StallPressure, func() { m.lbBarrier(c, why, cont) })
		return
	}
	m.completeEpoch(c, why)
	cont()
}

// completeEpoch closes c's current epoch (barrier, hardware quota, split,
// or drain), applies PF, and kicks the arbiter. It returns the closed
// record. The caller must have ensured CanAdvance.
func (m *Machine) completeEpoch(c *coreCtx, why epoch.AdvanceReason) *epoch.Record {
	closed := c.table.Current()
	c.table.Advance(m.eng.Now(), why)
	if m.cfg.PF {
		c.arb.RequestProactive(closed.ID.Num)
	}
	c.arb.Kick()
	return closed
}

// hardwareBarrier is the bulk-mode BSP epoch boundary: drain the write
// buffer, persist the processor state (register checkpoint) into the
// closing epoch, then close it like an LB barrier.
func (m *Machine) hardwareBarrier(c *coreCtx, cont func()) {
	m.drainWriteBuffer(c, func() {
		m.writeCheckpoint(c, 0, func() {
			m.lbBarrier(c, epoch.HardwareAdvance, cont)
		})
	})
}

// writeCheckpoint stores the i-th..last register-state lines of the
// current epoch's rotating checkpoint slot.
func (m *Machine) writeCheckpoint(c *coreCtx, i int, cont func()) {
	if i >= m.cfg.CheckpointLines {
		cont()
		return
	}
	slot := c.table.Current().ID.Num % 8
	addr := c.ckptBase + mem.Addr(slot)*mem.Addr(m.cfg.CheckpointLines)*64 + mem.Addr(i)*64
	m.access(c, mem.Store, mem.LineOf(addr), func() {
		m.writeCheckpoint(c, i+1, cont)
	})
}
