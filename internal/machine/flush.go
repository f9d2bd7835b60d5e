package machine

import (
	"persistbarriers/internal/cache"
	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/sim"
)

// flushDriver adapts one core's epoch flushes onto the machine's banked
// handshake protocol.
type flushDriver struct {
	m *Machine
	c *coreCtx
}

// FlushEpoch implements epoch.FlushDriver.
func (d *flushDriver) FlushEpoch(rec *epoch.Record, done func()) {
	m := d.m
	op := m.newFlushOp()
	op.c, op.rec, op.done = d.c, rec, done
	if m.cfg.GlobalArbiter {
		// Ablation: a single machine-wide arbiter serializes all epoch
		// flushes; cores queue for the flush token.
		if m.globalFlushBusy {
			m.globalFlushWaiters = append(m.globalFlushWaiters, op)
			return
		}
		m.globalFlushBusy = true
	}
	m.flushEpoch(op)
}

// flushOp is one epoch's §4.1 handshake in flight. Records are pooled per
// Machine and their continuations bound once at creation, so a flush
// schedules its per-bank and per-line events without allocating. A nested
// flush (demanded from inside flushEpoch) takes its own record.
type flushOp struct {
	m    *Machine
	c    *coreCtx
	rec  *epoch.Record
	done func()
	// acks counts the BankAcks still to arrive at the arbiter.
	acks int
	// l1Lines is the scratch snapshot of the epoch's L1-resident lines.
	l1Lines []mem.Line
	banks   []bankFlush // indexed by bank id
	// persistCMP is the PersistCMP broadcast landing at the arbiter: the
	// record's terminal continuation.
	persistCMP func()
}

// bankFlush is one LLC bank's part of a flushOp.
type bankFlush struct {
	op *flushOp
	b  *bankCtx
	// ready is the earliest cycle the bank may start: the arrival of the
	// epoch's last L1 writeback to it (the EpochCMP precondition).
	ready sim.Cycle
	// lines snapshots the bank's lines of the epoch at FlushEpoch
	// arrival; next indexes the line the next drain event writes.
	lines []mem.Line
	next  int
	// remaining counts lines whose PersistAck has not yet returned.
	remaining int

	// begin, drainNext, lineDurable and arrive, bound once.
	start, drain, lineDone, bankAck func()
}

// newFlushOp takes a handshake record from the pool, or builds one.
func (m *Machine) newFlushOp() *flushOp {
	if n := len(m.flushOps); n > 0 {
		op := m.flushOps[n-1]
		m.flushOps = m.flushOps[:n-1]
		return op
	}
	op := &flushOp{m: m, banks: make([]bankFlush, len(m.banks))}
	op.persistCMP = op.complete
	for i := range op.banks {
		bf := &op.banks[i]
		bf.op, bf.b = op, m.banks[i]
		bf.start = bf.begin
		bf.drain = bf.drainNext
		bf.lineDone = bf.lineDurable
		bf.bankAck = bf.arrive
	}
	return op
}

// flushEpoch runs the Section 4.1 multi-banked flush handshake:
//
//  1. the arbiter (at the L1) writes the epoch's L1-resident lines back to
//     their LLC banks and broadcasts FlushEpoch to every bank;
//  2. each bank drains its lines of the epoch to the memory controllers
//     and collects PersistAcks;
//  3. each bank sends a BankAck to the arbiter;
//  4. the arbiter broadcasts PersistCMP; done fires when it lands.
//
// Cache state moves at flush start (the simulator's state/timing split);
// latency is charged through the per-bank start times and per-line issue
// intervals.
func (m *Machine) flushEpoch(op *flushOp) {
	c, rec := op.c, op.rec
	id := rec.ID
	now := m.eng.Now()
	for i := range op.banks {
		op.banks[i].ready = 0
	}

	// Step 1a: L1 writebacks of the epoch's lines, pipelined one line per
	// FlushIssue interval; each bank may not start before its last line
	// arrives (the EpochCMP precondition of §4.1).
	op.l1Lines = c.l1.AppendLinesOf(op.l1Lines[:0], id)
	for i, line := range op.l1Lines {
		b := m.bank(line)
		ent, _ := c.l1.Peek(line)
		arrive := now + sim.Cycle(i)*m.cfg.FlushIssue + m.mesh.Latency(c.tile, b.tile, 64)
		if bf := &op.banks[b.id]; arrive > bf.ready {
			bf.ready = arrive
		}
		if m.cfg.DebugLine != 0 {
			m.dbg(line, "flushEpoch l1-writeback epoch=%v ver=%d", id, ent.Version)
		}
		if llcEnt, ok := b.arr.Peek(line); !ok {
			// The LLC no longer holds the line (evicted or clflushed):
			// flush it straight from the L1 to NVRAM instead of forcing
			// a re-insert that could displace another epoch's line.
			c.l1.CleanLine(line)
			m.nvramWriteFrom(c.tile, rec, line, ent.Version, nil)
			continue
		} else if llcEnt.Version < ent.Version {
			if llcEnt.Dirty && llcEnt.Tag.Valid() && llcEnt.Tag != id {
				if fr := m.lookupRec(llcEnt.Tag); fr != nil {
					// A foreign epoch's unpersisted version sits below
					// ours (its writeback landed after our conflict
					// check, outside the line's transaction window). It
					// must reach NVRAM first: defer this line — it stays
					// dirty in the L1 and pending, and the arbiter
					// re-flushes the epoch once the foreign epoch
					// persists (we demand it here).
					m.demandFlush(m.cores[llcEnt.Tag.Core], fr, epoch.CauseEviction, c.kick)
					continue
				}
			}
			b.arr.Write(line, id, ent.Version)
		}
		c.l1.CleanLine(line)
	}

	// Steps 1b-3 per bank; step 4 happens when every bank has acked.
	op.acks = len(op.banks)
	for i := range op.banks {
		bf := &op.banks[i]
		start := now + m.mesh.Latency(c.tile, bf.b.tile, 0) // FlushEpoch message
		if bf.ready > start {
			start = bf.ready
		}
		m.eng.At(start, bf.start)
	}
}

// begin is the FlushEpoch message's arrival at the bank: it snapshots the
// bank's lines of the epoch and schedules one drain per FlushIssue
// interval, or acks at once when the bank holds none.
func (bf *bankFlush) begin() {
	op := bf.op
	m, rec := op.m, op.rec
	bf.lines = bf.b.arr.AppendLinesOf(bf.lines[:0], rec.ID)
	if m.cfg.Probe.Active() {
		m.cfg.Probe.BankFlushStart(m.eng.Now(), bf.b.id, rec.ID.Core, rec.ID.Num, len(bf.lines))
	}
	if len(bf.lines) == 0 {
		bf.sendAck()
		return
	}
	bf.next = 0
	bf.remaining = len(bf.lines)
	for i := range bf.lines {
		m.eng.After(sim.Cycle(i)*m.cfg.FlushIssue, bf.drain)
	}
}

// drainNext writes the bank's next snapshotted line to NVRAM. The drain
// events fire in the order begin scheduled them, so each takes the next
// line of the snapshot.
func (bf *bankFlush) drainNext() {
	op := bf.op
	m, rec, b := op.m, op.rec, bf.b
	line := bf.lines[bf.next]
	bf.next++
	ent, ok := b.arr.Peek(line)
	if !ok || ent.Tag != rec.ID {
		if m.cfg.DebugLine != 0 {
			m.dbg(line, "bankFlush skip epoch=%v ok=%v tag=%v", rec.ID, ok, ent.Tag)
		}
		bf.lineDurable() // drained or evicted concurrently
		return
	}
	if m.cfg.DebugLine != 0 {
		m.dbg(line, "bankFlush drain epoch=%v ver=%d", rec.ID, ent.Version)
	}
	if m.cfg.FlushMode == cache.Invalidating {
		// clflush semantics: the flush evicts the line from the whole
		// hierarchy, destroying locality (§7 discussion). Only clean
		// private copies may be dropped — a dirty L1 copy holds a newer
		// version from a later epoch and remains tracked by its owner.
		b.arr.Invalidate(line)
		d := m.dirEntryFor(line)
		for _, o := range m.cores {
			if pe, ok := o.l1.Peek(line); ok && !pe.Dirty {
				o.l1.Invalidate(line)
				d.sharers &^= 1 << uint(o.id)
				if d.owner == o.id {
					d.owner = -1
				}
			}
		}
	} else {
		b.arr.CleanLine(line)
	}
	m.nvramWriteFrom(b.tile, rec, line, ent.Version, bf.lineDone)
}

// lineDurable counts one of the bank's lines done (its PersistAck
// returned, or it needed no write); the last one sends the BankAck.
func (bf *bankFlush) lineDurable() {
	bf.remaining--
	if bf.remaining == 0 {
		bf.sendAck()
	}
}

// sendAck sends the bank's BankAck to the arbiter.
func (bf *bankFlush) sendAck() {
	op := bf.op
	m := op.m
	if m.cfg.Probe.Active() {
		m.cfg.Probe.BankAck(m.eng.Now(), bf.b.id, op.rec.ID.Core, op.rec.ID.Num)
	}
	m.eng.After(m.mesh.Latency(bf.b.tile, op.c.tile, 0), bf.bankAck)
}

// arrive is a BankAck landing at the arbiter; the last one broadcasts
// PersistCMP, charged at the farthest bank's latency.
func (bf *bankFlush) arrive() {
	op := bf.op
	op.acks--
	if op.acks > 0 {
		return
	}
	m := op.m
	var worst sim.Cycle
	for _, b := range m.banks {
		if l := m.mesh.Latency(op.c.tile, b.tile, 0); l > worst {
			worst = l
		}
	}
	m.eng.After(worst, op.persistCMP)
}

// complete is PersistCMP landing: the record returns to the pool, the
// global-arbiter ablation hands its token to the next queued flush, and
// the arbiter's done runs.
func (op *flushOp) complete() {
	m, done := op.m, op.done
	op.c, op.rec, op.done = nil, nil, nil
	m.flushOps = append(m.flushOps, op)
	if m.cfg.GlobalArbiter {
		m.globalFlushBusy = false
		if len(m.globalFlushWaiters) > 0 {
			next := m.globalFlushWaiters[0]
			m.globalFlushWaiters = m.globalFlushWaiters[1:]
			m.globalFlushBusy = true
			m.flushEpoch(next)
		}
	}
	done()
}
