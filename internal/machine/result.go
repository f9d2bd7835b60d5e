package machine

import (
	"persistbarriers/internal/cache"
	"persistbarriers/internal/epoch"
	"persistbarriers/internal/mem"
	"persistbarriers/internal/noc"
	"persistbarriers/internal/nvram"
	"persistbarriers/internal/sim"
)

// CoreResult summarizes one core's run.
type CoreResult struct {
	Transactions uint64
	OpsRetired   int
	ExecDone     sim.Cycle
	Stalls       [numStallCauses]sim.Cycle
	OpTimes      []sim.Cycle
}

// ConflictCounts are conflict events observed on the access paths (as
// opposed to per-epoch flush causes, which live in EpochStats.ByCause).
type ConflictCounts struct {
	Intra        uint64
	Inter        uint64
	Eviction     uint64
	IDTFallbacks uint64
}

// Total sums all conflict events. IDTFallbacks is deliberately excluded:
// a fallback is a resolution path of an inter-thread conflict that was
// already counted in Inter (the dependence registers were full, so the
// request stalled online instead), not an additional conflict event.
func (c ConflictCounts) Total() uint64 { return c.Intra + c.Inter + c.Eviction }

// IDTResolved counts inter-thread conflicts that IDT resolved offline
// through a dependence register: every inter conflict under IDT either
// lands in a register or falls back online (IDTFallbacks), so the
// difference is the offline-resolved count. Only meaningful for IDT
// configurations — without IDT, IDTFallbacks is zero and the value
// degenerates to Inter (all of which resolved online).
func (c ConflictCounts) IDTResolved() uint64 {
	if c.IDTFallbacks >= c.Inter {
		return 0
	}
	return c.Inter - c.IDTFallbacks
}

// EpochAggregate sums per-core epoch statistics.
type EpochAggregate struct {
	Opened      uint64
	Persisted   uint64
	Conflicting uint64
	ByCause     [epoch.CauseNatural + 1]uint64
	ByAdvance   [epoch.DrainAdvance + 1]uint64
	Deps        uint64
	Splits      uint64
	Flushes     uint64
	Natural     uint64
}

// ConflictingFraction is Figure 12's metric: the share of persisted epochs
// that were the target of at least one conflict before persisting. IDT
// resolving a conflict offline still counts — the paper's LB+IDT bar stays
// at ~90% for exactly that reason (§7.1).
func (e EpochAggregate) ConflictingFraction() float64 {
	if e.Persisted == 0 {
		return 0
	}
	return float64(e.Conflicting) / float64(e.Persisted)
}

// Result is the complete outcome of one simulation run.
type Result struct {
	Barrier     string
	Model       Model
	ExecCycles  sim.Cycle
	DrainCycles sim.Cycle
	Finished    bool
	Deadlocked  bool

	Transactions uint64
	Cores        []CoreResult
	Conflicts    ConflictCounts
	Epochs       EpochAggregate

	PersistedLines uint64
	LogWrites      uint64

	MC  nvram.Stats
	NoC noc.Stats
	L1  cache.Stats
	LLC cache.Stats

	// Recovery material (populated per the Record* config flags).
	Histories  [][]epoch.Summary
	Image      map[mem.Line]mem.Version
	UndoLog    []nvram.LogEntry
	Latest     map[mem.Line]mem.Version
	PersistLog []PersistEvent

	// TokenVersions maps each retired tagged store (trace.Op.Token) to
	// the version it committed; tokens whose store had not retired by the
	// crash instant are absent.
	TokenVersions map[uint64]mem.Version
}

// Throughput is transactions per kilocycle — Figure 11's metric (before
// normalization to LB).
func (r *Result) Throughput() float64 {
	if r.ExecCycles == 0 {
		return 0
	}
	return float64(r.Transactions) / float64(r.ExecCycles) * 1000
}

// StallTotal sums a stall cause over all cores.
func (r *Result) StallTotal(cause StallCause) sim.Cycle {
	var t sim.Cycle
	for i := range r.Cores {
		t += r.Cores[i].Stalls[cause]
	}
	return t
}

// result snapshots the machine state into a Result.
func (m *Machine) result() *Result {
	r := &Result{
		Barrier:        m.cfg.BarrierName(),
		Model:          m.cfg.Model,
		ExecCycles:     m.execCycles,
		DrainCycles:    m.drainCycles,
		Finished:       m.finished,
		Deadlocked:     m.deadlocked,
		PersistedLines: m.persistedLines,
		LogWrites:      m.logWrites,
		MC:             m.mcs.Stats(),
		NoC:            m.mesh.Stats(),
		Conflicts: ConflictCounts{
			Intra:        m.intraConflicts,
			Inter:        m.interConflicts,
			Eviction:     m.evictionConflicts,
			IDTFallbacks: m.idtFallbacks,
		},
		PersistLog: m.persistLog,
	}
	if !m.finished {
		// Crashed or deadlocked mid-run: report progress so far.
		r.ExecCycles = m.eng.Now()
	}
	for _, c := range m.cores {
		cr := CoreResult{
			Transactions: c.txs,
			OpsRetired:   c.retired + c.pc,
			ExecDone:     c.execDone,
			Stalls:       c.stalls,
			OpTimes:      c.opTimes,
		}
		r.Transactions += c.txs
		r.Cores = append(r.Cores, cr)
		l1s := c.l1.Stats()
		r.L1.Hits += l1s.Hits
		r.L1.Misses += l1s.Misses
		r.L1.Evictions += l1s.Evictions
		r.L1.DirtyEvicts += l1s.DirtyEvicts
		if c.table != nil {
			ts := c.table.Stats()
			r.Epochs.Opened += ts.EpochsOpened
			r.Epochs.Persisted += ts.EpochsPersisted
			r.Epochs.Conflicting += ts.ConflictingEpochs
			r.Epochs.Deps += ts.DepsRecorded
			r.Epochs.Splits += ts.Splits
			for i := range ts.ByCause {
				r.Epochs.ByCause[i] += ts.ByCause[i]
			}
			for i := range ts.ByAdvance {
				r.Epochs.ByAdvance[i] += ts.ByAdvance[i]
			}
			as := c.arb.Stats()
			r.Epochs.Flushes += as.FlushesDriven
			r.Epochs.Natural += as.NaturalPersists
			if m.cfg.RecordHistory {
				r.Histories = append(r.Histories, c.table.History())
			}
		}
	}
	for _, b := range m.banks {
		bs := b.arr.Stats()
		r.LLC.Hits += bs.Hits
		r.LLC.Misses += bs.Misses
		r.LLC.Evictions += bs.Evictions
		r.LLC.DirtyEvicts += bs.DirtyEvicts
	}
	if m.cfg.RecordHistory {
		r.Image = m.mcs.Image()
		r.UndoLog = m.mcs.Log()
		r.Latest = make(map[mem.Line]mem.Version)
		m.lines.forEach(func(ls *lineState) {
			if ls.latest != 0 {
				r.Latest[ls.line] = ls.latest
			}
		})
	}
	if len(m.tokenVersions) > 0 {
		r.TokenVersions = make(map[uint64]mem.Version, len(m.tokenVersions))
		for t, v := range m.tokenVersions {
			r.TokenVersions[t] = v
		}
	}
	return r
}
