package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"persistbarriers/internal/machine"
	"persistbarriers/internal/recovery"
	"persistbarriers/internal/trace"
	"persistbarriers/internal/workload"
)

// sim-bep shape: the Table 2 micro-benchmarks at the paper's 32 threads,
// under LB and LB++, at a per-thread op count that keeps one round (ten
// simulations) near two seconds on a 2-CPU host.
const (
	simThreads   = 32
	simOps       = 60
	simRoundSecs = 2.0
	// goldenSeed is the seed whose simulated statistics golden.json pins.
	goldenSeed = 1
)

var simBarriers = []struct {
	name    string
	idt, pf bool
}{{"LB", false, false}, {"LB++", true, true}}

// simStat is the simulated outcome of one (bench, barrier) run. Every
// field is simulated, so a given seed must reproduce it exactly.
type simStat struct {
	Bench           string `json:"bench"`
	Barrier         string `json:"barrier"`
	Transactions    uint64 `json:"transactions"`
	ExecCycles      uint64 `json:"exec_cycles"`
	EpochsPersisted uint64 `json:"epochs_persisted"`
	Conflicting     uint64 `json:"epochs_conflicting"`
}

func (s simStat) conflictingPct() float64 {
	if s.EpochsPersisted == 0 {
		return 0
	}
	return 100 * float64(s.Conflicting) / float64(s.EpochsPersisted)
}

//go:embed golden.json
var goldenJSON []byte

// simRound is one pass over every (bench, barrier) pair.
type simRound struct {
	stats   []simStat
	setupS  float64   // generation + machine.New + Load
	runS    []float64 // host seconds of each Run
	verifyS float64   // recovery checks over every run's persist history
	txns    uint64
	// Layer counters for the traced run.
	genS, newS float64
	events     uint64
	cycles     uint64
	runMallocs uint64
	failed     int
	why        []string
}

// runSimRound generates the suite from seed and simulates it. sb, when
// non-nil, records a span around every layer call; counting allocations
// stops the world twice per run, so it is done only then too.
func runSimRound(seed uint64, sb *spanBuf) (*simRound, error) {
	r := &simRound{}
	gens := workload.Microbenchmarks()
	round := sb.begin("sim.round", -1, -1)
	defer sb.end(round)
	for _, bench := range workload.MicrobenchmarkNames() {
		t := time.Now()
		sp := sb.begin("workload.gen:"+bench, round, -1)
		prog, err := gens[bench](workload.Spec{Threads: simThreads, OpsPerThread: simOps, Seed: seed})
		sb.end(sp)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", bench, err)
		}
		g := time.Since(t).Seconds()
		r.genS += g
		r.setupS += g
		for _, b := range simBarriers {
			if err := r.simulate(bench, b.name, b.idt, b.pf, prog, round, sb); err != nil {
				return nil, err
			}
		}
	}
	// Fig. 11's shape: LB++ must out-throughput LB on every bench.
	for i := 0; i+1 < len(r.stats); i += len(simBarriers) {
		lb, lbpp := r.stats[i], r.stats[i+len(simBarriers)-1]
		if throughput(lbpp) <= throughput(lb) {
			r.fail("%s: LB++ throughput %.3f not above LB %.3f", lb.Bench, throughput(lbpp), throughput(lb))
		}
	}
	return r, nil
}

func throughput(s simStat) float64 { return float64(s.Transactions) / float64(s.ExecCycles) * 1000 }

func (r *simRound) fail(format string, args ...any) {
	r.failed++
	if len(r.why) < 5 {
		r.why = append(r.why, fmt.Sprintf(format, args...))
	}
}

func (r *simRound) simulate(bench, barrier string, idt, pf bool, prog *trace.Program, parent int32, sb *spanBuf) error {
	cfg := machine.DefaultConfig()
	cfg.Cores = simThreads
	cfg.Model = machine.LB
	cfg.IDT, cfg.PF = idt, pf
	cfg.RecordHistory = true
	label := bench + "/" + barrier

	t := time.Now()
	sp := sb.begin("machine.New:"+label, parent, -1)
	m, err := machine.New(cfg)
	sb.end(sp)
	if err != nil {
		return fmt.Errorf("machine.New %s: %w", label, err)
	}
	r.newS += time.Since(t).Seconds()
	sp = sb.begin("machine.Load:"+label, parent, -1)
	err = m.Load(prog)
	sb.end(sp)
	if err != nil {
		return fmt.Errorf("load %s: %w", label, err)
	}
	r.setupS += time.Since(t).Seconds()

	var ms0 runtime.MemStats
	if sb != nil {
		runtime.ReadMemStats(&ms0)
	}
	t = time.Now()
	sp = sb.begin("machine.Run:"+label, parent, -1)
	res, err := m.Run()
	sb.end(sp)
	r.runS = append(r.runS, time.Since(t).Seconds())
	if sb != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.runMallocs += ms1.Mallocs - ms0.Mallocs
	}
	if err != nil {
		return fmt.Errorf("run %s: %w", label, err)
	}
	r.events += m.Engine().Fired()
	r.cycles += uint64(m.Engine().Now())

	t = time.Now()
	sp = sb.begin("recovery.CheckAll:"+label, parent, -1)
	verr := recovery.CheckAll(res.Histories, res.Image, nil, false)
	sb.end(sp)
	r.verifyS += time.Since(t).Seconds()

	st := simStat{
		Bench: bench, Barrier: barrier,
		Transactions:    res.Transactions,
		ExecCycles:      uint64(res.ExecCycles),
		EpochsPersisted: res.Epochs.Persisted,
		Conflicting:     res.Epochs.Conflicting,
	}
	r.stats = append(r.stats, st)
	r.txns += res.Transactions
	switch {
	case !res.Finished || res.Deadlocked:
		r.fail("%s did not finish (deadlocked=%v)", label, res.Deadlocked)
	case res.Transactions != simThreads*simOps:
		r.fail("%s: %d transactions, want %d", label, res.Transactions, simThreads*simOps)
	case verr != nil:
		r.fail("%s: recovery invariants: %v", label, verr)
	}
	return nil
}

// checkGolden compares a round's simulated statistics with the pinned
// ones, returning one failure per differing run.
func checkGolden(got []simStat, golden []byte) (failed int, why []string) {
	var want []simStat
	if err := json.Unmarshal(golden, &want); err != nil {
		return len(got), []string{"golden.json: " + err.Error()}
	}
	byKey := map[string]simStat{}
	for _, w := range want {
		byKey[w.Bench+"/"+w.Barrier] = w
	}
	for _, g := range got {
		w, ok := byKey[g.Bench+"/"+g.Barrier]
		if !ok || w != g {
			failed++
			if len(why) < 5 {
				why = append(why, fmt.Sprintf("golden mismatch %s/%s: got %+v (conflicting %.2f%%), want %+v", g.Bench, g.Barrier, g, g.conflictingPct(), w))
			}
		}
	}
	if len(got) != len(want) {
		failed++
		why = append(why, fmt.Sprintf("golden has %d runs, round has %d", len(want), len(got)))
	}
	return failed, why
}
