package main

import (
	"fmt"
	"path/filepath"
)

// perLayer lists every metric the traced mode reports, with its unit.
// A layer a workload does not reach reports 0 there (sim-bep has no
// wire, store or server; the KV workloads run no Table 2 simulations).
var perLayer = []struct{ name, unit string }{
	{"proto.encode_ns", "ns"},
	{"proto.parse_ns", "ns"},
	{"store.get_fast_ns", "ns"},
	{"store.get_fallback_us", "us"},
	{"store.put_us_p50", "us"},
	{"store.put_us_p99", "us"},
	{"store.fast_hit_ratio", "ratio"},
	{"store.batch_mean", "count"},
	{"engine.submit_ns_per_op", "ns"},
	{"engine.pump_ns_per_op", "ns"},
	{"engine.allocs_per_op", "count"},
	{"engine.sim_cycles_per_op", "cycles"},
	{"recovery.close_s", "s"},
	{"recovery.records", "count"},
	{"recovery.us_per_record", "us"},
	{"machine.new_us", "us"},
	{"machine.ns_per_event", "ns"},
	{"machine.allocs_per_event", "count"},
	{"machine.events", "count"},
	{"machine.sim_cycles", "cycles"},
	{"workload.gen_ms", "ms"},
	{"server.cpu_us_per_op", "us"},
	{"server.fast_hit_ratio", "ratio"},
	{"server.batch_mean", "count"},
	{"client.cpu_us_per_op", "us"},
	{"client.late_p99_us", "us"},
	{"self.client_ms", "ms"},
	{"self.proto_ms", "ms"},
	{"self.store_ms", "ms"},
	{"self.engine_ms", "ms"},
	{"self.recovery_ms", "ms"},
	{"self.workload_ms", "ms"},
	{"self.machine_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

func zeroLayers(rep *report) {
	for _, m := range perLayer {
		rep.set(m.name, m.unit, 0)
	}
}

// Replay sizes of the traced mode: enough ops per stream for stable
// per-op figures, few enough that the span file stays tens of MB.
const (
	replayOpsPerConn = 10000
	engineReplayOps  = 8192
)

// setE2E fills the end-to-end metrics every workload reports.
func setE2E(rep *report, setup []float64, tput, p50, tail float64, drain, rss []float64) {
	rep.set("setup_s", "s", median(setup))
	rep.set("throughput_ops_s", "1/s", tput)
	rep.set("latency_p50_us", "us", p50)
	rep.set("latency_tail_us", "us", tail)
	rep.set("drain_s", "s", median(drain))
	rep.set("rss_mb", "MB", median(rss))
}

// latencies splits a round's events by kind. Closed-loop latency runs
// from submit to ack; open-loop latency runs from the due time.
func latencies(evs []event, lo, hi int, openLoop bool) (get, put, late lat) {
	for _, e := range evs[lo:hi] {
		if !e.done || e.bad {
			continue
		}
		from := e.submit
		if openLoop {
			from = e.due
		}
		switch e.kind {
		case opGet:
			get.add(e.ack - from)
		case opPut:
			put.add(e.ack - from)
		}
		if e.due > 0 {
			late.add(e.submit - e.due)
		}
	}
	return
}

// runKVWrite: closed loop, 2 binary connections, 25/70/5 get/put/del
// over 4096 uniform keys, a fixed op count per pmkvd lifetime.
func runKVWrite(o options, rep *report) error {
	keys := keyNames(kvKeys)
	streams := make([][]op, writeConns)
	vals := make([][][]byte, writeConns)
	for c := range streams {
		streams[c] = genStream(o.seed, c, writeSpec)
		vals[c] = putValues(streams[c], c)
	}
	n := rounds(o.seconds, writeRoundSecs, 3)
	if o.trace {
		n = 1
	}
	var setup, tput, drain, rss, putP50, putTail, putP99, getP99 []float64
	var late lat
	var last *kvRound
	for i := 0; i < n; i++ {
		r, err := writeRound(o.pmkvd, streams, vals, keys, o.trace)
		if err != nil {
			return err
		}
		rep.count(r.ops, r.failed, r.why)
		setup = append(setup, r.setupS)
		tput = append(tput, float64(r.ops)/r.loadS)
		drain = append(drain, r.drain.Seconds)
		rss = append(rss, r.drain.RSSMB)
		var get, put lat
		for _, h := range r.hist {
			g, p, l := latencies(h, 0, len(h), false)
			get.merge(&g)
			put.merge(&p)
			late.merge(&l)
		}
		ps, gs := put.summary(), get.summary()
		putP50, putTail = append(putP50, ps.P50), append(putTail, ps.Tail)
		putP99, getP99 = append(putP99, ps.P99), append(getP99, gs.P99)
		fmt.Printf("# round %d: %d ops in %.3fs (%.0f ops/s), setup %.3fs, drain %.3fs, rss %.1fMB, failed %d\n#   put %s | get %s\n",
			i, r.ops, r.loadS, float64(r.ops)/r.loadS, r.setupS, r.drain.Seconds, r.drain.RSSMB, r.failed, ps, gs)
		last = r
	}
	ls := late.summary()
	fmt.Printf("# slot-to-submit %s\n", ls)
	if !o.trace {
		setE2E(rep, setup, median(tput), median(putP50), median(putTail), drain, rss)
		rep.note("put_p50_us", "us", median(putP50))
		rep.note("put_p99_us", "us", median(putP99))
		rep.note("get_p99_us", "us", median(getP99))
		rep.note("server_rss_mb", "MB", median(rss))
		return nil
	}
	zeroLayers(rep)
	liveLayers(rep, last, ls)
	replay := make([][]op, len(streams))
	for c, s := range streams {
		replay[c] = s[:min(len(s), replayOpsPerConn)]
	}
	return tracedKV(o, rep, replay, nil, keys, writeWindow)
}

// liveLayers sets the layer metrics seen from outside the live server.
func liveLayers(rep *report, r *kvRound, late summary) {
	rep.set("server.cpu_us_per_op", "us", r.serverCPU*1e6/float64(r.ops))
	rep.set("server.fast_hit_ratio", "ratio", r.fastHit)
	rep.set("server.batch_mean", "count", r.batchMean)
	rep.set("client.cpu_us_per_op", "us", r.clientCPU*1e6/float64(r.ops))
	rep.set("client.late_p99_us", "us", late.P99)
}

// tracedKV replays the op streams in-process, untraced and then traced,
// and runs the single-goroutine engine replay.
func tracedKV(o options, rep *report, streams [][]op, preload []op, keys [][]byte, window int) error {
	plain, err := replayStore(streams, preload, keys, window, nil)
	if err != nil {
		return err
	}
	bufs := make([]*spanBuf, len(streams)+1)
	for i := range bufs {
		bufs[i] = &spanBuf{tid: i + 1}
	}
	traced, err := replayStore(streams, preload, keys, window, bufs[:len(streams)])
	if err != nil {
		return err
	}
	eng, err := replayEngine(streams, keys, engineReplayOps, bufs[len(streams)])
	if err != nil {
		return err
	}
	ops := 0
	for _, s := range streams {
		ops += len(s)
	}
	rep.count(2*ops, plain.failed+traced.failed, nil)
	if plain.failed+traced.failed > 0 {
		rep.why = append(rep.why, fmt.Sprintf("replay: %d ops failed", plain.failed+traced.failed))
	}
	rep.set("proto.encode_ns", "ns", plain.encode.mean())
	rep.set("proto.parse_ns", "ns", plain.parse.mean())
	rep.set("store.get_fast_ns", "ns", plain.getFast.mean())
	rep.set("store.get_fallback_us", "us", plain.getFall.mean()/1e3)
	ps := plain.put.summary()
	rep.set("store.put_us_p50", "us", ps.P50)
	rep.set("store.put_us_p99", "us", ps.P99)
	if plain.gets > 0 {
		rep.set("store.fast_hit_ratio", "ratio", float64(plain.fastGets)/float64(plain.gets))
	}
	rep.set("store.batch_mean", "count", plain.batchMean)
	rep.set("engine.submit_ns_per_op", "ns", eng.submitNS)
	rep.set("engine.pump_ns_per_op", "ns", eng.pumpNS)
	rep.set("engine.allocs_per_op", "count", eng.allocs)
	rep.set("engine.sim_cycles_per_op", "cycles", eng.cyclesPerOp)
	rep.set("recovery.close_s", "s", plain.closeS)
	rep.set("recovery.records", "count", float64(plain.records))
	if plain.records > 0 {
		rep.set("recovery.us_per_record", "us", plain.closeS*1e6/float64(plain.records))
	}
	return finishTrace(o, rep, bufs, plain.wallS, traced.wallS)
}

// finishTrace reports self time per layer and the tracing overhead, and
// writes the span file.
func finishTrace(o options, rep *report, bufs []*spanBuf, plainS, tracedS float64) error {
	self := selfTimes(bufs)
	for _, l := range []string{"client", "proto", "store", "engine", "recovery", "workload", "machine"} {
		rep.set("self."+l+"_ms", "ms", self[l])
	}
	spans := 0
	for _, b := range bufs {
		spans += len(b.spans)
	}
	rep.set("trace.spans", "count", float64(spans))
	rep.set("trace.overhead_pct", "%", 100*(tracedS-plainS)/plainS)
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := writeTrace(path, bufs); err != nil {
		return fmt.Errorf("write span file: %w", err)
	}
	fmt.Printf("# spans: %d written to %s (untraced %.3fs, traced %.3fs)\n", spans, path, plainS, tracedS)
	return nil
}

// runKVRead: open loop on one binary connection over the rate ladder,
// 95/5 get/put over 4096 Zipf(1.1) keys, plus a JSON-line connection
// at a small fixed rate.
func runKVRead(o options, rep *report) error {
	keys := keyNames(kvKeys)
	n := rounds(o.seconds, readRoundSecs, 3)
	if o.trace {
		n = 1
	}
	var setup, drain, rss, tput, maxRate []float64
	var low, high lat // GETs of the low and high steps, all rounds
	stepLate := make([]lat, len(readLadder))
	var jsonLat lat
	var last *kvRound
	for i := 0; i < n; i++ {
		r, st, sat, err := readRound(o.pmkvd, o.seed, keys, o.trace)
		if err != nil {
			return err
		}
		rep.count(r.ops, r.failed, r.why)
		setup = append(setup, r.setupS)
		drain = append(drain, r.drain.Seconds)
		rss = append(rss, r.drain.RSSMB)
		sg, sp, _ := latencies(r.hist[0], sat.lo, sat.hi, false)
		fmt.Printf("# round %d: setup %.3fs, drain %.3fs, rss %.1fMB, failed %d\n#   saturation %d ops at %.0f ops/s: get %s | put %s\n",
			i, r.setupS, r.drain.Seconds, r.drain.RSSMB, r.failed, sat.hi-sat.lo, r.satRate, sg.summary(), sp.summary())
		tput = append(tput, r.satRate)
		// A step counts toward the highest rate only if it and every
		// step below it met the limit without falling behind.
		top := -1
		for si, s := range st {
			g, _, l := latencies(r.hist[0], s.lo, s.hi, true)
			stepLate[si].merge(&l)
			gs := g.summary()
			ok := gs.P99 <= readLimitP99US && !backlogGrew(r.hist[0], s)
			if ok && top == si-1 {
				top = si
			}
			fmt.Printf("#   step %6.0f ops/s: get %s | late %s | in flight at end %d | %s\n",
				s.rate, gs, l.summary(), s.inflightEnd, map[bool]string{true: "meets limit", false: "MISSES limit"}[ok])
			switch si {
			case 0:
				low.merge(&g)
			case readHigh:
				high.merge(&g)
			}
		}
		if top >= 0 {
			maxRate = append(maxRate, st[top].rate)
		} else {
			maxRate = append(maxRate, 0)
		}
		jg, jp, _ := latencies(r.hist[1], 0, len(r.hist[1]), true)
		jsonLat.merge(&jg)
		jsonLat.merge(&jp)
		last = r
	}
	for si, s := range readLadder {
		l := stepLate[si].summary()
		rep.note(fmt.Sprintf("client.late_p50_us.%.0f", s.rate), "us", l.P50)
		rep.note(fmt.Sprintf("client.late_p99_us.%.0f", s.rate), "us", l.P99)
	}
	ls, hs := low.summary(), high.summary()
	fmt.Printf("# low step get %s\n# high step get %s\n", ls, hs)
	js := jsonLat.summary()
	fmt.Printf("# json %s\n", js)
	if !o.trace {
		setE2E(rep, setup, median(tput), hs.P50, hs.Tail, drain, rss)
		rep.note("get_p50_us.low", "us", ls.P50)
		rep.note("get_p99_us.low", "us", ls.P99)
		rep.note("get_p50_us.high", "us", hs.P50)
		rep.note("get_p99_us.high", "us", hs.P99)
		rep.note("max_rate_ops_s", "1/s", median(maxRate))
		rep.note("json_p50_us", "us", js.P50)
		rep.note("server_rss_mb", "MB", median(rss))
		return nil
	}
	zeroLayers(rep)
	liveLayers(rep, last, stepLate[readHigh].summary())
	binOps, _, _ := ladderStream(o.seed)
	return tracedKV(o, rep, [][]op{binOps[:min(len(binOps), replayOpsPerConn)], jsonStream(o.seed)}, preloadStream(), keys, readWindow)
}

// backlogGrew reports whether a step fell behind: the median lateness
// of the ops due in its last quarter exceeds that of its first quarter
// by more than a millisecond, or more ops were in flight when it ended
// than the rate sustains within the latency limit.
func backlogGrew(evs []event, s readStep) bool {
	q := (s.hi - s.lo) / 4
	_, _, first := latencies(evs, s.lo, s.lo+q, true)
	_, _, lastQ := latencies(evs, s.hi-q, s.hi, true)
	return lastQ.summary().P50 > first.summary().P50+1000 ||
		float64(s.inflightEnd) > s.rate*readLimitP99US/1e6
}

// runSimBEP: the Table 2 micro-benchmarks under LB and LB++ at 32
// threads, in-process, one simulation at a time.
func runSimBEP(o options, rep *report) error {
	// The golden round pins the simulated statistics at the reference
	// seed; it also warms the heap before anything is timed.
	g, err := runSimRound(goldenSeed, nil)
	if err != nil {
		return err
	}
	gf, gwhy := checkGolden(g.stats, goldenJSON)
	rep.count(len(g.stats), gf+g.failed, append(gwhy, g.why...))

	n := rounds(o.seconds, simRoundSecs, 3)
	if o.trace {
		n = 1
	}
	var setup, verify, walls, perSim []float64
	var bySim [][]float64 // host seconds of each simulation, one slice per (bench, barrier)
	var runs lat
	var runS float64
	var txns uint64
	var first *simRound
	for i := 0; i < n; i++ {
		r, err := runSimRound(o.seed, nil)
		if err != nil {
			return err
		}
		rep.count(len(r.stats), r.failed, r.why)
		if first == nil {
			first = r
		} else if f, why := compareRounds(first, r); f > 0 {
			rep.count(0, f, why)
		}
		wall := 0.0
		for j, s := range r.runS {
			runs.add(int64(s * 1e9))
			wall += s
			if j == len(bySim) {
				bySim = append(bySim, nil)
			}
			bySim[j] = append(bySim[j], s)
		}
		perSim = append(perSim, wall/float64(len(r.runS)))
		runS += wall
		txns += r.txns
		setup = append(setup, r.setupS)
		verify = append(verify, r.verifyS)
		walls = append(walls, wall)
		fmt.Printf("# round %d: setup %.3fs, simulate %.3fs, verify %.3fs, failed %d\n", i, r.setupS, wall, r.verifyS, r.failed)
	}
	for _, s := range first.stats {
		fmt.Printf("# %-6s %-4s exec=%d cycles, epochs=%d, conflicting=%.2f%%, throughput=%.3f txn/kcycle\n",
			s.Bench, s.Barrier, s.ExecCycles, s.EpochsPersisted, s.conflictingPct(), throughput(s))
	}
	fmt.Printf("# every simulation, all rounds: %s\n", runs.summary())
	if !o.trace {
		// Latency is per simulation and does not depend on which
		// configuration lands at a given rank: the median over rounds
		// of a round's mean, and the slowest configuration's median.
		slowest := 0.0
		for _, xs := range bySim {
			slowest = max(slowest, median(xs))
		}
		setE2E(rep, setup, float64(txns)/runS, median(perSim)*1e6, slowest*1e6, verify, []float64{peakRSSMB()})
		rep.note("sim_wall_s", "s", median(walls))
		return nil
	}
	zeroLayers(rep)
	bufs := []*spanBuf{{tid: 1}}
	tr, err := runSimRound(o.seed, bufs[0])
	if err != nil {
		return err
	}
	rep.count(len(tr.stats), tr.failed, tr.why)
	if f, why := compareRounds(first, tr); f > 0 {
		rep.count(0, f, why)
	}
	sims := float64(len(first.stats))
	rep.set("machine.new_us", "us", first.newS*1e6/sims)
	rep.set("machine.ns_per_event", "ns", walls[0]*1e9/float64(first.events))
	rep.set("machine.allocs_per_event", "count", float64(tr.runMallocs)/float64(tr.events))
	rep.set("machine.events", "count", float64(first.events))
	rep.set("machine.sim_cycles", "cycles", float64(first.cycles))
	rep.set("workload.gen_ms", "ms", first.genS*1e3)
	traced := 0.0
	for _, s := range tr.runS {
		traced += s
	}
	return finishTrace(o, rep, bufs, walls[0]+first.setupS+first.verifyS, traced+tr.setupS+tr.verifyS)
}

// compareRounds requires two rounds of one seed to simulate identically.
func compareRounds(a, b *simRound) (int, []string) {
	f := 0
	var why []string
	for i := range a.stats {
		if i >= len(b.stats) || a.stats[i] != b.stats[i] {
			f++
			if len(why) < 3 {
				why = append(why, fmt.Sprintf("nondeterministic simulation: %+v then %+v", a.stats[i], b.stats[min(i, len(b.stats)-1)]))
			}
		}
	}
	return f, why
}
