package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"persistbarriers/internal/proto"
	"persistbarriers/internal/proto/client"
)

// Workload shapes. The op counts, rates and limits were calibrated once
// on a 2-CPU host so that a round takes a few seconds there; they are
// part of the benchmark's definition and change only with it.
const (
	kvKeys = 4096

	// kv-write: closed loop, fixed ops per server lifetime.
	writeConns      = 2
	writeOpsPerConn = 30000
	writeWindow     = 64
	writeRoundSecs  = 2.0 // nominal; sets how many rounds --seconds buys

	// kv-read: open loop over a ladder of fixed rates.
	readJSONRate   = 200 // ops/s on the JSON-line connection
	readWindow     = 4096
	readLimitP99US = 20000 // get p99 limit a ladder step must meet
	readRoundSecs  = 5.5
	// readPreloadVersions is how many times the preload writes each key.
	readPreloadVersions = 4
	// readHigh is the index in readLadder of the "high" step, whose GET
	// latencies the workload reports.
	readHigh = 3
	// The saturation step follows the ladder once every ladder op is
	// acked: readSatOps ops issued as fast as readSatWindow in-flight
	// slots free up. Its acked ops per second is the workload's
	// throughput, a figure the server sets rather than the generator.
	readSatOps    = 100000
	readSatWindow = 256
)

// readLadder is the fixed-rate ladder of kv-read, lowest first. The
// lowest step is the "low" rate. The high step (readHigh) runs longest:
// its GET tail comes from bursts (a mailbox fallback landing behind a
// group commit), and only a long look sees enough bursts for the tail to
// repeat from run to run. The steps above it probe the highest rate the
// server sustains within the limit.
var readLadder = []struct{ rate, secs float64 }{
	{2000, 0.5}, {10000, 0.25}, {30000, 0.25}, {60000, 1.5}, {100000, 0.25}, {150000, 0.25}, {200000, 0.25}, {250000, 0.25},
}

// ladderSecs is the length of one walk up the ladder.
func ladderSecs() float64 {
	t := 0.0
	for _, s := range readLadder {
		t += s.secs
	}
	return t
}

var (
	writeSpec = streamSpec{ops: writeOpsPerConn, keys: kvKeys, getPct: 25, putPct: 70}
	readSpec  = streamSpec{keys: kvKeys, getPct: 95, putPct: 5, zipf: 1.1}
)

// clock is the benchmark's time base, shared by every connection so
// events from different connections compare directly.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// binConn drives one pipelined binary connection. Window slots travel
// as the release time of the op that freed them, so the submitter can
// tell how long a free slot waited for it.
type binConn struct {
	cli  *client.Client
	ev   []event
	slot chan int64
}

func newBinConn(conn net.Conn, window int, ev []event) (*binConn, error) {
	b := &binConn{ev: ev, slot: make(chan int64, window)}
	for i := 0; i < window; i++ {
		b.slot <- 0
	}
	var err error
	// One spare client slot: ours is released inside the handler, a
	// moment before the client's own, so the client never blocks.
	b.cli, err = client.New(conn, client.Options{Window: window + 1, OnComplete: b.complete})
	return b, err
}

func (b *binConn) complete(resp *proto.Response, _, _ int64) {
	e := &b.ev[resp.ID]
	e.ack = clock()
	e.done = true
	switch {
	case resp.Err != "" || !resp.OK || resp.Crashed || len(resp.Results) == 0:
		e.bad = true
	case e.kind == opGet:
		e.record(resp.Results[0].Found, resp.Results[0].Value)
	}
	b.slot <- e.ack
}

// acquire takes a window slot, flushing first when none is free (the
// ops holding them may still sit in the write buffer). It returns when
// the slot was freed.
func (b *binConn) acquire() (int64, error) {
	select {
	case t := <-b.slot:
		return t, nil
	default:
	}
	if err := b.cli.Flush(); err != nil {
		return 0, err
	}
	return <-b.slot, nil
}

func (b *binConn) issue(i int, o op, keys [][]byte, val []byte) error {
	e := &b.ev[i]
	e.kind, e.key = o.kind, o.key
	e.submit = clock()
	switch o.kind {
	case opGet:
		return b.cli.Get(uint64(i), keys[o.key])
	case opPut:
		return b.cli.Put(uint64(i), keys[o.key], val)
	default:
		return b.cli.Del(uint64(i), keys[o.key])
	}
}

// putValues precomputes the tagged value of every put in a stream.
func putValues(ops []op, conn int) [][]byte {
	out := make([][]byte, len(ops))
	for i, o := range ops {
		if o.kind == opPut {
			out[i] = tagValue(int(o.key), conn, i)
		}
	}
	return out
}

// cpuSelf is this process's user+system CPU time in seconds.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is this process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// kvRound is everything one server lifetime measured.
type kvRound struct {
	setupS    float64
	loadS     float64
	ops       int
	drain     drainResult
	serverCPU float64 // seconds during the load phase
	clientCPU float64
	fastHit   float64 // scraped, traced runs only
	satRate   float64 // kv-read: acked ops per second of the saturation step
	batchMean float64
	failed    int
	why       []string
	hist      [][]event
}

// writeRound runs one kv-write server lifetime: start pmkvd, issue the
// fixed op streams closed-loop on two connections, drain, check.
func writeRound(bin string, streams [][]op, vals [][][]byte, keys [][]byte, admin bool) (*kvRound, error) {
	t0 := time.Now()
	srv, err := startServer(bin, admin)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	r := &kvRound{hist: make([][]event, len(streams))}
	conns := make([]*binConn, len(streams))
	for c := range streams {
		nc, err := srv.dial()
		if err != nil {
			return nil, err
		}
		r.hist[c] = make([]event, len(streams[c]))
		if conns[c], err = newBinConn(nc, writeWindow, r.hist[c]); err != nil {
			nc.Close()
			return nil, err
		}
	}
	r.setupS = time.Since(t0).Seconds()

	cpu0, self0 := srv.cpuSeconds(), cpuSelf()
	t1 := time.Now()
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := conns[c]
			for i, o := range streams[c] {
				freed, err := b.acquire()
				if err == nil {
					err = b.issue(i, o, keys, vals[c][i])
				}
				if err != nil {
					errs[c] = err
					return
				}
				r.hist[c][i].due = freed
			}
			errs[c] = b.cli.Wait()
		}(c)
	}
	wg.Wait()
	r.loadS = time.Since(t1).Seconds()
	r.serverCPU, r.clientCPU = srv.cpuSeconds()-cpu0, cpuSelf()-self0
	for _, s := range streams {
		r.ops += len(s)
	}
	if admin {
		if r.fastHit, r.batchMean, err = srv.scrape(); err != nil {
			return nil, err
		}
	}
	for _, b := range conns {
		b.cli.Close()
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("kv-write connection: %w", err)
		}
	}
	if r.drain, err = srv.drain(); err != nil {
		return nil, err
	}
	r.failed, r.why = checkHistory(r.hist)
	return r, nil
}

// readStep is one ladder rate's span of the binary stream.
type readStep struct {
	rate, secs  float64
	lo, hi      int
	inflightEnd int
}

// readRound runs one kv-read server lifetime: start pmkvd, preload
// every key, then walk the rate ladder open-loop on one binary
// connection while a JSON-line connection runs at a small fixed rate.
func readRound(bin string, seed uint64, keys [][]byte, admin bool) (*kvRound, []readStep, readStep, error) {
	binOps, steps, sat := ladderStream(seed)
	jsonOps := jsonStream(seed)
	preload := preloadStream()
	binVals, jsonVals, preVals := putValues(binOps, 0), putValues(jsonOps, 1), putValues(preload, 2)

	t0 := time.Now()
	srv, err := startServer(bin, admin, "-window", fmt.Sprint(readWindow))
	if err != nil {
		return nil, nil, readStep{}, err
	}
	defer srv.kill()
	r := &kvRound{hist: [][]event{make([]event, len(binOps)), make([]event, len(jsonOps)), make([]event, len(preload))}}
	nc, err := srv.dial()
	if err != nil {
		return nil, nil, readStep{}, err
	}
	pre, err := newBinConn(nc, writeWindow, r.hist[2])
	if err != nil {
		nc.Close()
		return nil, nil, readStep{}, err
	}
	for i, o := range preload {
		if _, err := pre.acquire(); err != nil {
			return nil, nil, readStep{}, err
		}
		if err := pre.issue(i, o, keys, preVals[i]); err != nil {
			return nil, nil, readStep{}, err
		}
	}
	if err := pre.cli.Close(); err != nil {
		return nil, nil, readStep{}, fmt.Errorf("kv-read preload: %w", err)
	}
	nc, err = srv.dial()
	if err != nil {
		return nil, nil, readStep{}, err
	}
	b, err := newBinConn(nc, readWindow, r.hist[0])
	if err != nil {
		nc.Close()
		return nil, nil, readStep{}, err
	}
	jc, err := srv.dial()
	if err != nil {
		b.cli.Close()
		return nil, nil, readStep{}, err
	}
	r.setupS = time.Since(t0).Seconds()

	cpu0, self0 := srv.cpuSeconds(), cpuSelf()
	t1 := time.Now()
	start := clock() + int64(time.Millisecond)
	var jsonErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		jsonErr = runJSON(jc, jsonOps, jsonVals, keys, r.hist[1], start)
	}()
	binErr := runLadder(b, binOps, binVals, keys, steps, start)
	wg.Wait()
	if binErr == nil {
		r.satRate, binErr = runSaturate(b, binOps, binVals, keys, sat)
	}
	r.loadS = time.Since(t1).Seconds()
	r.serverCPU, r.clientCPU = srv.cpuSeconds()-cpu0, cpuSelf()-self0
	r.ops = len(binOps) + len(jsonOps)
	if admin {
		if r.fastHit, r.batchMean, err = srv.scrape(); err != nil {
			b.cli.Close()
			return nil, nil, readStep{}, err
		}
	}
	if err := b.cli.Close(); err != nil && binErr == nil {
		binErr = err
	}
	if binErr != nil {
		return nil, nil, readStep{}, fmt.Errorf("kv-read binary connection: %w", binErr)
	}
	if jsonErr != nil {
		return nil, nil, readStep{}, fmt.Errorf("kv-read JSON connection: %w", jsonErr)
	}
	if r.drain, err = srv.drain(); err != nil {
		return nil, nil, readStep{}, err
	}
	r.failed, r.why = checkHistory(r.hist)
	return r, steps, sat, nil
}

// ladderStream generates the binary connection's whole stream, the
// span of it each ladder step covers, and the saturation step's span,
// which ends it.
func ladderStream(seed uint64) ([]op, []readStep, readStep) {
	var steps []readStep
	n := 0
	for _, s := range readLadder {
		k := int(s.rate * s.secs)
		steps = append(steps, readStep{rate: s.rate, secs: s.secs, lo: n, hi: n + k})
		n += k
	}
	sat := readStep{lo: n, hi: n + readSatOps}
	sp := readSpec
	sp.ops = sat.hi
	return genStream(seed, 0, sp), steps, sat
}

// preloadStream writes every key readPreloadVersions times before the
// ladder, so GETs find values and the drain replays a store of some
// size rather than timing mostly process exit.
func preloadStream() []op {
	out := make([]op, 0, kvKeys*readPreloadVersions)
	for v := 0; v < readPreloadVersions; v++ {
		for k := 0; k < kvKeys; k++ {
			out = append(out, op{kind: opPut, key: int32(k)})
		}
	}
	return out
}

// jsonStream generates the JSON-line connection's ops, one per
// 1/readJSONRate seconds of the ladder.
func jsonStream(seed uint64) []op {
	sp := readSpec
	sp.ops = int(ladderSecs() * readJSONRate)
	return genStream(seed, 1, sp)
}

// runLadder issues each step's ops at their due times. Op i of a step
// is due at stepStart + i/rate; the generator submits everything due,
// flushes, and sleeps until the next due time, so it falls behind only
// when the system (or the host) does, and every latency is measured
// from the due time.
func runLadder(b *binConn, ops []op, vals [][]byte, keys [][]byte, steps []readStep, start int64) error {
	stepStart := start
	for si := range steps {
		st := &steps[si]
		gap := float64(time.Second) / st.rate
		due := func(i int) int64 { return stepStart + int64(float64(i-st.lo)*gap) }
		next := st.lo
		for next < st.hi {
			now := clock()
			for next < st.hi && due(next) <= now {
				b.ev[next].due = due(next)
				if _, err := b.acquire(); err != nil {
					return err
				}
				if err := b.issue(next, ops[next], keys, vals[next]); err != nil {
					return err
				}
				next++
			}
			if err := b.cli.Flush(); err != nil {
				return err
			}
			if next < st.hi {
				waitUntil(due(next))
			}
		}
		stepStart += int64(st.secs * float64(time.Second))
		waitUntil(stepStart)
		st.inflightEnd = cap(b.slot) - len(b.slot)
	}
	return nil
}

// runSaturate waits until every ladder op is acked, then issues the
// saturation step's ops closed-loop with readSatWindow ops in flight.
// It returns the ops acked per second from the first submit to the last
// ack.
func runSaturate(b *binConn, ops []op, vals [][]byte, keys [][]byte, s readStep) (float64, error) {
	if err := b.cli.Wait(); err != nil {
		return 0, err
	}
	// Every slot is free now; holding the surplus caps what is in flight.
	held := cap(b.slot) - readSatWindow
	for i := 0; i < held; i++ {
		<-b.slot
	}
	t0 := clock()
	for i := s.lo; i < s.hi; i++ {
		if _, err := b.acquire(); err != nil {
			return 0, err
		}
		if err := b.issue(i, ops[i], keys, vals[i]); err != nil {
			return 0, err
		}
	}
	if err := b.cli.Wait(); err != nil {
		return 0, err
	}
	for i := 0; i < held; i++ {
		b.slot <- 0
	}
	var end int64
	for _, e := range b.ev[s.lo:s.hi] {
		end = max(end, e.ack)
	}
	return float64(s.hi-s.lo) / time.Duration(end-t0).Seconds(), nil
}

// waitUntil sleeps to the benchmark-clock instant t. The runtime's
// timers round sleeps below a millisecond up to one, which would make a
// low-rate generator late by its own sleep; a raw nanosleep blocks only
// this thread and overshoots by the kernel's timer slack (tens of
// microseconds). The generator never spins: at high rates a spinning
// generator takes a whole CPU from the server it measures. The
// overshoot shows as lateness, and latency counts from the due time.
func waitUntil(t int64) {
	if d := t - clock(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR only makes the generator wake early and sleep again
	}
}

// jsonReq and jsonResp are the line protocol's request and reply.
type jsonReq struct {
	Op    string `json:"op"`
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
}

type jsonResp struct {
	OK      bool   `json:"ok"`
	Found   bool   `json:"found"`
	Value   string `json:"value"`
	Crashed bool   `json:"crashed"`
	Error   string `json:"error"`
}

// runJSON drives the JSON-line connection: one request at a time, each
// due at start + i/readJSONRate.
func runJSON(conn net.Conn, ops []op, vals [][]byte, keys [][]byte, ev []event, start int64) error {
	defer conn.Close()
	w := bufio.NewWriter(conn)
	rd := bufio.NewReader(conn)
	gap := float64(time.Second) / readJSONRate
	for i, o := range ops {
		e := &ev[i]
		e.kind, e.key = o.kind, o.key
		e.due = start + int64(float64(i)*gap)
		waitUntil(e.due)
		req := jsonReq{Op: o.kind.String(), Key: string(keys[o.key])}
		if o.kind == opPut {
			req.Value = string(vals[i])
		}
		line, err := json.Marshal(req)
		if err != nil {
			return err
		}
		e.submit = clock()
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		reply, err := rd.ReadBytes('\n')
		if err != nil {
			return err
		}
		e.ack = clock()
		e.done = true
		var resp jsonResp
		if err := json.Unmarshal(reply, &resp); err != nil || !resp.OK || resp.Crashed || resp.Error != "" {
			e.bad = true
			continue
		}
		if o.kind == opGet {
			e.record(resp.Found, []byte(resp.Value))
		}
	}
	return nil
}
