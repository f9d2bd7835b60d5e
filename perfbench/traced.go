package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"persistbarriers/internal/pmkv"
	"persistbarriers/internal/proto"
)

// span is one timed call into a layer. Spans of one client op share op;
// parent indexes the enclosing span in the same buffer (-1 for a root).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int64
}

// spanBuf is one goroutine's spans, kept in memory until the run ends.
// A nil *spanBuf records nothing, so the untraced replay runs the same
// code with tracing off.
type spanBuf struct {
	tid   int
	spans []span
}

func (b *spanBuf) begin(name string, parent int32, op int64) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: clock(), parent: parent, op: op})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) {
	if b == nil {
		return
	}
	b.spans[i].end = clock()
}

// layerOf maps a span name to its layer: the text before the first '.'
// or ':' ("proto.encode" -> "proto", "machine.Run:hash/LB" -> "machine").
func layerOf(name string) string {
	if i := strings.IndexAny(name, ".:"); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part its
// children cover. A store span waits while its goroutine works on other
// pipelined ops, so store self time counts that overlap.
func selfTimes(bufs []*spanBuf) map[string]float64 {
	out := map[string]float64{}
	for _, b := range bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			out[layerOf(s.name)] += float64(s.end-s.start-child[i]) / 1e6
		}
	}
	return out
}

// writeTrace writes the spans as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.
func writeTrace(path string, bufs []*spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, b := range bufs {
		for i, s := range b.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d}}",
				s.name, layerOf(s.name), b.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.op)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storeConfig is the store pmkvd builds with -shards 4 and default flags.
func storeConfig() pmkv.ShardedConfig {
	return pmkv.ShardedConfig{
		Shards:      4,
		Engine:      pmkv.Config{Machine: pmkv.SmallMachine(), Buckets: 64, BatchGap: 200},
		Mailbox:     256,
		MaxBatch:    64,
		MinBatch:    8,
		MaxInFlight: 2,
	}
}

// replayStats is what the in-process store replay measured.
type replayStats struct {
	wallS                 float64
	encode, parse         lat // per codec call
	getFast, getFall, put lat // DoAsync -> completion
	gets, fastGets        int
	batchMean             float64
	closeS                float64
	records               int
	failed                int
}

// replayStore pushes streams through the layers a binary request
// crosses inside pmkvd, without the socket: encode request → parse
// request → DoAsync → completion → encode response → parse response, one
// goroutine per stream with up to window ops in flight. bufs, when
// non-nil, holds one span buffer per stream.
func replayStore(streams [][]op, preload []op, keys [][]byte, window int, bufs []*spanBuf) (*replayStats, error) {
	st, err := pmkv.NewSharded(storeConfig())
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			st.Close()
		}
	}()
	if len(preload) > 0 {
		sess := st.NewSession()
		for _, o := range preload {
			if ack := st.Do(sess, pmkv.Put, string(keys[o.key]), tagValue(int(o.key), 9, int(o.key))); ack.Err != nil || ack.Crashed {
				return nil, fmt.Errorf("preload: %v", ack.Err)
			}
		}
	}
	res := &replayStats{}
	per := make([]*replayStats, len(streams))
	var wg sync.WaitGroup
	t := time.Now()
	for c := range streams {
		var sb *spanBuf
		if bufs != nil {
			sb = bufs[c]
		}
		per[c] = &replayStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			replayConn(st, st.NewSession(), streams[c], c, keys, window, sb, per[c])
		}(c)
	}
	wg.Wait()
	res.wallS = time.Since(t).Seconds()
	for _, p := range per {
		res.encode.merge(&p.encode)
		res.parse.merge(&p.parse)
		res.getFast.merge(&p.getFast)
		res.getFall.merge(&p.getFall)
		res.put.merge(&p.put)
		res.gets += p.gets
		res.fastGets += p.fastGets
		res.failed += p.failed
	}
	var ops, batches float64
	for _, m := range st.Metrics() {
		ops += m.AvgBatch * float64(m.Batches)
		batches += float64(m.Batches)
	}
	if batches > 0 {
		res.batchMean = ops / batches
	}
	var sb *spanBuf
	if bufs != nil {
		sb = bufs[0]
	}
	t = time.Now()
	sp := sb.begin("recovery.Close", -1, -1)
	results, err := st.Close()
	sb.end(sp)
	closed = true
	res.closeS = time.Since(t).Seconds()
	if err != nil {
		return nil, fmt.Errorf("replay store close: %w", err)
	}
	for _, r := range results {
		res.records += r.Report.TotalPublishes
	}
	return res, nil
}

// inflight is one replayed op awaiting its completion.
type inflight struct {
	kind       opKind
	root, wait int32
	sent, ret  int64 // DoAsync called, DoAsync returned
}

func replayConn(st *pmkv.ShardedStore, sess *pmkv.ShardedSession, ops []op, conn int, keys [][]byte, window int, sb *spanBuf, out *replayStats) {
	done := make(chan pmkv.Completion, window)
	pend := make(map[uint64]inflight, window)
	var req proto.Request
	var resp proto.Response
	var buf []byte
	results := make([]proto.Result, 1)

	finish := func(c pmkv.Completion) {
		p := pend[c.Tag]
		delete(pend, c.Tag)
		now := clock()
		sb.end(p.wait)
		switch {
		case c.Ack.Err != nil || c.Ack.Crashed:
			out.failed++
		case p.kind == opGet && c.Ack.Fast:
			// Answered inline: the call itself is the latency.
			out.fastGets++
			out.getFast.add(p.ret - p.sent)
		case p.kind == opGet:
			out.getFall.add(now - p.sent)
		case p.kind == opPut:
			out.put.add(now - p.sent)
		}
		results[0] = proto.Result{Found: c.Ack.Resp.Found, HasValue: len(c.Ack.Resp.Value) > 0, Value: c.Ack.Resp.Value}
		t := clock()
		sp := sb.begin("proto.encode:response", p.root, int64(c.Tag))
		buf = proto.AppendResponse(buf[:0], &proto.Response{ID: c.Tag, OK: c.Ack.Err == nil, Crashed: c.Ack.Crashed, Results: results})
		sb.end(sp)
		t1 := clock()
		out.encode.add(t1 - t)
		sp = sb.begin("proto.parse:response", p.root, int64(c.Tag))
		err := proto.ParseResponse(buf[5:], &resp)
		sb.end(sp)
		out.parse.add(clock() - t1)
		if err != nil || resp.ID != c.Tag {
			out.failed++
		}
		sb.end(p.root)
	}

	for i, o := range ops {
		for len(pend) >= window {
			finish(<-done)
		}
		id := uint64(conn)<<32 | uint64(i)
		root := sb.begin("client.op:"+o.kind.String(), -1, int64(id))
		t := clock()
		sp := sb.begin("proto.encode:request", root, int64(id))
		switch o.kind {
		case opGet:
			buf = proto.AppendGet(buf[:0], id, keys[o.key])
		case opPut:
			buf = proto.AppendPut(buf[:0], id, keys[o.key], tagValue(int(o.key), conn, i))
		default:
			buf = proto.AppendDel(buf[:0], id, keys[o.key])
		}
		sb.end(sp)
		t1 := clock()
		out.encode.add(t1 - t)
		sp = sb.begin("proto.parse:request", root, int64(id))
		err := proto.ParseRequest(buf[5:], &req)
		sb.end(sp)
		out.parse.add(clock() - t1)
		if err != nil {
			out.failed++
			sb.end(root)
			continue
		}
		var value []byte
		if o.kind == opPut {
			value = append([]byte(nil), req.Vals[0]...)
		}
		pop := [...]pmkv.Op{opGet: pmkv.Get, opPut: pmkv.Put, opDel: pmkv.Delete}[o.kind]
		if o.kind == opGet {
			out.gets++
		}
		wait := sb.begin("store.DoAsync:"+o.kind.String(), root, int64(id))
		pend[id] = inflight{kind: o.kind, root: root, wait: wait, sent: clock()}
		_, err = st.DoAsync(sess, pop, string(req.Keys[0]), value, nil, id, done)
		if err != nil {
			delete(pend, id)
			out.failed++
			sb.end(wait)
			sb.end(root)
			continue
		}
		p := pend[id]
		p.ret = clock()
		pend[id] = p
		// A fast-path GET completes inline, before DoAsync returns.
		for len(done) > 0 {
			finish(<-done)
		}
	}
	for len(pend) > 0 {
		finish(<-done)
	}
}

// engineStats is the single-goroutine engine replay's cost per op.
type engineStats struct {
	submitNS, pumpNS float64
	allocs           float64
	cyclesPerOp      float64
}

// engineBatch is the fixed group-commit size of the engine replay; a
// fixed size makes the simulated cycles per op repeat exactly.
const engineBatch = 32

// replayEngine feeds the op streams, interleaved, to one engine in fixed
// batches: SubmitAppend (translate + feed), then PumpRetire (simulate to
// retirement).
func replayEngine(streams [][]op, keys [][]byte, maxOps int, sb *spanBuf) (*engineStats, error) {
	cfg := storeConfig().Engine
	eng, err := pmkv.New(cfg)
	if err != nil {
		return nil, err
	}
	sess := make([]*pmkv.Session, len(streams))
	for i := range sess {
		sess[i] = eng.NewSession()
	}
	var reqs []pmkv.Request
	for i := 0; len(reqs) < maxOps; i++ {
		more := false
		for c, s := range streams {
			if i >= len(s) || len(reqs) >= maxOps {
				continue
			}
			more = true
			o := s[i]
			r := pmkv.Request{Sess: sess[c], Key: string(keys[o.key])}
			switch o.kind {
			case opGet:
				r.Op = pmkv.Get
			case opPut:
				r.Op, r.Value = pmkv.Put, tagValue(int(o.key), c, i)
			default:
				r.Op = pmkv.Delete
			}
			reqs = append(reqs, r)
		}
		if !more {
			break
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := eng.Now()
	var submit, pump time.Duration
	var resps []pmkv.Response
	for lo := 0; lo < len(reqs); lo += engineBatch {
		hi := min(lo+engineBatch, len(reqs))
		t := time.Now()
		sp := sb.begin("engine.SubmitAppend", -1, int64(lo))
		resps, err = eng.SubmitAppend(resps[:0], reqs[lo:hi])
		sb.end(sp)
		t1 := time.Now()
		submit += t1.Sub(t)
		if err != nil {
			return nil, err
		}
		sp = sb.begin("engine.PumpRetire", -1, int64(lo))
		err = eng.PumpRetire()
		sb.end(sp)
		pump += time.Since(t1)
		if err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(reqs))
	out := &engineStats{
		submitNS:    float64(submit.Nanoseconds()) / n,
		pumpNS:      float64(pump.Nanoseconds()) / n,
		allocs:      float64(ms1.Mallocs-ms0.Mallocs) / n,
		cyclesPerOp: float64(eng.Now()-c0) / n,
	}
	if _, err := eng.Close(); err != nil {
		return nil, err
	}
	return out, nil
}
