package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDel
)

func (k opKind) String() string { return [...]string{"get", "put", "del"}[k] }

// op is one generated client operation; the value a put writes is
// derived from its position (see tagValue), so a stream is just kinds
// and keys.
type op struct {
	kind opKind
	key  int32
}

// streamSpec describes one connection's op stream.
type streamSpec struct {
	ops    int
	keys   int
	getPct int // percent GETs
	putPct int // percent PUTs; the rest are DELs
	zipf   float64
}

// genStream derives one connection's ops from the workload seed. The
// same (seed, conn, spec) always yields the same stream.
func genStream(seed uint64, conn int, sp streamSpec) []op {
	r := rand.New(rand.NewPCG(seed, uint64(conn)+0x9e3779b97f4a7c15))
	var z *rand.Zipf
	if sp.zipf > 0 {
		z = rand.NewZipf(r, sp.zipf, 1, uint64(sp.keys-1))
	}
	out := make([]op, sp.ops)
	for i := range out {
		var k int32
		if z != nil {
			k = int32(z.Uint64())
		} else {
			k = int32(r.IntN(sp.keys))
		}
		kind := opDel
		switch p := r.IntN(100); {
		case p < sp.getPct:
			kind = opGet
		case p < sp.getPct+sp.putPct:
			kind = opPut
		}
		out[i] = op{kind: kind, key: k}
	}
	return out
}

// keyNames renders the key set once, outside any timed section.
func keyNames(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("k%05d", i))
	}
	return out
}

// valueSize is the size of every written value.
const valueSize = 64

// tagValue builds the value the put at position seq of connection conn
// writes to key: the three numbers, then padding to valueSize. A GET
// that returns it can be traced back to exactly one issued put.
func tagValue(key, conn, seq int) []byte {
	v := make([]byte, 0, valueSize)
	v = fmt.Appendf(v, "k%05d|c%02d|s%09d|", key, conn, seq)
	for len(v) < valueSize {
		v = append(v, '.')
	}
	return v
}

// parseTag inverts tagValue; ok is false for anything tagValue cannot
// have produced.
func parseTag(v []byte) (key, conn, seq int, ok bool) {
	const head = len("k00000|c00|s000000000|")
	if len(v) != valueSize || v[0] != 'k' || v[6] != '|' || v[7] != 'c' || v[10] != '|' || v[11] != 's' || v[head-1] != '|' {
		return 0, 0, 0, false
	}
	for _, b := range v[head:] {
		if b != '.' {
			return 0, 0, 0, false
		}
	}
	var err1, err2, err3 error
	key, err1 = strconv.Atoi(string(v[1:6]))
	conn, err2 = strconv.Atoi(string(v[8:10]))
	seq, err3 = strconv.Atoi(string(v[12 : head-1]))
	return key, conn, seq, err1 == nil && err2 == nil && err3 == nil
}

// event is what the client saw of one op. Times are nanoseconds on the
// benchmark clock; due is the open-loop schedule time (0 in closed loop).
type event struct {
	kind             opKind
	key              int32
	due, submit, ack int64
	done, bad, found bool
	tagOK            bool
	tagKey, tagConn  int32
	tagSeq           int32
}

// record fills in an acked GET's returned value.
func (e *event) record(found bool, v []byte) {
	e.found = found
	if !found {
		return
	}
	k, c, s, ok := parseTag(v)
	e.tagOK, e.tagKey, e.tagConn, e.tagSeq = ok, int32(k), int32(c), int32(s)
}

// checkHistory verifies every op of one server lifetime. hist[c][i] is
// connection c's i-th op, and a value tagged (c, i) must have been
// written by exactly that op. It returns how many ops failed — errors,
// refusals, crashed acks, missing acks and wrong reads alike — with the
// first few failures described.
//
// A GET that finds a value must name a put of the same key submitted
// before the GET was acked. A GET that finds nothing is wrong when some
// put of the key was acked before the GET was submitted and no delete
// of the key could have been ordered after that put.
func checkHistory(hist [][]event) (failed int, why []string) {
	type ivl struct{ submit, ack int64 }
	puts := map[int32][]ivl{}
	dels := map[int32][]ivl{}
	for _, evs := range hist {
		for _, e := range evs {
			if !e.done || e.bad {
				continue
			}
			switch e.kind {
			case opPut:
				puts[e.key] = append(puts[e.key], ivl{e.submit, e.ack})
			case opDel:
				dels[e.key] = append(dels[e.key], ivl{e.submit, e.ack})
			}
		}
	}
	fail := func(format string, args ...any) {
		failed++
		if len(why) < 5 {
			why = append(why, fmt.Sprintf(format, args...))
		}
	}
	for c, evs := range hist {
		for i, e := range evs {
			switch {
			case !e.done:
				fail("conn %d op %d (%s k%05d): no reply", c, i, e.kind, e.key)
			case e.bad:
				fail("conn %d op %d (%s k%05d): error, refusal or crashed ack", c, i, e.kind, e.key)
			case e.kind != opGet:
			case e.found:
				if !e.tagOK || e.tagKey != e.key || int(e.tagConn) >= len(hist) || int(e.tagSeq) >= len(hist[e.tagConn]) {
					fail("conn %d op %d: get k%05d returned a value no put wrote", c, i, e.key)
					continue
				}
				w := hist[e.tagConn][e.tagSeq]
				if w.kind != opPut || w.key != e.key || w.submit > e.ack {
					fail("conn %d op %d: get k%05d returned c%d/s%d, not a put of that key issued before the read", c, i, e.key, e.tagConn, e.tagSeq)
				}
			default:
				var last *ivl
				for j, p := range puts[e.key] {
					if p.ack < e.submit && (last == nil || p.submit > last.submit) {
						last = &puts[e.key][j]
					}
				}
				if last == nil {
					continue
				}
				covered := false
				for _, d := range dels[e.key] {
					if d.submit < e.ack && d.ack > last.submit {
						covered = true
						break
					}
				}
				if !covered {
					fail("conn %d op %d: get k%05d found nothing after a put acked at %d ns", c, i, e.key, last.ack)
				}
			}
		}
	}
	return failed, why
}
