// kvstore: a durable key-value store under buffered epoch persistency,
// crashed at an arbitrary instant. Four client sessions hammer the pmkv
// engine concurrently; every Put becomes the paper's Figure 10 discipline
// on the simulated multicore — write the entry, persist barrier, publish
// the bucket head, persist barrier. Mid-run the machine loses power, and
// recovery proves the guarantee BEP gives you: the durable image is an
// epoch-ordered cut, no bucket head names a torn entry, and each
// session's durable writes are a prefix of what it issued.
//
// Run with:
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"sort"

	"persistbarriers/internal/pmkv"
)

func main() {
	// Pull the plug mid-run. (Set to 0 for a clean drain: then every
	// write recovers.)
	const crashCycle = 12000

	engine, err := pmkv.New(pmkv.Config{CrashAt: crashCycle})
	if err != nil {
		log.Fatal(err)
	}

	// Four sessions (one per simulated core) write a shared keyspace in
	// batches; each batch is one group commit, so the sessions contend on
	// bucket heads and the epoch hardware resolves the conflicts.
	sessions := make([]*pmkv.Session, 4)
	for i := range sessions {
		sessions[i] = engine.NewSession()
	}
	issued := 0
	for round := 0; !engine.Crashed(); round++ {
		batch := make([]pmkv.Request, 0, len(sessions))
		for i, s := range sessions {
			key := fmt.Sprintf("user:%d", (round*len(sessions)+i)%10)
			val := fmt.Sprintf("r%d-s%d", round, i)
			op := pmkv.Put
			if round > 0 && (round+i)%7 == 0 {
				op = pmkv.Delete
			}
			batch = append(batch, pmkv.Request{Sess: s, Op: op, Key: key, Value: []byte(val)})
		}
		_, err := engine.Apply(batch)
		if err == pmkv.ErrCrashed {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		issued += len(batch)
		if round >= 40 { // bound the demo if the crash never lands
			break
		}
	}

	result, err := engine.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash at cycle %d: %d ops issued before power loss, %d lines durable\n",
		engine.Now(), issued, len(result.Image))

	// Recovery: rebuild the happens-before graph from the retained epoch
	// histories, strengthen it with the per-bucket publish order, and
	// verify every invariant — epoch ordering, persisted-set closure, KV
	// atomicity (no torn entries), and per-session prefix durability.
	// The check replays the durable publishes and hands back the recovered
	// contents — what a restarting kvstore would actually serve.
	report, recovered, err := engine.Verify(result)
	if err != nil {
		log.Fatalf("INCONSISTENT persistent state: %v", err)
	}
	fmt.Printf("recovery check: %d epochs, %d publish-order edges, %d/%d publishes durable ✓\n",
		report.Epochs, report.PublishEdges, report.DurablePublishes, report.TotalPublishes)

	keys := make([]string, 0, len(recovered))
	for k := range recovered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("recovered state (%d keys, fingerprint %.16s):\n",
		len(recovered), report.Fingerprint)
	for _, k := range keys {
		fmt.Printf("  %-8s = %s\n", k, recovered[k])
	}
	fmt.Println("(every recovered pointer is a complete, barrier-ordered write — nothing torn)")
}
