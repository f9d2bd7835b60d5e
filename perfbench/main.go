// Command perfbench is the end-to-end benchmark of pmkvd and the LB++
// simulator. It runs one named workload, checks every output, and prints
// one JSON result as its last line of standard output:
//
//	go run . --workload kv-write --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the traced mode instead: per-layer metrics, a span file Perfetto
// opens, and the tracing overhead. README.md has the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's figures. Metrics go into the result line;
// notes are extra named figures printed (and saved) beside them.
type report struct {
	res   result
	notes map[string]metric
	why   []string
}

func newReport() *report {
	return &report{res: result{Metrics: map[string]metric{}}, notes: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64)  { r.res.Metrics[name] = metric{v, unit} }
func (r *report) note(name, unit string, v float64) { r.notes[name] = metric{v, unit} }

func (r *report) count(attempted, failed int, why []string) {
	r.res.Attempted += attempted
	r.res.Failed += failed
	for _, w := range why {
		if len(r.why) < 10 {
			r.why = append(r.why, w)
		}
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	pmkvd    string
	out      string
}

var workloads = map[string]func(options, *report) error{
	"kv-write": runKVWrite,
	"kv-read":  runKVRead,
	"sim-bep":  runSimBEP,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: kv-write, kv-read or sim-bep")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", 12, "measured seconds (sets the number of rounds)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced mode: per-layer metrics and a span file")
	flag.StringVar(&o.pmkvd, "pmkvd", ".bench_build/pmkvd", "pmkvd binary the KV workloads start")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for span files and full results")
	printGolden := flag.Bool("print-golden", false, "print the sim-bep statistics golden.json should hold, and exit")
	flag.Parse()
	if *printGolden {
		r, err := runSimRound(goldenSeed, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		b, _ := json.MarshalIndent(r.stats, "", "  ")
		fmt.Println(string(b))
		return
	}
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload kv-write|kv-read|sim-bep, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	host := hostFacts(o)
	fmt.Printf("# host %s\n", mustJSON(host))
	rep := newReport()
	if err := run(o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.res.Correct = rep.res.Failed == 0
	if rep.res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operations attempted")
		os.Exit(1)
	}
	for _, w := range rep.why {
		fmt.Printf("# FAILED %s\n", w)
	}
	rep.note("failed_ratio", "ratio", float64(rep.res.Failed)/float64(rep.res.Attempted))
	for _, set := range []map[string]metric{rep.res.Metrics, rep.notes} {
		for _, k := range slices.Sorted(maps.Keys(set)) {
			fmt.Printf("# %-28s %14.4f %s\n", k, set[k].Value, set[k].Unit)
		}
	}
	for k, m := range rep.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, m.Value)
			os.Exit(1)
		}
	}
	full := map[string]any{"host": host, "result": rep.res, "notes": rep.notes, "failures": rep.why}
	path := filepath.Join(o.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, traceFlag))
	if err := os.MkdirAll(o.out, 0o755); err == nil {
		_ = os.WriteFile(path, append(mustJSON(full), '\n'), 0o644) // the copy is a convenience; stdout carries the result
	}
	fmt.Println(string(mustJSON(rep.res)))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// hostFacts says where a result was measured, so results from
// different hosts are not compared by mistake.
func hostFacts(o options) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"seed":       o.seed,
		"workload":   o.workload,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"commit":     commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision: git's HEAD, or "unknown" outside
// a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// rounds is how many fixed-size rounds --seconds buys at a workload's
// nominal round length; the work per round never changes.
func rounds(seconds int, roundSecs float64, least int) int {
	return max(least, int(math.Round(float64(seconds)/roundSecs)))
}
