// Command perfbench is the repository's benchmark. It runs one named
// workload against the real serving stack — internal/server's handler on a
// loopback listener, backed by internal/registry — from a load generator in
// the same process, checks the answers, and prints every metric with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with nothing
// but the program in the request path. With --trace 1 the same workload and
// seed run again with timing wrappers around the handler and the store, and
// the metrics are the per-layer ones. See README.md.
//
//	go run . --workload cold-read --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// datasetName is the registry name the workload's records are served under.
const datasetName = "bench"

// workload is one traffic mix. Every workload carries a query stream and an
// update stream, each with enough operations in a run for a p99.
type workload struct {
	name    string
	n       int  // initial IND records
	shards  int  // >1 serves through internal/shard
	durable bool // store.File with fsync per batch, else store.Mem
	regions int  // regionsUnique, regionsHot or regionsPoll

	utk2Every     int     // 1 in utk2Every queries is UTK2
	queryClients  int     // closed-loop query clients
	queryRate     float64 // open-loop queries per second, when queryClients is 0
	readsPerWrite int     // >0: no query stream; the writer reads this often after each batch

	writeRate    float64 // batches per second; one batch in flight
	churnEvery   int     // 1 in churnEvery batches churns; the rest insert one deep record
	deletes      int     // per churn batch
	inserts      int     // per churn batch
	nearTopEvery int     // 1 in nearTopEvery churn inserts lands in [0.9,1]^d
	deleteLag    int     // >0: churn deletes undo the inserts of that many churn batches back
}

var workloads = []workload{
	// Every query misses the cache and runs filter plus RSA/JAA refine: the
	// paper's algorithm path. The writer's deep inserts leave the band alone.
	{
		name: "cold-read", n: 100_000, utk2Every: 2, queryClients: 2,
		writeRate: 400,
	},
	// Zipf over nested regions: answers come from cache hits and
	// containment-derived clips, while churn batches (one near-top record in,
	// one out) invalidate them once a second. Left out of BENCHMARK.json:
	// its p99 follows the host's steal time too closely for the bounds.
	{
		name: "hot-mixed", n: 100_000, regions: regionsHot, utk2Every: 4, queryRate: 250,
		writeRate: 60, churnEvery: 60, deletes: 8, inserts: 8, nearTopEvery: 8, deleteLag: 4,
	},
	// fsync per batch at 250k records: band maintenance, WAL append and
	// snapshots do the work. After each batch the writer reads its dashboard
	// question ten times, on a server no other request is loading.
	{
		name: "durable-ingest", n: 250_000, durable: true, regions: regionsPoll, readsPerWrite: 10,
		writeRate: 100, churnEvery: 1, deletes: 8, inserts: 8, nearTopEvery: 8,
	},
	// cold-read's traffic against 2 shards: fan-out, merged filter, shard cache.
	{
		name: "sharded-cold", n: 100_000, shards: 2, utk2Every: 2, queryClients: 2,
		writeRate: 400,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	scratch := fs.String("scratch", ".bench_build/scratch", "directory for the durable workload's store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rep, err := execute(w, *seed, *seconds, *traceFlag == 1, *scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers:", strings.Join(rep.Wrong, "; "))
		return 1
	}
	return 0
}

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome.
type report struct {
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples gives the sample count behind each timing metric.
	Samples map[string]int `json:"samples"`
	Wrong   []string       `json:"wrong,omitempty"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setPct sets a percentile metric, failing when the sample is too small for
// it (see percentile).
func (r *report) setPct(name string, xs []float64, p float64, unit string) error {
	v, ok := percentile(xs, p)
	if !ok {
		return fmt.Errorf("%s: %d samples are too few for p%g", name, len(xs), p*100)
	}
	r.set(name, v, unit)
	r.Samples[name] = len(xs)
	return nil
}

// print writes one line per metric, the full report as a JSON line, and
// last the result line the benchmark contract defines.
func (r *report) print(f *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	full, err := json.Marshal(r)
	if err == nil {
		fmt.Fprintf(f, "%s\n", full)
	}
	last, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintf(f, "%s\n", last)
}

func newEnvironment(w workload, seed int64, seconds int, trace bool) environment {
	env := environment{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: vcsCommit(),
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Store: "mem", Sync: "none", Shards: max(1, w.shards), Conns: clientConns(),
	}
	if w.durable {
		env.Store, env.Sync = "file", "always"
	}
	return env
}

// clientConns is the load generator's connection budget: one per CPU, at
// most two.
func clientConns() int { return min(2, runtime.NumCPU()) }
