package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/store"
)

// Fixed run parameters.
const (
	// setupReps is how many times set-up runs; setup_s is their median and
	// the last instance serves the timed window.
	setupReps = 3
	// gateSamples is how many answered queries the correctness gate re-sends
	// and recomputes directly after the timed window.
	gateSamples = 24
	// recordSeed fixes the initial records, the same for every workload
	// seed. The shape of the top-k band differs from one record set to the
	// next and moved the tail latencies between seeds by more than any bound
	// could absorb; the workload seed varies the traffic instead: query
	// regions, depths and variants, inserted records and delete victims.
	recordSeed = 1
	// queryTimeout is utkserve's default per-query deadline. A query past it
	// is answered 503 and counts as failed. Without it one of the rare
	// regions whose UTK2 runs for tens of seconds (a box touching the corner
	// where one attribute's weight nears 1) stalls a closed-loop client for
	// the rest of the run.
	queryTimeout = 5 * time.Second
)

// warmBox is the region of the set-up queries, away from where the
// workloads' regions concentrate.
var warmBox = box{lo: []float64{0.245, 0.245, 0.245}, hi: []float64{0.255, 0.255, 0.255}}

// instance is one served copy of the workload's dataset.
type instance struct {
	st      store.Store
	traced  *tracedStore
	handler *tracedHandler
	srv     *http.Server
	served  chan error
	cl      *client
	dir     string
}

// startInstance builds the registry and dataset, serves it on a loopback
// listener and warms it: one UTK1 and one UTK2 query for every k, so the
// per-k candidate derivation is paid here rather than in the timed window.
func startInstance(w workload, records [][]float64, trace bool, scratch string) (*instance, error) {
	in := &instance{}
	if w.durable {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(scratch, "durable-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
		f, err := store.OpenFile(dir, store.FileConfig{Sync: store.SyncAlways})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		in.st = f
	} else {
		in.st = store.NewMem()
	}
	st := in.st
	if trace {
		in.traced = &tracedStore{Store: st}
		st = in.traced
	}
	reg := registry.NewWithStore(st, registry.SnapshotPolicy{})
	if _, err := reg.Create(datasetName, records, registry.Options{Shards: w.shards, MaxK: maxK, QueryTimeout: queryTimeout}); err != nil {
		in.release()
		return nil, err
	}
	var h http.Handler = server.New(reg, server.Config{})
	if trace {
		in.handler = newTracedHandler(h)
		h = in.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.release()
		return nil, err
	}
	in.srv = &http.Server{Handler: h}
	in.served = make(chan error, 1)
	go func() { in.served <- in.srv.Serve(ln) }()
	in.cl = newClient("http://"+ln.Addr().String(), clientConns(), trace)
	for k := 1; k <= maxK; k++ {
		for _, utk2 := range []bool{false, true} {
			q := &query{k: k, utk2: utk2, region: warmBox, body: encodeQuery(k, warmBox)}
			if r, err := in.cl.post(q.path(), q.body); err != nil || r.status != http.StatusOK {
				in.stop()
				in.release()
				return nil, fmt.Errorf("warm-up %s k=%d: status %d %v %s", q.path(), k, r.status, err, r.body)
			}
		}
	}
	return in, nil
}

// stop shuts the server down and waits for it to exit.
func (in *instance) stop() {
	if in.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = in.srv.Shutdown(ctx) // past the timeout, Close below ends the rest
	in.srv.Close()
	<-in.served
	in.cl.close()
	in.srv = nil
}

// release closes the store and removes its directory.
func (in *instance) release() {
	in.st.Close()
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// querySample and updateSample are the client's record of one operation.
// lat runs from the due time in open loops and from the send in closed
// ones; span always runs from the send. The send is when the request got a
// connection: in a closed loop, waiting for a connection another stream
// holds is an artifact of the shared client, not the server's latency. lag
// is how late the generator started an open-loop operation.
type querySample struct {
	i         int // index in the query list
	id        int64
	lat, span time.Duration
	lag       time.Duration
	meta      queryMeta
}

type queryMeta struct {
	CacheHit bool `json:"cache_hit"`
	Derived  bool `json:"derived"`
	Stats    struct {
		Candidates int     `json:"candidates"`
		FilterMS   float64 `json:"filter_ms"`
		RefineMS   float64 `json:"refine_ms"`
		Partitions int     `json:"partitions"`
	} `json:"stats"`
}

func (m queryMeta) served() string {
	switch {
	case m.Derived:
		return "derived"
	case m.CacheHit:
		return "hit"
	}
	return "computed"
}

// An update's lat always runs from its send: the writer keeps one update
// in flight, so a slow update delays the next send (counted in lag), not
// the next update's latency.
type updateSample struct {
	id  int64
	lat time.Duration
	lag time.Duration
	ops int
}

// runner runs the timed window and keeps the client's records.
type runner struct {
	w       workload
	cl      *client
	trace   bool
	queries *querySeq
	batches *batchSeq
	ledger  *ledger

	mu        sync.Mutex
	qs        []querySample
	us        []updateSample
	attempts  int
	failed    int
	firstFail string
}

// fail counts a failed or refused operation.
func (d *runner) fail(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attempts++
	if d.failed++; d.failed == 1 {
		d.firstFail = fmt.Sprintf(format, args...)
	}
}

// latency returns the operation's client-side latency: from the due time
// for an open-loop operation (so a stall also charges the operations queued
// behind it, waiting for a connection included), from the send for a
// closed-loop one.
func latency(due, sent, end time.Time) time.Duration {
	if due.IsZero() {
		return end.Sub(sent)
	}
	return end.Sub(due)
}

// openQuery sends query i of an open loop, due at the given time.
func (d *runner) openQuery(i int, due time.Time) { d.query(i, due) }

// sentQuery sends query i of a closed loop or of the writer's reads, timed
// from its send.
func (d *runner) sentQuery(i int, _ time.Time) { d.query(i, time.Time{}) }

func (d *runner) query(i int, due time.Time) {
	q := d.queries.at(i)
	start := time.Now()
	r, err := d.cl.post(q.path(), q.body)
	if err != nil || r.status != http.StatusOK {
		d.fail("%s: status %d %v %.200s", q.path(), r.status, err, r.body)
		return
	}
	s := querySample{i: i, id: r.id, lat: latency(due, r.sent, r.end), span: r.end.Sub(r.sent)}
	if !due.IsZero() {
		s.lag = start.Sub(due)
	}
	if d.trace {
		if err := json.Unmarshal(r.body, &s.meta); err != nil {
			d.fail("%s: decode: %v", q.path(), err)
			return
		}
	}
	d.mu.Lock()
	d.attempts++
	d.qs = append(d.qs, s)
	d.mu.Unlock()
}

func (d *runner) update(i int, due time.Time) {
	b, err := d.batches.at(i)
	if err != nil {
		d.fail("update %d: %v", i, err)
		return
	}
	start := time.Now()
	r, err := d.cl.post("/update/"+datasetName, b.body)
	if err != nil || r.status != http.StatusOK {
		d.fail("update %d: status %d %v %.200s", i, r.status, err, r.body)
		return
	}
	var resp struct {
		InsertedIDs []int `json:"inserted_ids"`
	}
	if err := json.Unmarshal(r.body, &resp); err != nil {
		d.fail("update %d: decode: %v", i, err)
		return
	}
	if err := d.ledger.apply(b, resp.InsertedIDs); err != nil {
		d.fail("update %d: %v", i, err)
		return
	}
	s := updateSample{id: r.id, lat: r.end.Sub(r.sent), ops: len(b.deletes) + len(b.inserts)}
	if !due.IsZero() {
		s.lag = start.Sub(due)
	}
	d.mu.Lock()
	d.attempts++
	d.us = append(d.us, s)
	d.mu.Unlock()
}

// window runs both streams for the given length and returns the elapsed
// time until the last operation completed.
func (d *runner) window(seconds int) time.Duration {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	var wg sync.WaitGroup
	if d.w.readsPerWrite == 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.w.queryClients > 0 {
				closedLoop(d.w.queryClients, deadline, d.sentQuery)
				return
			}
			for n := openLoop(start, deadline, d.w.queryRate, d.openQuery); n > 0; n-- {
				d.fail("query dropped at the in-flight bound")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// One writer, one update in flight: the server serializes a
		// dataset's updates anyway, and updates queued behind a slow one
		// would otherwise hold every connection and stall the reads.
		pacedLoop(start, deadline, d.w.writeRate, func(i int, due time.Time) {
			d.update(i, due)
			for j := 0; j < d.w.readsPerWrite; j++ {
				d.sentQuery(i*d.w.readsPerWrite+j, due)
			}
		})
	}()
	wg.Wait()
	return time.Since(start)
}

// execute runs one workload end to end: set-up, timed window, correctness
// gate and, when traced, the per-layer figures.
func execute(w workload, seed int64, seconds int, trace bool, scratch string) (*report, error) {
	rep := &report{
		Env:     newEnvironment(w, seed, seconds, trace),
		Metrics: map[string]metric{},
		Samples: map[string]int{},
	}
	records := dataset.Synthetic(dataset.IND, w.n, dims, recordSeed)

	var setups []float64
	var in *instance
	for r := 0; r < setupReps; r++ {
		if in != nil {
			in.stop()
			in.release()
			in = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = startInstance(w, records, trace, scratch); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		in.stop()
		in.release()
	}()
	records = nil // heap_mb counts the server's copy only
	runtime.GC()
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	before, err := fetchCounters(in.cl)
	if err != nil {
		return nil, err
	}
	rep.Env.Workers = before.Workers
	if in.traced != nil {
		in.traced.reset()
	}
	var sampler *execSampler
	if trace {
		sampler = startExecSampler(in.cl)
	}
	d := &runner{
		w: w, cl: in.cl, trace: trace,
		queries: newQuerySeq(seed+1, w.regions, w.utk2Every),
		batches: newBatchSeq(seed+2, w.n, w),
		ledger:  newLedger(w.n),
	}
	elapsed := d.window(seconds)
	if sampler != nil {
		sampler.finish()
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	after, err := fetchCounters(in.cl)
	if err != nil {
		return nil, err
	}

	// Correctness gate, outside the timed window.
	gateStart := time.Now()
	records = dataset.Synthetic(dataset.IND, w.n, dims, recordSeed)
	gate, err := runGate(d, in, records, seed, after.Live)
	if err != nil {
		return nil, err
	}
	reopenStart := time.Now()
	if w.durable {
		if err := checkReopen(in, d.ledger); err != nil {
			gate.wrong = append(gate.wrong, err.Error())
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: gate %.1fs, reopen %.1fs\n", reopenStart.Sub(gateStart).Seconds(), time.Since(reopenStart).Seconds())

	rep.Attempted = d.attempts + gate.attempted
	rep.Failed = d.failed + len(gate.wrong)
	rep.Wrong = gate.wrong
	rep.Correct = len(gate.wrong) == 0
	if d.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed operations, first: %s\n", d.failed, d.firstFail)
	}

	if !trace {
		if err := endToEnd(rep, d, setups, ms0, elapsed); err != nil {
			return nil, err
		}
		return rep, nil
	}
	l := layerInputs{d: d, in: in, records: records, before: before, after: after,
		ms0: ms0, ms1: ms1, sampler: sampler, oracle: gate.oracle, seconds: seconds}
	if err := perLayer(rep, l); err != nil {
		return nil, err
	}
	return rep, nil
}

// endToEnd fills the metrics a user of the service sees.
func endToEnd(rep *report, d *runner, setups []float64, ms0 runtime.MemStats, elapsed time.Duration) error {
	sort.Float64s(setups)
	rep.set("setup_s", setups[len(setups)/2], "s")
	ulat := make([]float64, len(d.us))
	ops := 0
	for i, s := range d.us {
		ulat[i] = ms(s.lat)
		ops += s.ops
	}
	qlat := make([]float64, len(d.qs))
	for i, s := range d.qs {
		qlat[i] = ms(s.lat)
	}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"query_p50_ms", qlat, 0.5}, {"query_p99_ms", qlat, 0.99},
		{"update_p50_ms", ulat, 0.5}, {"update_p99_ms", ulat, 0.99},
	} {
		if err := rep.setPct(p.name, p.xs, p.q, "ms"); err != nil {
			return err
		}
	}
	rep.set("query_per_s", float64(len(d.qs))/elapsed.Seconds(), "1/s")
	rep.set("update_ops_per_s", float64(ops)/elapsed.Seconds(), "1/s")
	rep.set("success_ratio", 1-ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	rep.set("heap_mb", float64(ms0.HeapAlloc)/(1<<20), "MB")
	return nil
}

// gateResult is the correctness gate's outcome.
type gateResult struct {
	attempted int
	wrong     []string
	oracle    *oracle
}

// runGate checks the served answers against direct computation on the live
// records: the writer's ledger must match the server's live count, and a
// seeded sample of the answered queries, re-sent now, must equal what
// utk.Dataset computes on the records the ledger says are live.
func runGate(d *runner, in *instance, initial [][]float64, seed int64, serverLive int) (*gateResult, error) {
	g := &gateResult{}
	if want := d.ledger.live(); serverLive != want {
		g.wrong = append(g.wrong, fmt.Sprintf("server reports %d live records, writer's ledger %d", serverLive, want))
	}
	recs, ids := d.ledger.liveRecords(initial)
	o, err := newOracle(recs, ids)
	if err != nil {
		return nil, err
	}
	g.oracle = o
	answered := make([]int, len(d.qs))
	for j, s := range d.qs {
		answered[j] = s.i
	}
	sort.Ints(answered)
	rng := rand.New(rand.NewSource(seed + 3))
	for j := 0; j < gateSamples && len(answered) > 0; j++ {
		q := d.queries.at(answered[rng.Intn(len(answered))])
		g.attempted++
		r, err := in.cl.post(q.path(), q.body)
		if err != nil || r.status != http.StatusOK {
			g.wrong = append(g.wrong, fmt.Sprintf("gate %s: status %d %v", q.path(), r.status, err))
			continue
		}
		if err := o.check(q, r.body); err != nil {
			g.wrong = append(g.wrong, err.Error())
		}
	}
	return g, nil
}

// checkReopen stops the server, reopens the WAL directory with
// registry.Open and confirms that every acknowledged batch is there and the
// recovered engine holds the ledger's live count.
func checkReopen(in *instance, l *ledger) error {
	in.stop()
	if err := in.st.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	f, err := store.OpenFile(in.dir, store.FileConfig{Sync: store.SyncAlways})
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	in.st = f
	reg, err := registry.Open(f, registry.SnapshotPolicy{})
	if err != nil {
		return fmt.Errorf("reopen registry: %w", err)
	}
	ent, err := reg.Get(datasetName)
	if err != nil {
		return err
	}
	if got, want := ent.Durability(true).LastSeq, uint64(len(l.acked)); got != want {
		return fmt.Errorf("reopened WAL holds %d batches, %d were acknowledged", got, want)
	}
	if got, want := ent.Engine.Stats().Live, l.live(); got != want {
		return fmt.Errorf("reopened engine holds %d live records, ledger %d", got, want)
	}
	return nil
}
