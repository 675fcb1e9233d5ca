package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	utk "repro"
	"repro/internal/store"
)

// The traced run measures layers from outside the program: it wraps the
// HTTP handler and the store the registry writes through, samples /stats,
// and replays the update batches on a fresh engine. Nothing here changes
// what the program does; the wrappers only add timing around its calls.

// handlerSpan is the server-side duration of one tagged request.
type handlerSpan struct {
	dur   time.Duration
	bytes int
}

// tracedHandler times every request the server handles and records it
// under the client's request id.
type tracedHandler struct {
	next http.Handler

	mu    sync.Mutex
	spans map[int64]handlerSpan
}

func newTracedHandler(next http.Handler) *tracedHandler {
	return &tracedHandler{next: next, spans: make(map[int64]handlerSpan)}
}

// countingWriter counts the response body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	span := handlerSpan{dur: time.Since(start), bytes: cw.n}
	h.mu.Lock()
	h.spans[id] = span
	h.mu.Unlock()
}

func (h *tracedHandler) span(id int64) (handlerSpan, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.spans[id]
	return s, ok
}

// tracedStore times the WAL appends and snapshot writes the registry makes
// through its store.
type tracedStore struct {
	store.Store

	mu        sync.Mutex
	appends   []float64 // µs, fsync included
	walBytes  int64
	walOps    int
	snapshots int
	snapMax   time.Duration
}

func (s *tracedStore) Append(name string, b *store.Batch) (int64, error) {
	start := time.Now()
	n, err := s.Store.Append(name, b)
	d := time.Since(start)
	s.mu.Lock()
	s.appends = append(s.appends, float64(d.Nanoseconds())/1e3)
	s.walBytes += n
	s.walOps += len(b.Ops)
	s.mu.Unlock()
	return n, err
}

func (s *tracedStore) WriteSnapshot(name string, snap *store.Snapshot) error {
	start := time.Now()
	err := s.Store.WriteSnapshot(name, snap)
	d := time.Since(start)
	s.mu.Lock()
	s.snapshots++
	if d > s.snapMax {
		s.snapMax = d
	}
	s.mu.Unlock()
	return err
}

// reset forgets what set-up wrote (the creation snapshot), so the figures
// cover the timed window only.
func (s *tracedStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appends, s.walBytes, s.walOps, s.snapshots, s.snapMax = nil, 0, 0, 0, 0
}

// engineCounters is the subset of /stats/{dataset} the traced run reads.
type engineCounters struct {
	Queries        float64 `json:"queries"`
	Hits           float64 `json:"hits"`
	Misses         float64 `json:"misses"`
	Shared         float64 `json:"shared"`
	DerivedHits    float64 `json:"derived_hits"`
	Evictions      float64 `json:"evictions"`
	Invalidations  float64 `json:"invalidations"`
	InFlight       float64 `json:"in_flight"`
	Queued         float64 `json:"queued"`
	Live           int     `json:"live"`
	UpdateBatches  float64 `json:"update_batches"`
	CoalescedOps   float64 `json:"coalesced_ops"`
	AdmissionSkips float64 `json:"admission_skips"`
	ProbesSaved    float64 `json:"probes_saved"`
	Exhaustions    float64 `json:"exhaustions"`
	RepairSteps    float64 `json:"repair_steps"`
	BandNS         float64 `json:"band_maintenance_ns"`
	BatchApplyOps  float64 `json:"batch_apply_ops"`
	ParallelChunks float64 `json:"parallel_maintenance_chunks"`
	Workers        int     `json:"workers"`
	Shards         int     `json:"shards"`
}

func fetchCounters(c *client) (engineCounters, error) {
	var st engineCounters
	body, err := c.get("/stats/" + datasetName)
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(body, &st)
	return st, err
}

// execSampler polls /stats during the timed window for the executor's
// instantaneous queue and in-flight gauges.
type execSampler struct {
	stop chan struct{}
	done chan struct{}

	queuedMax float64
	inflight  []float64
}

const execSampleEvery = 20 * time.Millisecond

func startExecSampler(c *client) *execSampler {
	s := &execSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(execSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			st, err := fetchCounters(c)
			if err != nil {
				continue // a missed sample only thins the gauge series
			}
			if st.Queued > s.queuedMax {
				s.queuedMax = st.Queued
			}
			s.inflight = append(s.inflight, st.InFlight)
		}
	}()
	return s
}

// finish stops the sampler and waits for it to exit.
func (s *execSampler) finish() {
	close(s.stop)
	<-s.done
}

// replayStages applies the batches, in the order the server acknowledged
// them, to a fresh engine over the initial records through the pipelined
// apply, timing the begin stage (the call) and commit apart. It stops at the
// time limit; the returned slices are in milliseconds.
func replayStages(records [][]float64, shards int, batches []*batch, limit time.Duration) (begin, commit []float64, err error) {
	ds, err := utk.NewDataset(records)
	if err != nil {
		return nil, nil, err
	}
	cfg := utk.EngineConfig{MaxK: maxK}
	var eng *utk.Engine
	if shards > 1 {
		eng, err = ds.NewShardedEngine(shards, cfg)
	} else {
		eng, err = ds.NewEngine(cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	stopAt := time.Now().Add(limit)
	for _, b := range batches {
		if time.Now().After(stopAt) {
			break
		}
		ops := make([]utk.UpdateOp, 0, len(b.deletes)+len(b.inserts))
		for _, id := range b.deletes {
			ops = append(ops, utk.UpdateOp{Kind: utk.UpdateDelete, ID: id})
		}
		for _, rec := range b.inserts {
			ops = append(ops, utk.UpdateOp{Kind: utk.UpdateInsert, Record: rec})
		}
		t0 := time.Now()
		_, done, err := eng.ApplyBatchPipelined(ops)
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		done()
		t2 := time.Now()
		begin = append(begin, ms(t1.Sub(t0)))
		commit = append(commit, ms(t2.Sub(t1)))
	}
	return begin, commit, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
