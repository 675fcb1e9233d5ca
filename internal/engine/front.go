package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/skyband"
)

// errAborted marks a flight whose leader gave up (context expiry) before the
// computation finished; waiters react by electing a new leader.
var errAborted = errors.New("engine: in-flight computation aborted")

// Backend is what a Front needs from the data it serves: the single-partition
// Engine and the cross-shard merge engine each implement it, and everything
// else about serving a query is the Front's.
type Backend interface {
	// Pin observes the state one flight election runs against. Queries
	// pinned under different View.Scope values never share a computation, so
	// a backend advances the scope whenever a newly arriving query must not
	// adopt an older leader's answer (read-your-writes across updates).
	Pin() View
	// Candidates returns the candidate list for depth k under the pinned
	// view, plus the epoch an answer computed over it reports.
	Candidates(v View, k int) (*SubIndex, uint64, error)
	// Superseded reports whether a newer state has replaced the pinned view,
	// so a refinement running against it should abort and re-elect.
	Superseded(v View) bool
	// Cacheable reports whether res — computed against the pinned view, or
	// derived by clipping while it was pinned (res.Derived) — may enter the
	// result cache: torn or raced answers are served but never cached. The
	// Front calls it with its mutex held.
	Cacheable(v View, res *Result) bool
}

// View is one election's pin on a backend's state.
type View struct {
	// Scope keys single-flight sharing (see Backend.Pin).
	Scope uint64
	ix    *index // the single-partition engine's snapshot; nil for other backends
}

// flight is one in-progress computation that concurrent identical queries
// rendezvous on.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// Front serves UTK queries for a Backend: request validation, the default
// deadline, the canonical fingerprint, the result cache and its containment
// derive, single-flight election, dispatch on the bounded executor, the
// decomposition cost model, the filter plus refinement, and the serving
// counters. It is safe for concurrent use.
type Front struct {
	b       Backend
	maxK    int
	dim     int
	timeout time.Duration

	pool *exec.Pool // the executor: query dispatch + intra-query fan-out

	// split is the decomposition cost model: every parallel UTK2 query
	// calibrates it and consults it, so the piece count adapts to this
	// dataset's candidate density on this machine. Safe for concurrent use.
	split *core.SplitModel

	// mu guards the cache, the flight table and the counters below; the
	// single-partition Engine also keeps its probe-window state under it.
	mu            sync.Mutex
	cache         *ResultCache
	inflight      map[string]*flight
	queries       uint64
	hits          uint64
	misses        uint64
	shared        uint64
	derived       uint64
	evicted       uint64
	costEvicted   uint64
	invalidations uint64
	rejected      uint64
	saturated     uint64
	admSkips      uint64
	probeBatches  uint64
	probesSaved   uint64
	active        int
}

// NewFront builds the serving front for a backend of the given
// dimensionality from cfg's serving parameters (MaxK, CacheEntries, Workers,
// MaxQueued, QueryTimeout). Workers below 1 default to runtime.GOMAXPROCS(0).
func NewFront(cfg Config, dim int, b Backend) *Front {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	f := &Front{
		b:        b,
		maxK:     cfg.MaxK,
		dim:      dim,
		timeout:  cfg.QueryTimeout,
		pool:     exec.NewPool(cfg.Workers, cfg.MaxQueued),
		split:    &core.SplitModel{},
		inflight: make(map[string]*flight),
	}
	if cfg.CacheEntries > 0 {
		f.cache = NewResultCache(cfg.CacheEntries)
	}
	return f
}

// MaxK returns the largest supported top-k depth.
func (f *Front) MaxK() int { return f.maxK }

// Dim returns the data dimensionality.
func (f *Front) Dim() int { return f.dim }

// Pool returns the executor queries run on; backends fan their own
// query-time work (the merge layer's per-child collection) out on it too.
func (f *Front) Pool() *exec.Pool { return f.pool }

// ValidateOps checks an update batch's shape before anything applies:
// every op is an insert or a delete, and inserts carry dim finite attributes.
func ValidateOps(ops []UpdateOp, dim int) error {
	for _, op := range ops {
		if op.Kind == UpdateDelete {
			continue
		}
		if op.Kind != UpdateInsert || len(op.Record) != dim {
			return ErrBadUpdate
		}
		for _, v := range op.Record {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return ErrBadUpdate
			}
		}
	}
	return nil
}

func (f *Front) validate(req Request) error {
	if req.K <= 0 {
		return core.ErrBadK
	}
	if req.K > f.maxK {
		return ErrKTooLarge
	}
	if req.Region == nil {
		return ErrNilRegion
	}
	if req.Region.Dim() != f.dim-1 {
		return core.ErrDimMismatch
	}
	return nil
}

// Do answers one request, consulting the cache, deduplicating against
// identical in-flight queries, and otherwise computing on a pooled worker.
func (f *Front) Do(ctx context.Context, req Request) (*Result, error) {
	if err := f.validate(req); err != nil {
		return nil, err
	}
	if f.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, f.timeout)
			defer cancel()
		}
	}
	key := fingerprint(req.Variant, req.K, req.Region, req.Opts)

	// A leader whose view is superseded mid-refinement abandons its flight
	// and re-enters the election below, so identical queries against the
	// fresh state coalesce onto one new computation. The retry budget guards
	// the no-deadline case against update storms: once exhausted, the
	// refinement runs to completion on whatever view it has.
	supersedeRetries := 3
	derivedTried := false
	for {
		// Election: answer from the cache, join an identical in-flight
		// computation, or become the leader for the pinned view. Flights are
		// scoped to the view so late arrivals never coalesce onto a
		// computation over superseded state; the cache key is scope-free
		// because precise invalidation keeps surviving entries exact across
		// updates. One pin serves both the flight key and the computation,
		// so a flight is always keyed to the state its leader computes
		// against.
		var fl *flight
		var flKey string
		var v View
		for fl == nil {
			v = f.b.Pin()
			flKey = flightKey(v.Scope, key)
			f.mu.Lock()
			if f.cache != nil {
				if res, ok := f.cache.Get(key); ok {
					f.hits++
					f.queries++
					f.mu.Unlock()
					hit := *res
					hit.CacheHit = true
					return &hit, nil
				}
				// Derived-answer fast path, before pool dispatch: an exact
				// miss whose region sits inside a cached UTK2 region is
				// answered by cell clipping — no worker slot, no flight, no
				// RSA/JAA work. The source was resident under the mutex, so
				// the answer is at worst a consistent pre-update state (the
				// same guarantee exact hits and flight waiters get).
				if !derivedTried {
					if src, srcKey, ok := f.cache.FindContaining(req); ok {
						f.mu.Unlock()
						derivedTried = true
						if res := DeriveClipped(req, src); res != nil {
							f.mu.Lock()
							f.derived++
							f.queries++
							// Cache the derived entry only if the source is
							// still the resident entry (pointer identity) and
							// the backend's gate passes: a surviving source's
							// probe certificate covers every region it
							// contains, so the derived answer is exact for the
							// current dataset.
							if cur, ok := f.cache.Peek(srcKey); ok && cur == src && f.b.Cacheable(v, res) {
								f.admitLocked(key, req, res)
							}
							f.mu.Unlock()
							hit := *res
							hit.CacheHit = true
							return &hit, nil
						}
						continue // defensive: derivation failed, compute instead
					}
				}
			}
			if other, ok := f.inflight[flKey]; ok {
				f.mu.Unlock()
				res, err := f.wait(ctx, other)
				if errors.Is(err, errAborted) {
					continue // the leader never finished; elect a new leader
				}
				return res, err
			}
			fl = &flight{done: make(chan struct{})}
			f.inflight[flKey] = fl
			f.mu.Unlock()
		}

		// Dispatch through the executor. Run rejects immediately at the
		// queue bound (saturation → backpressure) and revokes the task if
		// the context dies while it is still queued; once the computation
		// has started, the deadline is honored from inside via the Cancel
		// hook.
		var res *Result
		var err error
		runErr := f.pool.Run(ctx, func() {
			f.mu.Lock()
			f.active++
			f.mu.Unlock()
			res, err = f.compute(ctx, req, v, supersedeRetries > 0)
			f.mu.Lock()
			f.active--
			f.mu.Unlock()
		})
		if runErr != nil {
			f.finish(flKey, key, fl, nil, errAborted, req, v)
			f.mu.Lock()
			if errors.Is(runErr, exec.ErrSaturated) {
				f.saturated++
				runErr = ErrSaturated
			} else {
				f.rejected++
			}
			f.mu.Unlock()
			return nil, runErr
		}

		if errors.Is(err, core.ErrCanceled) {
			// Either way the waiters re-elect rather than inheriting this
			// leader's fate.
			f.finish(flKey, key, fl, nil, errAborted, req, v)
			if ctx.Err() == nil && f.b.Superseded(v) {
				supersedeRetries--
				continue // superseded: re-elect against the fresh state
			}
			err = ctx.Err()
			if err == nil {
				// Defensive: a cancel verdict with a live context and a
				// current view should not happen.
				err = core.ErrCanceled
			}
			f.mu.Lock()
			f.rejected++
			f.mu.Unlock()
			return nil, err
		}
		f.finish(flKey, key, fl, res, err, req, v)
		f.mu.Lock()
		f.misses++
		f.queries++
		f.mu.Unlock()
		return res, err
	}
}

// DoBatch answers a batch of requests concurrently (bounded by the worker
// pool), returning one result or error per request, index-aligned.
func (f *Front) DoBatch(ctx context.Context, reqs []Request) ([]*Result, []error) {
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			results[i], errs[i] = f.Do(ctx, req)
		}(i, req)
	}
	wg.Wait()
	return results, errs
}

// compute is the warm query path: rebuild only the region-specific
// r-dominance graph, filtering the backend's depth-k candidate list with the
// columnar sort-and-sweep instead of the whole dataset, then refine. When
// abortOnSupersede is set, the refinement is additionally canceled as soon
// as the view is superseded (Do then retries on the fresh state).
func (f *Front) compute(ctx context.Context, req Request, v View, abortOnSupersede bool) (*Result, error) {
	st := &core.Stats{}
	opts := req.Opts
	// Intra-query parallelism (Opts.Workers > 1) fans out on the front's own
	// executor, so inter-query and intra-query concurrency share one worker
	// budget; decomposed queries share the front's split cost model.
	opts.Pool = f.pool
	opts.Split = f.split
	done := ctx.Done()
	opts.Cancel = func() bool {
		select {
		case <-done:
			return true
		default:
		}
		return abortOnSupersede && f.b.Superseded(v)
	}
	start := time.Now()
	sub, epoch, err := f.b.Candidates(v, req.K)
	if err != nil {
		return nil, err
	}
	g := skyband.ScanGraphWith(sub.cols, sub.recs, sub.ids, req.Region, req.K)
	st.FilterDuration = time.Since(start)
	res := &Result{Epoch: epoch}
	switch req.Variant {
	case UTK1:
		ids, err := core.RSAFromGraph(g, req.Region, req.K, opts, st)
		if err != nil {
			return nil, err
		}
		sort.Ints(ids)
		res.IDs = ids
	case UTK2:
		cells, err := core.JAAFromGraph(g, req.Region, req.K, opts, st)
		if err != nil {
			return nil, err
		}
		res.Cells = cells
	default:
		return nil, errors.New("engine: unknown variant")
	}
	res.Stats = *st
	// The measured end-to-end compute time is the entry's recompute cost:
	// what the cache would lose by evicting it.
	res.Cost = st.FilterDuration + st.RefineDuration
	return res, nil
}

// finish publishes the flight outcome, caches successes the backend's gate
// admits, and wakes waiters. Results the gate refuses (computed against a
// superseded view, or raced against an update's invalidation window) are
// served to their waiters — they observed a consistent earlier state — but
// never cached.
func (f *Front) finish(flKey, key string, fl *flight, res *Result, err error, req Request, v View) {
	fl.res, fl.err = res, err
	f.mu.Lock()
	delete(f.inflight, flKey)
	if err == nil && f.cache != nil && f.b.Cacheable(v, res) {
		f.admitLocked(key, req, res)
	}
	f.mu.Unlock()
	close(fl.done)
}

// admitLocked offers a result to the cache and counts the outcome. The
// caller holds f.mu.
func (f *Front) admitLocked(key string, req Request, res *Result) {
	adm, ev, costly := f.cache.Add(key, req, res)
	if !adm {
		f.admSkips++
	}
	if ev {
		f.evicted++
	}
	if costly {
		f.costEvicted++
	}
}

// wait blocks until the deduplicated computation resolves or the caller's
// context expires.
func (f *Front) wait(ctx context.Context, fl *flight) (*Result, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		f.mu.Lock()
		f.rejected++
		f.mu.Unlock()
		return nil, ctx.Err()
	}
	if errors.Is(fl.err, errAborted) {
		// Not an outcome: the caller re-elects a leader and will be counted
		// by whatever path finally serves it.
		return nil, fl.err
	}
	f.mu.Lock()
	f.shared++
	f.queries++
	f.mu.Unlock()
	return fl.res, fl.err
}

// flightKey scopes a cache fingerprint to a view's scope.
func flightKey(scope uint64, key string) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], scope)
	return string(b[:]) + key
}

// Invalidate is the one-shot form of the batch invalidation protocol, for
// backends whose Cacheable gate keeps every result finishing during the call
// out of the cache (the merge engine's odd seqlock): it classifies the
// batch's net deltas against the post-batch band (ids, recs — see
// batchTests), probes a snapshot of the resident entries, and evicts those
// the batch may have changed.
func (f *Front) Invalidate(ids []int, recs [][]float64, inserted, deleted map[int]bool, delRecs [][]float64) {
	if f.cache == nil {
		return
	}
	tests := batchTests(ids, recs, inserted, deleted, delRecs)
	f.mu.Lock()
	entries := f.cache.Snapshot()
	f.mu.Unlock()
	affected, groups := runProbes(entries, tests)
	f.mu.Lock()
	f.evictLocked(affected, groups, len(entries), len(tests))
	f.mu.Unlock()
}

// evictLocked applies one batch's probe verdicts to the cache and counts the
// pass. The caller holds f.mu.
func (f *Front) evictLocked(affected []string, groups, entries, tests int) {
	if groups > 0 {
		f.probeBatches++
		f.probesSaved += uint64(entries-groups) * uint64(tests)
	}
	if len(affected) > 0 {
		// InvalidateKeys (not EvictKeys) so the admission policy learns which
		// classes this update stream keeps killing.
		f.invalidations += uint64(f.cache.InvalidateKeys(affected))
	}
}

// Stats returns the front's serving counters and configuration echo; the
// backends overlay their dataset and maintenance counters.
func (f *Front) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.statsLocked()
}

func (f *Front) statsLocked() Stats {
	st := Stats{
		Queries:        f.queries,
		Hits:           f.hits,
		Misses:         f.misses,
		Shared:         f.shared,
		DerivedHits:    f.derived,
		Evictions:      f.evicted,
		CostEvictions:  f.costEvicted,
		Invalidations:  f.invalidations,
		Rejected:       f.rejected,
		Saturated:      f.saturated,
		AdmissionSkips: f.admSkips,
		ProbeBatches:   f.probeBatches,
		ProbesSaved:    f.probesSaved,
		InFlight:       f.active,
		Queued:         f.pool.Queued(),
		MaxK:           f.maxK,
		Workers:        f.pool.Workers(),
	}
	if f.cache != nil {
		st.CacheEntries = f.cache.Len()
	}
	return st
}
