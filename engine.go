package utk

import (
	"context"
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
)

// EngineConfig tunes a query-serving Engine.
type EngineConfig struct {
	// MaxK is the largest top-k depth the engine serves (required, positive).
	// The engine's candidate superset is maintained at this depth; queries
	// with K ≤ MaxK reuse it instead of refiltering the whole dataset.
	MaxK int
	// ShadowDepth is how many dominance levels beyond MaxK the engine
	// retains as a deletion-repair shadow band; values below 1 default to
	// MaxK. Deeper shadows survive more skyline-area deletions between
	// recompute fallbacks at the cost of a larger resident member set.
	ShadowDepth int
	// CacheEntries bounds the result cache (cost-aware eviction with a
	// containment index; see EngineStats.DerivedHits/CostEvictions). Zero
	// selects DefaultEngineCacheEntries; negative values disable caching.
	// Eviction is heap-ordered (O(log capacity) per overflow), so large
	// capacities are safe; under sustained updates the cache additionally
	// refuses admission for query classes whose entries are invalidated
	// faster than they are hit (EngineStats.AdmissionSkips).
	CacheEntries int
	// Workers bounds the engine's executor: at most this many tasks —
	// queries, plus the refinement subtasks of queries that request
	// intra-query parallelism via Query.Workers — run at a time. Values
	// below 1 default to runtime.GOMAXPROCS(0).
	Workers int
	// MaxQueued bounds how many queries may wait for an executor slot before
	// new arrivals are rejected with ErrSaturated — the backpressure signal
	// serving tiers map to 429 responses. 0 means unbounded (no
	// backpressure); negative means no queue at all (reject whenever every
	// worker is busy); positive is the bound itself.
	MaxQueued int
	// QueryTimeout, when positive, is the deadline applied to queries whose
	// context carries none. It covers queueing, waiting on a deduplicated
	// identical query, and — through the cancellation hook threaded into
	// the refinement recursion — the computation itself: an expired query
	// aborts mid-refinement and frees its worker slot promptly.
	QueryTimeout time.Duration
}

// DefaultEngineCacheEntries is the result-cache capacity used when
// EngineConfig.CacheEntries is zero.
const DefaultEngineCacheEntries = 256

// Engine serves many UTK queries over one dataset, amortizing work across
// queries: the r-dominance filtering reuses a maintained candidate superset,
// identical queries are answered from a cost-aware result cache — with
// containment-based reuse deriving answers for regions nested in a cached
// UTK2 region by cell clipping, and single-flight deduplication of
// concurrent duplicates — and execution runs on a bounded
// worker pool with per-query deadlines threaded into the refinement
// recursion. It is safe for concurrent use.
//
// The engine's dataset is mutable: Insert, Delete, and ApplyBatch maintain
// the candidate superset incrementally (orders of magnitude cheaper than
// rebuilding the engine) and invalidate only the cached results the change
// can actually affect. The originating Dataset itself stays immutable —
// after the first update the engine's answers describe its own, updated
// record collection, with inserted records assigned fresh ids above the
// Dataset's range. Before any update, answers equal the direct
// Dataset.UTK1 and Dataset.UTK2 calls.
//
// An Engine is backed either by a single serving engine (NewEngine) or by a
// horizontally sharded one (NewShardedEngine); the query and update API is
// identical, and sharded answers are exactly the single-engine answers.
type Engine struct {
	ds *Dataset
	e  backend
}

// backend is the serving contract shared by the single-partition engine and
// the cross-shard merge engine.
type backend interface {
	Do(ctx context.Context, req engine.Request) (*engine.Result, error)
	DoBatch(ctx context.Context, reqs []engine.Request) ([]*engine.Result, []error)
	Insert(rec []float64) (int, error)
	Delete(id int) error
	ApplyBatch(ops []engine.UpdateOp) (*engine.UpdateResult, error)
	ApplyBatchPipelined(ops []engine.UpdateOp) (*engine.UpdateResult, func(), error)
	Stats() engine.Stats
	MaxK() int
	Shards() int
	Dim() int
}

// UpdateKind discriminates UpdateOp.
type UpdateKind int

const (
	// UpdateInsert adds Record to the engine's dataset.
	UpdateInsert UpdateKind = iota
	// UpdateDelete removes the record with id ID.
	UpdateDelete
)

// UpdateOp is one element of an Engine.ApplyBatch request.
type UpdateOp struct {
	Kind   UpdateKind
	Record []float64 // for UpdateInsert
	ID     int       // for UpdateDelete
}

// Errors returned by the update API.
var (
	// ErrUnknownRecord reports a delete of an id that is not live.
	ErrUnknownRecord = engine.ErrUnknownRecord
	// ErrBadUpdate reports a malformed update (wrong dimensionality,
	// non-finite attribute, or unknown operation kind).
	ErrBadUpdate = engine.ErrBadUpdate
)

// ErrSaturated reports that a query was refused because the engine's
// executor queue was at its EngineConfig.MaxQueued bound — the load-shedding
// signal the HTTP tier converts into 429 with Retry-After.
var ErrSaturated = engine.ErrSaturated

// EngineStats is a point-in-time snapshot of an Engine's counters: the
// serving counters of its query front (cache, single-flight, executor) plus
// the dataset and maintenance counters of its backend, summed across shards
// for sharded engines (Coverage is then the weakest shard's, ShadowDepth the
// deepest shard's). See engine.Stats for the field documentation.
type EngineStats = engine.Stats

// NewEngine builds a serving engine over the dataset.
func (ds *Dataset) NewEngine(cfg EngineConfig) (*Engine, error) {
	entries := cfg.CacheEntries
	switch {
	case entries == 0:
		entries = DefaultEngineCacheEntries
	case entries < 0:
		entries = 0
	}
	e, err := engine.New(ds.tree, ds.records, engine.Config{
		MaxK:         cfg.MaxK,
		ShadowDepth:  cfg.ShadowDepth,
		CacheEntries: entries,
		Workers:      cfg.Workers,
		MaxQueued:    cfg.MaxQueued,
		QueryTimeout: cfg.QueryTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{ds: ds, e: e}, nil
}

// NewShardedEngine builds a serving engine that horizontally partitions the
// dataset across the given number of shards (round-robin), each maintained
// by its own child engine, and answers queries exactly by merging: every
// shard's depth-k candidate superset is collected and the exact refinement
// runs once over the union. Record ids, query results, and the update API
// are identical to NewEngine — a record in the global candidate superset is
// necessarily in its shard's superset, so the merged answers match the
// single-engine answers exactly. Inserts and deletes route to the owning
// shard and recompute only that shard's band.
//
// cfg.Workers and cfg.CacheEntries configure the merge layer (per-shard
// result caches are disabled — the merged result is what gets cached);
// cfg.MaxK and cfg.ShadowDepth configure each shard's maintenance. The
// dataset must have at least one record per shard.
func (ds *Dataset) NewShardedEngine(shards int, cfg EngineConfig) (*Engine, error) {
	entries := cfg.CacheEntries
	switch {
	case entries == 0:
		entries = DefaultEngineCacheEntries
	case entries < 0:
		entries = 0
	}
	e, err := shard.New(ds.records, shard.Config{
		Shards: shards,
		Engine: engine.Config{
			MaxK:         cfg.MaxK,
			ShadowDepth:  cfg.ShadowDepth,
			CacheEntries: entries,
			Workers:      cfg.Workers,
			MaxQueued:    cfg.MaxQueued,
			QueryTimeout: cfg.QueryTimeout,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Engine{ds: ds, e: e}, nil
}

// MaxK returns the largest top-k depth the engine serves.
func (e *Engine) MaxK() int { return e.e.MaxK() }

// Dim returns the data dimensionality the engine serves.
func (e *Engine) Dim() int { return e.e.Dim() }

// Shards returns the number of horizontal partitions behind the engine
// (1 for engines built with NewEngine).
func (e *Engine) Shards() int { return e.e.Shards() }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// Insert adds a record to the engine's dataset (copied; same dimensionality
// as the dataset, finite attributes) and returns its assigned id. The
// candidate superset is repaired incrementally and only the cached results
// the new record can actually affect are invalidated.
func (e *Engine) Insert(record []float64) (int, error) {
	return e.e.Insert(record)
}

// Delete removes the record with the given id from the engine's dataset,
// under the same incremental-maintenance guarantees as Insert. Deleting an
// id that is not live returns ErrUnknownRecord.
func (e *Engine) Delete(id int) error {
	return e.e.Delete(id)
}

// UpdateResult reports the outcome of one ApplyBatch: the per-op ids plus
// the engine state as published by this batch — under concurrent updates,
// these numbers belong to this batch, not whichever applied last.
type UpdateResult struct {
	// IDs is index-aligned with the batch ops: assigned ids for inserts,
	// the deleted ids for deletes.
	IDs []int
	// Epoch is the index version current when this batch was published.
	Epoch uint64
	// Live, SupersetSize, and ShadowSize snapshot the dataset right after
	// this batch applied.
	Live         int
	SupersetSize int
	ShadowSize   int
}

// ApplyBatch applies a sequence of updates atomically with respect to
// queries: every concurrent query observes either the pre-batch or the
// post-batch dataset, never an intermediate state. A validation error
// (ErrBadUpdate, ErrUnknownRecord) leaves the engine unchanged.
func (e *Engine) ApplyBatch(ops []UpdateOp) (*UpdateResult, error) {
	converted := make([]engine.UpdateOp, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case UpdateInsert:
			converted[i] = engine.UpdateOp{Kind: engine.UpdateInsert, Record: op.Record}
		case UpdateDelete:
			converted[i] = engine.UpdateOp{Kind: engine.UpdateDelete, ID: op.ID}
		default:
			return nil, ErrBadUpdate
		}
	}
	res, err := e.e.ApplyBatch(converted)
	if err != nil {
		return nil, err
	}
	return &UpdateResult{
		IDs:          res.IDs,
		Epoch:        res.Epoch,
		Live:         res.Live,
		SupersetSize: res.SupersetSize,
		ShadowSize:   res.ShadowSize,
	}, nil
}

// ApplyBatchPipelined is the two-stage form of ApplyBatch for callers with
// their own per-batch work to overlap against cache invalidation — the
// durable registry runs its WAL append concurrently with the returned
// commit. When this call returns, the batch has applied and the result is
// final, but queries observe it only once commit has run; commit must be
// called exactly once per successful call (calling it again is a no-op).
// Single-partition engines defer invalidation probing and the index publish
// to commit; sharded engines apply fully up front and return a no-op commit.
func (e *Engine) ApplyBatchPipelined(ops []UpdateOp) (*UpdateResult, func(), error) {
	converted := make([]engine.UpdateOp, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case UpdateInsert:
			converted[i] = engine.UpdateOp{Kind: engine.UpdateInsert, Record: op.Record}
		case UpdateDelete:
			converted[i] = engine.UpdateOp{Kind: engine.UpdateDelete, ID: op.ID}
		default:
			return nil, nil, ErrBadUpdate
		}
	}
	res, commit, err := e.e.ApplyBatchPipelined(converted)
	if err != nil {
		return nil, nil, err
	}
	return &UpdateResult{
		IDs:          res.IDs,
		Epoch:        res.Epoch,
		Live:         res.Live,
		SupersetSize: res.SupersetSize,
		ShadowSize:   res.ShadowSize,
	}, commit, nil
}

// UTK1 answers a UTK1 query through the engine. The query must use the
// paper's algorithms (AlgoAuto or AlgoRSA). Query.Workers > 1 requests
// intra-query parallel refinement, fanned out on the engine's own executor
// so one pool governs inter- and intra-query concurrency.
func (e *Engine) UTK1(ctx context.Context, q Query) (*UTK1Result, error) {
	res, err := e.do(ctx, engine.UTK1, q)
	if err != nil {
		return nil, err
	}
	return &UTK1Result{
		Records:  append([]int(nil), res.IDs...),
		Stats:    statsFromCore(&res.Stats),
		CacheHit: res.CacheHit,
		Derived:  res.Derived,
	}, nil
}

// UTK2 answers a UTK2 query through the engine, under the same constraints
// as UTK1.
func (e *Engine) UTK2(ctx context.Context, q Query) (*UTK2Result, error) {
	res, err := e.do(ctx, engine.UTK2, q)
	if err != nil {
		return nil, err
	}
	out := utk2ResultFromCells(res.Cells, statsFromCore(&res.Stats))
	out.CacheHit = res.CacheHit
	out.Derived = res.Derived
	return out, nil
}

// UTK1Batch answers many UTK1 queries concurrently (bounded by the engine's
// worker pool), returning one result or error per query, index-aligned.
func (e *Engine) UTK1Batch(ctx context.Context, qs []Query) ([]*UTK1Result, []error) {
	results := make([]*UTK1Result, len(qs))
	errs := e.batch(ctx, engine.UTK1, qs, func(i int, res *engine.Result) {
		results[i] = &UTK1Result{
			Records:  append([]int(nil), res.IDs...),
			Stats:    statsFromCore(&res.Stats),
			CacheHit: res.CacheHit,
			Derived:  res.Derived,
		}
	})
	return results, errs
}

// UTK2Batch answers many UTK2 queries concurrently, like UTK1Batch.
func (e *Engine) UTK2Batch(ctx context.Context, qs []Query) ([]*UTK2Result, []error) {
	results := make([]*UTK2Result, len(qs))
	errs := e.batch(ctx, engine.UTK2, qs, func(i int, res *engine.Result) {
		results[i] = utk2ResultFromCells(res.Cells, statsFromCore(&res.Stats))
		results[i].CacheHit = res.CacheHit
		results[i].Derived = res.Derived
	})
	return results, errs
}

func (e *Engine) batch(ctx context.Context, v engine.Variant, qs []Query, emit func(int, *engine.Result)) []error {
	reqs := make([]engine.Request, 0, len(qs))
	idx := make([]int, 0, len(qs)) // batch position -> original position
	errs := make([]error, len(qs))
	for i, q := range qs {
		req, err := e.request(v, q)
		if err != nil {
			errs[i] = err
			continue
		}
		reqs = append(reqs, req)
		idx = append(idx, i)
	}
	results, doErrs := e.e.DoBatch(ctx, reqs)
	for bi, i := range idx {
		if doErrs[bi] != nil {
			errs[i] = doErrs[bi]
			continue
		}
		emit(i, results[bi])
	}
	return errs
}

func (e *Engine) do(ctx context.Context, v engine.Variant, q Query) (*engine.Result, error) {
	req, err := e.request(v, q)
	if err != nil {
		return nil, err
	}
	return e.e.Do(ctx, req)
}

func (e *Engine) request(v engine.Variant, q Query) (engine.Request, error) {
	if q.Algorithm != AlgoAuto && q.Algorithm != AlgoRSA {
		return engine.Request{}, errors.New("utk: the engine serves the paper's RSA/JAA algorithms only")
	}
	if err := q.validateDim(e.e.Dim()); err != nil {
		return engine.Request{}, err
	}
	return engine.Request{
		Variant: v,
		K:       q.K,
		Region:  q.Region.r,
		Opts:    q.coreOptions(),
	}, nil
}
