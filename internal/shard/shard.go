// Package shard horizontally partitions one dataset across S child engines
// and answers UTK queries exactly by merging, the architectural step that
// lets the serving tier scale past one partition (and, later, one machine).
//
// Exactness rests on the candidate-superset property of the paper's
// filter-then-refine design: a record dominated by fewer than k others in
// the whole dataset is dominated by fewer than k others within its shard
// (its shard holds a subset of its dominators), so the global k-skyband is
// contained in the union of the per-shard k-skybands. That union is
// therefore a valid candidate superset for any query region — and because
// exclusion during region-aware filtering only ever relies on k genuine
// r-dominators, which are real records wherever they live, running the
// existing exact filter and refinement over the union reproduces the
// single-engine answer bit for bit. No per-shard refinement results are
// combined — cross-shard merging of UTK2 partitionings would require
// intersecting two arrangements and is not exact cell-by-cell — only
// candidate sets are merged, and one global refinement runs.
//
// Each child engine maintains its shard's skyband superset incrementally
// (per-shard caches of depth-derived candidate lists are reused as superset
// providers via engine.Candidates), so a dynamic insert or delete routes to
// the owning shard and recomputes only that shard's band. Queries are served
// by the same engine.Front the single-partition engine uses — validation,
// result cache with containment derive, single-flight, executor dispatch,
// the columnar filter (skyband.ScanGraphWith) and the RSA/JAA refinement —
// with this package supplying only the merged candidate index, the flight
// scope and the cache gate (see frontBackend). Invalidation runs the
// engine's batch probes against the union band.
//
// Consistency: updates are serialized and atomic per shard. A query
// concurrent with a multi-shard batch may observe a state where only a
// prefix of the batch's per-shard sub-batches has applied (each shard's view
// is still internally consistent, and single-shard batches — every Insert
// and Delete — remain fully atomic). Results computed across an update
// window are never cached, and single-flight sharing is keyed to the update
// seqlock observed at election, so a query issued after ApplyBatch returns
// never inherits a pre-batch in-flight answer (read-your-writes).
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rtree"
	"repro/internal/skyband"
)

// Errors returned by the sharded engine.
var (
	// ErrBadShards reports a non-positive shard count.
	ErrBadShards = errors.New("shard: shard count must be positive")
	// ErrTooFewRecords reports fewer initial records than shards.
	ErrTooFewRecords = errors.New("shard: every shard needs at least one initial record")
)

// errDrift reports a shard whose epoch moved while a merged candidate list
// was being collected for an older epoch vector.
var errDrift = errors.New("shard: epoch drifted mid-collection")

// Config tunes a sharded engine.
type Config struct {
	// Shards is the number of horizontal partitions (required, positive).
	Shards int
	// Engine carries the per-shard maintenance parameters (MaxK,
	// ShadowDepth) and the merge layer's serving parameters (CacheEntries,
	// Workers, QueryTimeout). Child engines never serve queries directly, so
	// their own result caches and worker pools are disabled; the merge layer
	// owns both.
	Engine engine.Config
}

// place locates a record: which shard holds it and under which local id.
type place struct {
	shard int
	local int
}

// Engine serves UTK queries over a horizontally partitioned dataset through
// the same request/update API as engine.Engine, with global record ids. It
// is safe for concurrent use.
type Engine struct {
	*engine.Front // query serving over the merged candidate index

	cfg Config

	shards []*engine.Engine

	// updMu serializes updates; it also guards nextGlobal/nextShard and the
	// owner table's writers.
	updMu      sync.Mutex
	owner      map[int]place
	nextGlobal int
	nextShard  int
	batches    atomic.Uint64

	// routeMu guards localToGlobal: per shard, the global id assigned to
	// each local id, indexed by local id. Entries are append-only — a local
	// id's global id never changes, and mappings outlive deletions — so a
	// query mapping a candidate snapshot from any epoch always resolves.
	routeMu       sync.RWMutex
	localToGlobal [][]int

	// seq is the update seqlock: odd while an ApplyBatch is mutating shards
	// or probing the cache. It scopes flights and gates caching (see
	// frontBackend).
	seq atomic.Uint64

	// merged caches the cross-shard candidate index for the current
	// per-shard epoch vector; queries CAS in a fresh one when any shard's
	// epoch moves. See mergedIndex.
	merged atomic.Pointer[mergedIndex]
}

// childConfig derives the child engines' configuration from the sharded
// one: children never serve Do, so result caching, backpressure and query
// deadlines belong to the merge layer, and each child keeps a one-worker
// pool for its own band maintenance.
func childConfig(cfg engine.Config) engine.Config {
	cfg.CacheEntries = 0
	cfg.Workers = 1
	cfg.MaxQueued = 0
	cfg.QueryTimeout = 0
	return cfg
}

// New builds a sharded engine over the records, assigning global ids 0..n-1
// and distributing records round-robin across cfg.Shards partitions (shard
// of initial record i is i mod S). The records are copied per shard by the
// underlying index build; the caller's slices are not retained.
func New(records [][]float64, cfg Config) (*Engine, error) {
	if cfg.Shards < 1 {
		return nil, ErrBadShards
	}
	if cfg.Engine.MaxK <= 0 {
		return nil, core.ErrBadK
	}
	if len(records) < cfg.Shards {
		return nil, fmt.Errorf("%w: %d records across %d shards", ErrTooFewRecords, len(records), cfg.Shards)
	}
	s := &Engine{
		cfg:           cfg,
		shards:        make([]*engine.Engine, cfg.Shards),
		owner:         make(map[int]place, len(records)),
		localToGlobal: make([][]int, cfg.Shards),
		nextGlobal:    len(records),
		nextShard:     len(records) % cfg.Shards,
	}
	parts := make([][][]float64, cfg.Shards)
	for g, rec := range records {
		sh := g % cfg.Shards
		s.owner[g] = place{shard: sh, local: len(parts[sh])}
		s.localToGlobal[sh] = append(s.localToGlobal[sh], g)
		parts[sh] = append(parts[sh], rec)
	}
	for sh, part := range parts {
		tree, err := rtree.BulkLoad(part, rtree.DefaultFanout)
		if err != nil {
			return nil, err
		}
		child, err := engine.New(tree, part, childConfig(cfg.Engine))
		if err != nil {
			return nil, err
		}
		s.shards[sh] = child
	}
	s.Front = engine.NewFront(cfg.Engine, s.shards[0].Dim(), (*frontBackend)(s))
	return s, nil
}

// Shards returns the number of partitions.
func (s *Engine) Shards() int { return len(s.shards) }

// Epoch returns the sum of the per-shard index versions — a version counter
// for the sharded dataset as a whole, advancing whenever any shard's
// candidate superset changes.
func (s *Engine) Epoch() uint64 {
	var sum uint64
	for _, ch := range s.shards {
		sum += ch.Epoch()
	}
	return sum
}

// Owner reports which shard currently holds the live record with the given
// global id.
func (s *Engine) Owner(id int) (shard int, ok bool) {
	s.updMu.Lock()
	defer s.updMu.Unlock()
	p, ok := s.owner[id]
	return p.shard, ok
}

// Insert adds a record, returning its assigned global id.
func (s *Engine) Insert(rec []float64) (int, error) {
	res, err := s.ApplyBatch([]engine.UpdateOp{{Kind: engine.UpdateInsert, Record: rec}})
	if err != nil {
		return 0, err
	}
	return res.IDs[0], nil
}

// Delete removes the record with the given global id.
func (s *Engine) Delete(id int) error {
	_, err := s.ApplyBatch([]engine.UpdateOp{{Kind: engine.UpdateDelete, ID: id}})
	return err
}

// opPlan is the routing decision for one batch op, fixed before any shard is
// touched.
type opPlan struct {
	shard  int
	global int
}

// ApplyBatch validates the whole batch up front (a malformed batch is a full
// no-op), routes each op to its owning shard — inserts round-robin, deletes
// by the global id's owner, including ids the same batch inserts — and
// applies one atomic sub-batch per shard. Per-op global ids are returned
// index-aligned with ops. See the package comment for the cross-shard
// consistency guarantee.
func (s *Engine) ApplyBatch(ops []engine.UpdateOp) (*engine.UpdateResult, error) {
	if err := engine.ValidateOps(ops, s.Dim()); err != nil {
		return nil, err
	}

	s.updMu.Lock()
	defer s.updMu.Unlock()

	// Plan: assign global ids and shards for inserts, resolve owners for
	// deletes. Child local ids are assigned sequentially from NextID, so the
	// local id of every in-batch insert is known before applying — which is
	// what lets a delete of an id inserted earlier in the same batch land in
	// the right shard's sub-batch with the right local id.
	nextLocal := make([]int, len(s.shards))
	for sh, ch := range s.shards {
		nextLocal[sh] = ch.NextID()
	}
	plan := make([]opPlan, len(ops))
	subOps := make([][]engine.UpdateOp, len(s.shards))
	inserted := map[int]place{}
	deleted := map[int]bool{}
	nextGlobal, nextShard := s.nextGlobal, s.nextShard
	for i, op := range ops {
		if op.Kind == engine.UpdateInsert {
			sh := nextShard
			nextShard = (nextShard + 1) % len(s.shards)
			g := nextGlobal
			nextGlobal++
			inserted[g] = place{shard: sh, local: nextLocal[sh]}
			nextLocal[sh]++
			plan[i] = opPlan{shard: sh, global: g}
			subOps[sh] = append(subOps[sh], engine.UpdateOp{Kind: engine.UpdateInsert, Record: op.Record})
			continue
		}
		g := op.ID
		p, ok := s.owner[g]
		if !ok {
			p, ok = inserted[g]
		}
		if !ok || deleted[g] {
			return nil, engine.ErrUnknownRecord
		}
		deleted[g] = true
		plan[i] = opPlan{shard: p.shard, global: g}
		subOps[p.shard] = append(subOps[p.shard], engine.UpdateOp{Kind: engine.UpdateDelete, ID: p.local})
	}

	// Probe prep, before anything applies: record vectors of net deletes
	// that leave their shard's starting band (see engine's affectsTest).
	var delRecs [][]float64
	probing := s.cfg.Engine.CacheEntries > 0
	if probing {
		startBand := make([]map[int]bool, len(s.shards))
		for i, op := range ops {
			if op.Kind != engine.UpdateDelete {
				continue
			}
			g := plan[i].global
			if _, inBatch := inserted[g]; inBatch {
				continue // transient: in neither boundary state
			}
			sh := plan[i].shard
			if startBand[sh] == nil {
				ids, _, _, err := s.shards[sh].Candidates(s.cfg.Engine.MaxK)
				if err != nil {
					return nil, err
				}
				startBand[sh] = make(map[int]bool, len(ids))
				for _, lid := range ids {
					startBand[sh][lid] = true
				}
			}
			local := s.owner[g].local
			if !startBand[sh][local] {
				// Outside its shard's starting band means at least MaxK
				// dominators pre-batch: the record was in no top-k set.
				continue
			}
			rec, ok := s.shards[sh].Record(local)
			if !ok {
				return nil, engine.ErrUnknownRecord // unreachable after validation
			}
			delRecs = append(delRecs, rec)
		}
	}

	// Install insert routing BEFORE touching any shard: the instant a child
	// publishes its new index, a concurrent query may map the fresh local
	// ids through localToGlobal, so the table must already cover them.
	// Entries for ids a child has not published yet are unreadable (queries
	// only map local ids appearing in a published candidate list), so the
	// early install is invisible until the child applies.
	s.routeMu.Lock()
	for i, op := range ops {
		if op.Kind == engine.UpdateInsert {
			g := plan[i].global
			p := inserted[g]
			if len(s.localToGlobal[p.shard]) != p.local {
				s.routeMu.Unlock()
				return nil, fmt.Errorf("shard %d: local id drift: predicted %d, have %d", p.shard, p.local, len(s.localToGlobal[p.shard]))
			}
			s.localToGlobal[p.shard] = append(s.localToGlobal[p.shard], g)
			s.owner[g] = p
		}
	}
	s.routeMu.Unlock()

	// Apply, one atomic sub-batch per shard. The seqlock goes odd here and
	// even again only after invalidation probes finish, so any query
	// overlapping the window is served but never cached.
	preEpoch := s.Epoch()
	s.seq.Add(1)
	defer s.seq.Add(1)
	for sh, sub := range subOps {
		if len(sub) == 0 {
			continue
		}
		if _, err := s.shards[sh].ApplyBatch(sub); err != nil {
			// Unreachable after validation (the op set was pre-validated and
			// updates are serialized); surfaced rather than swallowed because
			// earlier shards' sub-batches have already applied.
			return nil, fmt.Errorf("shard %d: sub-batch failed after partial application: %w", sh, err)
		}
	}

	for g := range deleted {
		delete(s.owner, g)
	}
	s.nextGlobal, s.nextShard = nextGlobal, nextShard

	// Invalidate against the post-batch union band: the per-shard MaxK
	// candidate lists hold every member of the global MaxK-skyband, so the
	// engine's probe soundness argument carries over with global ids.
	postEpoch := s.Epoch()
	if probing && postEpoch != preEpoch {
		ids, recs, _, err := s.union(s.cfg.Engine.MaxK, nil)
		if err != nil {
			return nil, err // unreachable: MaxK is always a valid depth
		}
		insertedSet := make(map[int]bool, len(inserted))
		for g := range inserted {
			insertedSet[g] = true
		}
		s.Invalidate(ids, recs, insertedSet, deleted, delRecs)
	}

	ids := make([]int, len(ops))
	for i := range ops {
		ids[i] = plan[i].global
	}
	live, superset, shadow := 0, 0, 0
	for _, ch := range s.shards {
		st := ch.Stats()
		live += st.Live
		superset += st.SupersetSize
		shadow += st.ShadowSize
	}
	s.batches.Add(1)
	return &engine.UpdateResult{
		IDs:          ids,
		Epoch:        postEpoch,
		Live:         live,
		SupersetSize: superset,
		ShadowSize:   shadow,
	}, nil
}

// ApplyBatchPipelined satisfies the two-stage update interface the durable
// registry pipelines WAL appends against. The sharded engine's invalidation
// window is bridged by its seqlock rather than an epoch publish, so there is
// no stage to defer: the batch applies in full here and the returned commit
// is a no-op.
func (s *Engine) ApplyBatchPipelined(ops []engine.UpdateOp) (*engine.UpdateResult, func(), error) {
	res, err := s.ApplyBatch(ops)
	if err != nil {
		return nil, nil, err
	}
	return res, func() {}, nil
}

// mergedIndex is one epoch-vector view of the cross-shard candidate lists.
// Collecting and reducing the union of per-shard candidates is done once per
// (depth, epoch vector) and shared by every subsequent warm query — the
// merge-layer analogue of the engine's per-epoch index — so the steady-state
// query path filters a candidate list of exactly the single-engine size
// instead of re-unioning S shard bands per query. The reduction is exact:
// the union of per-shard k-skybands contains the global k-skyband, and a
// union record with at least k dominators in the full dataset also has at
// least k dominators inside the union (its dominators within the global
// k-skyband are all union members), so the classic k-skyband of the union
// IS the global k-skyband.
type mergedIndex struct {
	epochs   []uint64
	epochSum uint64
	mu       sync.Mutex
	subs     map[int]*engine.SubIndex
}

// childEpochs snapshots every shard's current index version.
func (s *Engine) childEpochs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, ch := range s.shards {
		out[i] = ch.Epoch()
	}
	return out
}

// currentMerged returns a merged index whose epoch vector matched the
// shards when observed, installing a fresh one if any shard has moved.
func (s *Engine) currentMerged() *mergedIndex {
	for {
		mi := s.merged.Load()
		if mi != nil {
			stale := false
			for sh, ch := range s.shards {
				if ch.Epoch() != mi.epochs[sh] {
					stale = true
					break
				}
			}
			if !stale {
				return mi
			}
		}
		fresh := &mergedIndex{epochs: s.childEpochs(), subs: map[int]*engine.SubIndex{}}
		for _, ep := range fresh.epochs {
			fresh.epochSum += ep
		}
		if s.merged.CompareAndSwap(mi, fresh) {
			return fresh
		}
	}
}

// childCandidates is one shard's candidate snapshot, as collected by the
// per-child fan-out.
type childCandidates struct {
	ids   []int
	recs  [][]float64
	epoch uint64
	err   error
}

// collectCandidates gathers every child's depth-k candidate list. With more
// than one shard the collection fans out on the executor — the per-shard
// background workers the merge layer runs cold collections on — so S cold
// per-shard derivations overlap instead of running back to back.
func (s *Engine) collectCandidates(k int) []childCandidates {
	out := make([]childCandidates, len(s.shards))
	if len(s.shards) == 1 {
		ids, recs, ep, err := s.shards[0].Candidates(k)
		out[0] = childCandidates{ids: ids, recs: recs, epoch: ep, err: err}
		return out
	}
	grp := s.Pool().NewGroup(nil)
	for sh, ch := range s.shards {
		sh, ch := sh, ch
		grp.Go(func(context.Context) error {
			ids, recs, ep, err := ch.Candidates(k)
			out[sh] = childCandidates{ids: ids, recs: recs, epoch: ep, err: err}
			return nil
		})
	}
	_ = grp.Wait() // per-child errors are carried in the snapshots
	return out
}

// union gathers every child's depth-k candidate list mapped to global ids,
// plus the sum of the child epochs it reflects. With want set, it fails with
// errDrift when a child's epoch differs from want's entry for that shard.
func (s *Engine) union(k int, want []uint64) ([]int, [][]float64, uint64, error) {
	collected := s.collectCandidates(k)
	var ids []int
	var recs [][]float64
	var sum uint64
	s.routeMu.RLock()
	defer s.routeMu.RUnlock()
	for sh := range s.shards {
		c := &collected[sh]
		if c.err != nil {
			return nil, nil, 0, c.err
		}
		if want != nil && c.epoch != want[sh] {
			return nil, nil, 0, errDrift
		}
		sum += c.epoch
		for _, lid := range c.ids {
			ids = append(ids, s.localToGlobal[sh][lid])
		}
		recs = append(recs, c.recs...)
	}
	return ids, recs, sum, nil
}

// subFor returns the merged candidate list for depth k, deriving and caching
// it on first use. It reports false when a shard's epoch drifted from the
// index's vector mid-collection — the caller refreshes and retries.
func (s *Engine) subFor(mi *mergedIndex, k int) (*engine.SubIndex, bool) {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	if sub, ok := mi.subs[k]; ok {
		return sub, true
	}
	gids, grecs, _, err := s.union(k, mi.epochs)
	if err != nil {
		return nil, false
	}
	keep := skyband.ScanKSkyband(grecs, k)
	ids := make([]int, len(keep))
	recs := make([][]float64, len(keep))
	for i, idx := range keep {
		ids[i] = gids[idx]
		recs[i] = grecs[idx]
	}
	sub := engine.NewSubIndex(recs, ids)
	mi.subs[k] = sub
	return sub, true
}

// candidates resolves the merged candidate list for depth k under the
// current epoch vector, plus the epoch sum it reflects. Resolution is retried
// a few times if updates land mid-collection (detected by per-shard epoch
// drift); under a persistent update storm the last collected raw union —
// internally consistent per shard, and still a candidate superset — is used
// uncached, and the seqlock keeps answers over it out of the result cache.
func (s *Engine) candidates(k int) (*engine.SubIndex, uint64, error) {
	for attempt := 0; attempt < 4; attempt++ {
		mi := s.currentMerged()
		if sub, ok := s.subFor(mi, k); ok {
			return sub, mi.epochSum, nil
		}
	}
	ids, recs, sum, err := s.union(k, nil)
	if err != nil {
		return nil, 0, err
	}
	return engine.NewSubIndex(recs, ids), sum, nil
}

// frontBackend is the sharded engine seen as its Front's backend.
//
// A view pins only the update seqlock, which advances by two across every
// applied batch: a query that starts after a batch acks elects under a fresh
// scope and cannot adopt a pre-batch leader's answer (read-your-writes
// across ApplyBatch). Waiters who did arrive before the update may still
// inherit the leader's pre-update answer — a consistent state they could
// equally have observed on their own.
//
// A result is cached only if the seqlock was even when pinned and is
// unchanged now: no batch applied, probed, or published anywhere inside the
// window, so the answer reflects the current state and cannot have missed an
// invalidation probe.
//
// Refinements are never superseded: the seqlock moves on every batch,
// band-changing or not, so aborting on it would discard work no update
// invalidated.
type frontBackend Engine

func (b *frontBackend) Pin() engine.View { return engine.View{Scope: b.seq.Load()} }

func (b *frontBackend) Candidates(_ engine.View, k int) (*engine.SubIndex, uint64, error) {
	return (*Engine)(b).candidates(k)
}

func (b *frontBackend) Superseded(engine.View) bool { return false }

func (b *frontBackend) Cacheable(v engine.View, _ *engine.Result) bool {
	return v.Scope%2 == 0 && b.seq.Load() == v.Scope
}

// Stats aggregates the merge layer's serving counters with the summed
// per-shard maintenance counters. Epoch, Live, SupersetSize, and ShadowSize
// are sums across shards; Coverage is the weakest per-shard guarantee.
func (s *Engine) Stats() engine.Stats {
	agg := s.Front.Stats()
	agg.Shards = len(s.shards)
	agg.UpdateBatches = s.batches.Load()
	for i, ch := range s.shards {
		st := ch.Stats()
		agg.Epoch += st.Epoch
		agg.Live += st.Live
		agg.SupersetSize += st.SupersetSize
		agg.ShadowSize += st.ShadowSize
		if i == 0 || st.Coverage < agg.Coverage {
			agg.Coverage = st.Coverage
		}
		agg.Inserts += st.Inserts
		agg.Deletes += st.Deletes
		agg.Promotions += st.Promotions
		agg.Demotions += st.Demotions
		agg.ShadowEvictions += st.ShadowEvictions
		agg.Rebuilds += st.Rebuilds
		agg.CoalescedOps += st.CoalescedOps
		agg.ProbeBatches += st.ProbeBatches
		agg.ProbesSaved += st.ProbesSaved
		agg.Exhaustions += st.Exhaustions
		agg.Repairs += st.Repairs
		agg.RepairSteps += st.RepairSteps
		agg.ShadowGrows += st.ShadowGrows
		agg.ShadowShrinks += st.ShadowShrinks
		agg.BandMaintenanceNS += st.BandMaintenanceNS
		agg.BatchApplyOps += st.BatchApplyOps
		agg.ParallelMaintenanceChunks += st.ParallelMaintenanceChunks
		// The deepest per-shard retention: how far beyond MaxK any shard has
		// had to grow to absorb its churn.
		if st.ShadowDepth > agg.ShadowDepth {
			agg.ShadowDepth = st.ShadowDepth
		}
	}
	return agg
}

// ShardStats returns each child engine's own counters, index-aligned with
// shard numbers.
func (s *Engine) ShardStats() []engine.Stats {
	out := make([]engine.Stats, len(s.shards))
	for i, ch := range s.shards {
		out[i] = ch.Stats()
	}
	return out
}
