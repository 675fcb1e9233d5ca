package engine

import (
	"errors"

	"repro/internal/skyband"
)

// State is a deep, serializable snapshot of an engine's mutable dataset
// state: everything recovery needs to resume serving and applying updates
// with behavior identical to the original engine. Caches, in-flight queries,
// and query counters are deliberately excluded — they are performance state,
// recomputed from scratch by a restored engine.
type State struct {
	// Dim is the data dimensionality.
	Dim int
	// Epoch is the index version at capture; Batches the number of applied
	// update batches.
	Epoch   uint64
	Batches uint64
	// Dyn is the dynamic skyband state: live records, member set with exact
	// dominator counts, coverage, and the id allocator.
	Dyn *skyband.DynamicState
}

// ExportState captures the engine's dataset state. It serializes against
// updates (holding the update mutex while the dynamic structure is walked),
// so the returned state is a consistent post-batch snapshot; queries are not
// blocked. Record slices in the state are shared with the engine and must
// not be mutated.
func (e *Engine) ExportState() *State {
	e.updMu.Lock()
	st := &State{
		Dim: e.dim,
		// The reserved epoch, not the published one: with a pipelined batch
		// between begin and commit, the dynamic structure already holds the
		// post-batch state and the snapshot must carry that state's epoch.
		// The two coincide whenever no batch is in flight.
		Epoch: e.reservedEpoch,
		Dyn:   e.dyn.State(),
	}
	e.updMu.Unlock()
	e.mu.Lock()
	st.Batches = e.batches
	e.mu.Unlock()
	return st
}

// Restore rebuilds an engine from a captured state. No R-tree is needed:
// queries run over the maintained skyband superset (snapshotted into the
// index) and updates over the restored dynamic structure, so recovery costs
// O(live + members) instead of a full index build plus skyband recomputation.
// cfg.MaxK must match the depth the state was maintained at; cfg.ShadowDepth
// is taken from the state (the retention depth is part of the dataset state,
// not the serving configuration).
func Restore(st *State, cfg Config) (*Engine, error) {
	if st == nil || st.Dyn == nil {
		return nil, errors.New("engine: nil state")
	}
	if st.Dim <= 0 {
		return nil, errors.New("engine: invalid dimensionality in state")
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = st.Dyn.K
	}
	if cfg.MaxK != st.Dyn.K {
		return nil, errors.New("engine: config MaxK does not match state band depth")
	}
	// The caller's ShadowDepth is the adaptive base; the state's depth is the
	// current (possibly grown) value and becomes the effective configuration.
	base := cfg.ShadowDepth
	if base < 1 {
		base = cfg.MaxK
	}
	cfg.ShadowDepth = st.Dyn.ShadowDepth
	dyn, err := skyband.RestoreDynamic(st.Dyn)
	if err != nil {
		return nil, err
	}
	return assemble(cfg, st.Dim, dyn, base, st.Epoch, st.Batches), nil
}
