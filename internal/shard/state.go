package shard

import (
	"errors"

	"repro/internal/engine"
)

// State is a deep, serializable snapshot of a sharded engine's mutable
// dataset state: the per-child engine states plus the coordinator's routing
// tables and id allocators. The owner table is not stored — it is derivable
// (each child state's live local ids, mapped through LocalToGlobal, locate
// every live global record), so recovery recomputes it instead of persisting
// a redundant copy that could drift.
type State struct {
	// Dim is the data dimensionality; NextGlobal/NextShard the coordinator's
	// id allocator and round-robin cursor; Batches the number of applied
	// update batches.
	Dim        int
	NextGlobal int
	NextShard  int
	Batches    uint64
	// LocalToGlobal is the per-shard append-only routing table: the global
	// id assigned to each local id, indexed by local id.
	LocalToGlobal [][]int
	// Children are the per-shard engine states, index-aligned with shards.
	Children []*engine.State
}

// ExportState captures the sharded engine's dataset state as one consistent
// cross-shard snapshot: the coordinator's update mutex is held throughout, so
// no batch can land between two children's exports. Queries are not blocked.
func (s *Engine) ExportState() *State {
	s.updMu.Lock()
	st := &State{
		Dim:        s.Dim(),
		NextGlobal: s.nextGlobal,
		NextShard:  s.nextShard,
		Children:   make([]*engine.State, len(s.shards)),
	}
	s.routeMu.RLock()
	st.LocalToGlobal = make([][]int, len(s.localToGlobal))
	for sh, l2g := range s.localToGlobal {
		st.LocalToGlobal[sh] = append([]int(nil), l2g...)
	}
	s.routeMu.RUnlock()
	for sh, ch := range s.shards {
		st.Children[sh] = ch.ExportState()
	}
	st.Batches = s.batches.Load()
	s.updMu.Unlock()
	return st
}

// Restore rebuilds a sharded engine from a captured state: every child is
// restored through engine.Restore (no per-shard index rebuild), and the owner
// table is recomputed from the children's live ids and the routing tables.
// cfg.Shards must match the state's shard count (a sharded dataset recovers
// at its original partitioning; resharding is a data migration, not a
// recovery).
func Restore(st *State, cfg Config) (*Engine, error) {
	if st == nil {
		return nil, errors.New("shard: nil state")
	}
	if len(st.Children) == 0 || len(st.LocalToGlobal) != len(st.Children) {
		return nil, errors.New("shard: misaligned state: children vs routing tables")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = len(st.Children)
	}
	if cfg.Shards != len(st.Children) {
		return nil, errors.New("shard: config shard count does not match state")
	}
	if st.NextShard < 0 || st.NextShard >= cfg.Shards {
		return nil, errors.New("shard: round-robin cursor out of range in state")
	}
	s := &Engine{
		cfg:           cfg,
		shards:        make([]*engine.Engine, cfg.Shards),
		owner:         make(map[int]place),
		localToGlobal: make([][]int, cfg.Shards),
		nextGlobal:    st.NextGlobal,
		nextShard:     st.NextShard,
	}
	s.batches.Store(st.Batches)
	for sh, cst := range st.Children {
		child, err := engine.Restore(cst, childConfig(cfg.Engine))
		if err != nil {
			return nil, err
		}
		if child.Dim() != st.Dim {
			return nil, errors.New("shard: child dimensionality does not match state")
		}
		l2g := append([]int(nil), st.LocalToGlobal[sh]...)
		if len(l2g) != cst.Dyn.NextID {
			return nil, errors.New("shard: routing table does not cover child id allocator")
		}
		for _, lid := range cst.Dyn.LiveIDs {
			g := l2g[lid]
			if g < 0 || g >= st.NextGlobal {
				return nil, errors.New("shard: global id outside allocator range in state")
			}
			if _, dup := s.owner[g]; dup {
				return nil, errors.New("shard: global id owned by two shards in state")
			}
			s.owner[g] = place{shard: sh, local: lid}
		}
		s.localToGlobal[sh] = l2g
		s.shards[sh] = child
	}
	// MaxK, like the shard count, defaults to the state's (engine.Restore
	// rejects a mismatch).
	s.cfg.Engine.MaxK = s.shards[0].MaxK()
	s.Front = engine.NewFront(s.cfg.Engine, st.Dim, (*frontBackend)(s))
	return s, nil
}
