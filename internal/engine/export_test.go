package engine

import "repro/internal/core"

// SplitModel exposes the front's decomposition cost model to the external
// test package, which also drives the sharded backend.
func (f *Front) SplitModel() *core.SplitModel { return f.split }
