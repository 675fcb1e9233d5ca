package engine_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/shard"
)

// TestSplitModelCalibratesOnEveryBackend pins that parallel UTK2 queries
// calibrate the decomposition cost model however the serving engine was
// built — fresh, restored from a state capture, sharded, or sharded and
// restored — rather than leaving some of them on the fixed Workers·4 split.
func TestSplitModelCalibratesOnEveryBackend(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 2000, 3, 5)
	tree, err := rtree.BulkLoad(recs, rtree.DefaultFanout)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{MaxK: 5, Workers: 2}
	fresh, err := engine.New(tree, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := engine.Restore(fresh.ExportState(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.New(recs, shard.Config{Shards: 2, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	shardRestored, err := shard.Restore(sharded.ExportState(), shard.Config{Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}

	type backend interface {
		Do(context.Context, engine.Request) (*engine.Result, error)
		SplitModel() *core.SplitModel
	}
	backends := []struct {
		name string
		b    backend
	}{
		{"new", fresh},
		{"restored", restored},
		{"sharded", sharded},
		{"sharded-restored", shardRestored},
	}
	for _, c := range backends {
		t.Run(c.name, func(t *testing.T) {
			// Each decomposed query observes Workers·4 = 8 pieces; three
			// queries clear the model's calibration threshold. Distinct,
			// disjoint regions keep every query a computed miss.
			for i := 0; i < 3; i++ {
				lo := 0.1 + 0.1*float64(i)
				r, err := geom.NewBox([]float64{lo, lo}, []float64{lo + 0.06, lo + 0.06})
				if err != nil {
					t.Fatal(err)
				}
				req := engine.Request{Variant: engine.UTK2, K: 4, Region: r, Opts: core.Options{Workers: 2}}
				res, err := c.b.Do(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if res.CacheHit || res.Stats.EffectiveWorkers != 2 {
					t.Fatalf("query %d: cache hit %v, effective workers %d; want a decomposed computation", i, res.CacheHit, res.Stats.EffectiveWorkers)
				}
			}
			if !c.b.SplitModel().Calibrated() {
				t.Fatal("split model not calibrated after parallel UTK2 queries")
			}
		})
	}
}
