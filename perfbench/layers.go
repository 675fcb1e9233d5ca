package main

import (
	"runtime"
	"time"
)

// layerInputs is what the traced run collected for the per-layer figures.
type layerInputs struct {
	d             *runner
	in            *instance
	records       [][]float64
	before, after engineCounters
	ms0, ms1      runtime.MemStats
	sampler       *execSampler
	oracle        *oracle
	seconds       int
}

// maxReplay bounds the update replay, which runs after the timed window.
const maxReplay = 10 * time.Second

// pct is percentile for per-layer figures: a sample too short for the
// percentile reports 0.
func pct(xs []float64, p float64) float64 {
	v, _ := percentile(xs, p)
	return v
}

// perLayer fills the per-layer metrics. Figures that overlap in time (the
// begin stage, commit and WAL append all run inside one update) are
// reported each on its own and never summed.
func perLayer(rep *report, l layerInputs) error {
	d := l.d
	delta := func(f func(engineCounters) float64) float64 { return f(l.after) - f(l.before) }

	// Load generator: how late open-loop queries were started. (A paced
	// writer's lateness is back-pressure from its previous update instead.)
	var lag []float64
	for _, s := range d.qs {
		if s.lag > 0 {
			lag = append(lag, ms(s.lag))
		}
	}
	rep.set("loadgen.lag_p50_ms", pct(lag, 0.5), "ms")
	rep.set("loadgen.lag_p99_ms", pct(lag, 0.99), "ms")

	// Server and engine: handler spans joined to the client's records.
	var handler, transport, self, respBytes, qlat []float64
	byServed := map[string][]float64{}
	var filter, refine, cands, parts []float64
	for _, s := range d.qs {
		qlat = append(qlat, ms(s.lat))
		span, ok := l.in.handler.span(s.id)
		if !ok {
			continue
		}
		h := us(span.dur)
		handler = append(handler, h)
		transport = append(transport, us(s.span)-h)
		respBytes = append(respBytes, float64(span.bytes))
		served := s.meta.served()
		byServed[served] = append(byServed[served], h)
		if served == "computed" {
			st := s.meta.Stats
			self = append(self, h-1e3*(st.FilterMS+st.RefineMS))
			filter = append(filter, 1e3*st.FilterMS)
			refine = append(refine, 1e3*st.RefineMS)
			cands = append(cands, float64(st.Candidates))
			if st.Partitions > 0 {
				parts = append(parts, float64(st.Partitions))
			}
		}
	}
	rep.set("server.query_handler_p50_us", pct(handler, 0.5), "us")
	rep.set("server.query_handler_p99_us", pct(handler, 0.99), "us")
	rep.set("server.transport_p50_us", pct(transport, 0.5), "us")
	rep.set("server.self_p50_us", pct(self, 0.5), "us")
	rep.set("server.response_bytes_p50", pct(respBytes, 0.5), "bytes")

	var uhandler, ulat []float64
	var uhandlerNS float64
	for _, s := range d.us {
		ulat = append(ulat, ms(s.lat))
		if span, ok := l.in.handler.span(s.id); ok {
			uhandler = append(uhandler, ms(span.dur))
			uhandlerNS += float64(span.dur.Nanoseconds())
		}
	}
	rep.set("server.update_handler_p50_ms", pct(uhandler, 0.5), "ms")
	rep.set("server.update_handler_p99_ms", pct(uhandler, 0.99), "ms")

	nq := float64(len(d.qs))
	rep.set("engine.hit_ratio", ratio(float64(len(byServed["hit"])), nq), "ratio")
	rep.set("engine.derived_ratio", ratio(float64(len(byServed["derived"])), nq), "ratio")
	rep.set("engine.computed_ratio", ratio(float64(len(byServed["computed"])), nq), "ratio")
	rep.set("engine.hit_p50_us", pct(byServed["hit"], 0.5), "us")
	rep.set("engine.derived_p50_us", pct(byServed["derived"], 0.5), "us")
	rep.set("engine.computed_p50_us", pct(byServed["computed"], 0.5), "us")
	rep.set("engine.shared_queries", delta(func(c engineCounters) float64 { return c.Shared }), "count")
	batches := delta(func(c engineCounters) float64 { return c.UpdateBatches })
	rep.set("rescache.evictions_per_query", ratio(delta(func(c engineCounters) float64 { return c.Evictions }), delta(func(c engineCounters) float64 { return c.Queries })), "ratio")
	rep.set("rescache.invalidations_per_batch", ratio(delta(func(c engineCounters) float64 { return c.Invalidations }), batches), "ratio")
	rep.set("rescache.admission_skips", delta(func(c engineCounters) float64 { return c.AdmissionSkips }), "count")
	rep.set("engine.probes_saved_per_batch", ratio(delta(func(c engineCounters) float64 { return c.ProbesSaved }), batches), "ratio")

	// Filter and refine, from the stats of computed answers. A sharded
	// engine's filter is the shard layer's merge plus scan.
	filterLayer, otherLayer := "skyband", "shard"
	if l.after.Shards > 1 {
		filterLayer, otherLayer = "shard", "skyband"
	}
	rep.set(filterLayer+".filter_p50_us", pct(filter, 0.5), "us")
	rep.set(filterLayer+".candidates_p50", pct(cands, 0.5), "count")
	rep.set(otherLayer+".filter_p50_us", 0, "us")
	rep.set(otherLayer+".candidates_p50", 0, "count")
	skyFilter := filter
	if l.after.Shards > 1 {
		skyFilter = nil
	}
	rep.set("skyband.filter_p99_us", pct(skyFilter, 0.99), "us")
	rep.set("engine.shards", float64(l.after.Shards), "count")
	rep.set("core.refine_p50_us", pct(refine, 0.5), "us")
	rep.set("core.refine_p99_us", pct(refine, 0.99), "us")
	rep.set("core.partitions_p50", pct(parts, 0.5), "count")
	rep.set("core.lp_calls_per_query", ratio(float64(l.oracle.lpCalls), float64(l.oracle.calls)), "count")
	rep.set("core.drill_hit_ratio", ratio(float64(l.oracle.drillHits), float64(l.oracle.drills)), "ratio")

	rep.set("exec.queued_max", l.sampler.queuedMax, "count")
	rep.set("exec.inflight_mean", mean(l.sampler.inflight), "count")

	// Update stages, replayed on a fresh engine.
	begin, commit, err := replayStages(l.records, l.d.w.shards, d.ledger.acked, min(time.Duration(l.seconds)*time.Second, maxReplay))
	if err != nil {
		return err
	}
	rep.set("engine.begin_p50_ms", pct(begin, 0.5), "ms")
	rep.set("engine.begin_p99_ms", pct(begin, 0.99), "ms")
	rep.set("engine.commit_p50_ms", pct(commit, 0.5), "ms")
	rep.Samples["engine.begin_p99_ms"] = len(begin)
	bandNS := delta(func(c engineCounters) float64 { return c.BandNS })
	rep.set("skyband.band_ns_per_op", ratio(bandNS, delta(func(c engineCounters) float64 { return c.BatchApplyOps })), "ns")
	rep.set("skyband.band_share", ratio(bandNS, uhandlerNS), "ratio")
	rep.set("skyband.repair_steps", delta(func(c engineCounters) float64 { return c.RepairSteps }), "count")
	rep.set("skyband.exhaustions", delta(func(c engineCounters) float64 { return c.Exhaustions }), "count")
	rep.set("skyband.parallel_chunks", delta(func(c engineCounters) float64 { return c.ParallelChunks }), "count")
	rep.set("skyband.coalesced_ops", delta(func(c engineCounters) float64 { return c.CoalescedOps }), "count")

	ts := l.in.traced
	ts.mu.Lock()
	rep.set("store.append_p50_us", pct(ts.appends, 0.5), "us")
	rep.set("store.append_p99_us", pct(ts.appends, 0.99), "us")
	rep.set("store.wal_bytes_per_op", ratio(float64(ts.walBytes), float64(ts.walOps)), "bytes")
	rep.set("store.snapshots", float64(ts.snapshots), "count")
	rep.set("store.snapshot_max_ms", ms(ts.snapMax), "ms")
	ts.mu.Unlock()

	reqs := float64(len(d.qs) + len(d.us))
	rep.set("runtime.alloc_bytes_per_req", ratio(float64(l.ms1.TotalAlloc-l.ms0.TotalAlloc), reqs), "bytes")
	rep.set("runtime.gc_cycles", float64(l.ms1.NumGC-l.ms0.NumGC), "count")
	rep.set("runtime.gc_pause_total_ms", float64(l.ms1.PauseTotalNs-l.ms0.PauseTotalNs)/1e6, "ms")

	// Tracing overhead: this run's own client latency, to set beside the
	// untraced run's query_p50_ms and update_p50_ms.
	rep.set("traced.query_p50_ms", pct(qlat, 0.5), "ms")
	rep.set("traced.update_p50_ms", pct(ulat, 0.5), "ms")
	return nil
}
