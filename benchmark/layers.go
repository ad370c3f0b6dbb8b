package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"gpustream"
	"gpustream/internal/histogram"
	"gpustream/internal/pipeline"
	"gpustream/internal/quantile"
	"gpustream/internal/samplesort"
	"gpustream/internal/summary"
)

// newLayerTable returns the per-layer table with every metric present at 0:
// a layer that is not on the workload's path did no work.
func newLayerTable() map[string]float64 {
	t := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		t[m.Name] = 0
	}
	return t
}

// timeIt returns the median wall time of three calls of f.
func timeIt(f func()) time.Duration {
	var ds []float64
	for range 3 {
		t0 := time.Now()
		f()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

// layers builds the library workloads' per-layer table from the traced
// passes' spans, the program's own Stats, and replays of single layers over
// the same input. An error means a layer refused the benchmark's own input.
func (r *libRun) layers(n int, used float64, plain, traced []libPass, gcBefore runtime.MemStats) (map[string]float64, error) {
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)

	t := newLayerTable()
	fn := float64(n)
	passes := float64(len(traced))
	names := byName(r.rec.snapshot())
	overPlain := func(f func(libPass) float64) float64 { return median(each(plain, f)) }

	t["stream.gen_s"] = names.medianUs("stream.gen") / 1e6
	t["oracle.eps_used"] = used

	// The sort layer, from the span-recording sorter. share is sort time
	// inside the ingest calls over all ingest time.
	sort, ps, flush := names.get("samplesort.Sort"), names.get("pipeline.ProcessSlice"), names.get("pipeline.Flush")
	ingestTotal, ingestSelf := ps.Total+flush.Total, ps.Self+flush.Self
	t["samplesort.calls"] = float64(sort.Count) / passes
	t["samplesort.values"] = float64(traced[0].sortValues)
	t["samplesort.ns_per_value"] = float64(sort.Total) / passes / float64(traced[0].sortValues)
	t["samplesort.share"] = float64(ingestTotal-ingestSelf) / float64(ingestTotal)

	// The pipeline: what the ingest calls cost beyond the sort, and the
	// program's own stage clocks and exact operation counts.
	st := plain[0].stats
	t["pipeline.calls"] = float64(ps.Count) / passes
	t["pipeline.self_ns_per_value"] = float64(ingestSelf) / passes / fn
	t["pipeline.windows"] = float64(st.Windows)
	t["pipeline.merge_ops"] = float64(st.MergeOps)
	t["pipeline.compress_ops"] = float64(st.CompressOps)
	t["pipeline.stats_sort_ns_per_value"] = overPlain(func(p libPass) float64 { return float64(p.stats.Sort) }) / fn
	t["pipeline.stats_merge_ns_per_value"] = overPlain(func(p libPass) float64 { return float64(p.stats.Merge) }) / fn
	t["pipeline.stats_compress_ns_per_value"] = overPlain(func(p libPass) float64 { return float64(p.stats.Compress) }) / fn

	// Replays of single layers over the same input, cut into the
	// estimator's windows and sorted as the pipeline sorts them.
	window := plain[0].window
	sorted := append([]float32(nil), r.data...)
	srt := samplesort.NewSorter[float32]()
	for off := 0; off < n; off += window {
		srt.Sort(sorted[off:min(off+window, n)])
	}
	eachWindow := func(f func(win []float32)) {
		for off := 0; off < n; off += window {
			f(sorted[off:min(off+window, n)])
		}
	}
	var err error
	fill := timeIt(func() {
		core := pipeline.NewCore(window, func([]float32) {})
		err = errors.Join(err, feed(core, r.data), core.Close())
	})
	if err != nil {
		return nil, fmt.Errorf("window-fill replay: %w", err)
	}
	t["pipeline.fill_ns_per_value"] = float64(fill) / fn

	family := r.spec.Family.String()
	switch r.spec.Family {
	case gpustream.FamilyFrequency:
		var bins []histogram.Bin[float32]
		var nBins, nWindows int
		hist := timeIt(func() {
			nBins, nWindows = 0, 0
			eachWindow(func(win []float32) {
				bins = histogram.AppendSorted(bins[:0], win)
				nBins += len(bins)
				nWindows++
			})
		})
		t["histogram.ns_per_value"] = float64(hist) / fn
		t["histogram.bins_per_window"] = float64(nBins) / float64(nWindows)
		t["frequency.merge_compress_ns_per_value"] = t["pipeline.self_ns_per_value"] - t["pipeline.fill_ns_per_value"] - t["histogram.ns_per_value"]
		t["frequency.entries"] = float64(plain[0].entries)
		t["frequency.snapshot_us"] = names.medianUs(family + ".Snapshot")
		t["frequency.answer_us"] = names.medianUs(family + ".answer")
	case gpustream.FamilyQuantile:
		from := timeIt(func() {
			eachWindow(func(win []float32) { summary.FromSortedWindow(win, r.spec.Eps) })
		})
		t["summary.from_window_ns_per_value"] = float64(from) / fn
		t["summary.entries"] = float64(traced[0].bucketEntries)
		t["quantile.cascade_ns_per_value"] = t["pipeline.self_ns_per_value"] - t["pipeline.fill_ns_per_value"] - t["summary.from_window_ns_per_value"]
		t["quantile.entries"] = float64(plain[0].entries)
		t["quantile.buckets"] = float64(traced[0].buckets)
		t["quantile.snapshot_us"] = names.medianUs(family + ".Snapshot")
		t["quantile.answer_us"] = names.medianUs(family + ".answer")
	}

	// The wire format, and Merge over the snapshots of the two stream halves.
	state := plain[0].state
	t["wire.bytes"] = float64(len(state))
	t["wire.marshal_us"] = names.medianUs("wire.Marshal")
	t["wire.unmarshal_us"] = float64(timeIt(func() {
		_, uerr := gpustream.UnmarshalSnapshot[float32](state)
		err = errors.Join(err, uerr)
	})) / 1e3
	var halves [2]gpustream.Snapshot[float32]
	for i := range halves {
		est, nerr := r.newEstimator(nil)
		if nerr != nil {
			return nil, nerr
		}
		err = errors.Join(err, feed(est, r.data[i*n/2:(i+1)*n/2]))
		halves[i] = est.Snapshot()
		err = errors.Join(err, est.Close())
	}
	t["wire.merge_us"] = float64(timeIt(func() {
		_, merr := gpustream.Merge(halves[0], halves[1])
		err = errors.Join(err, merr)
	})) / 1e3
	if err != nil {
		return nil, fmt.Errorf("wire replay: %w", err)
	}
	if a, ok := halves[0].(*quantile.Snapshot[float32]); ok {
		b := halves[1].(*quantile.Snapshot[float32])
		tmp := &summary.Summary[float32]{}
		d := timeIt(func() { summary.MergeInto(tmp, a.Summary(), b.Summary()) })
		t["summary.merge_ns_per_entry"] = float64(d) / float64(a.Size()+b.Size())
	}

	// The runtime's view of the same passes. The GC figures cover the whole
	// measured phase, including the two collections per pass that the live
	// heap measurement forces.
	t["gpustream.new_from_spec_us"] = overPlain(func(p libPass) float64 { return float64(p.newSpec) }) / 1e3
	t["gpustream.alloc_b_per_value"] = float64(traced[0].allocB) / fn
	t["gpustream.allocs_per_kvalue"] = float64(traced[0].allocs) / fn * 1e3
	t["gpustream.gc_cycles"] = float64(gcAfter.NumGC - gcBefore.NumGC)
	t["gpustream.gc_pause_ms"] = float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6

	if r.w.zipf {
		staticNs := overPlain(func(p libPass) float64 { return float64(p.ingest) }) / fn
		if err := r.advisory(t, n, staticNs); err != nil {
			return nil, fmt.Errorf("advisory pass: %w", err)
		}
	}
	return t, nil
}

// feed ingests data in libChunk-value calls, as the measured passes do.
func feed(est interface{ ProcessSlice([]float32) error }, data []float32) error {
	for off := 0; off < len(data); off += libChunk {
		if err := est.ProcessSlice(data[off:min(off+libChunk, len(data))]); err != nil {
			return err
		}
	}
	return nil
}

// advisory runs one extra pass each over three configurations that gate
// nothing: the sharded family at K=2, the sliding family, and the adaptive
// backend. They say whether those layers are worth a benchmark of their own.
func (r *libRun) advisory(t map[string]float64, n int, staticNsPerValue float64) error {
	fn := float64(n)
	family := r.spec.Family.String()
	support := ""
	if r.spec.Support > 0 {
		support = fmt.Sprintf(`,"support":%g`, r.spec.Support)
	}
	// run builds the estimator a spec document describes, ingests the whole
	// stream, hands the loaded estimator to look, and closes it.
	run := func(doc string, look func(eng *gpustream.Engine[float32], est gpustream.Estimator[float32], wall, cpu time.Duration)) error {
		spec, err := gpustream.ParseSpec([]byte(doc))
		if err != nil {
			return err
		}
		eng := gpustream.NewOf[float32](spec.Backend)
		est, err := eng.NewFromSpec(spec)
		if err != nil {
			return err
		}
		c0, t0 := cpuTime(), time.Now()
		if err := errors.Join(feed(est, r.data), est.Flush()); err != nil {
			return err
		}
		look(eng, est, time.Since(t0), cpuTime()-c0)
		return est.Close()
	}

	sharded := fmt.Sprintf(`{"family":"parallel-%s","eps":%g,"shards":2,"backend":"samplesort"%s}`, family, r.spec.Eps, support)
	err := run(sharded, func(_ *gpustream.Engine[float32], est gpustream.Estimator[float32], wall, cpu time.Duration) {
		t["shard.k2_wall_ns_per_value"] = float64(wall) / fn
		t["shard.k2_cpu_ns_per_value"] = float64(cpu) / fn
		t["shard.k2_idle_share"] = float64(est.Stats().Idle) / float64(2*wall)
	})
	if err != nil {
		return err
	}

	sliding := fmt.Sprintf(`{"family":"sliding-%s","eps":%g,"window":%d,"backend":"samplesort"%s}`, family, r.spec.Eps, advisoryWindow/(libValues/n), support)
	err = run(sliding, func(_ *gpustream.Engine[float32], est gpustream.Estimator[float32], wall, _ time.Duration) {
		t["window.ingest_ns_per_value"] = float64(wall) / fn
		t0 := time.Now()
		r.answer(est.Snapshot())
		t["window.query_ms"] = float64(time.Since(t0)) / 1e6
		t["window.entries"] = float64(est.Snapshot().Size())
	})
	if err != nil {
		return err
	}

	auto := fmt.Sprintf(`{"family":"%s","eps":%g,"backend":"auto"%s}`, family, r.spec.Eps, support)
	return run(auto, func(eng *gpustream.Engine[float32], _ gpustream.Estimator[float32], wall, _ time.Duration) {
		t["adaptive.auto_ns_per_value"] = float64(wall) / fn
		t["adaptive.auto_vs_static_ratio"] = float64(wall) / fn / staticNsPerValue
		if st := eng.Stats(); len(st) > 0 && st[0].Tuning != nil {
			t["adaptive.switches"] = float64(st[0].Tuning.Switches)
		}
	})
}

// layers builds the service workloads' per-layer table: handler spans from
// the middleware around the Server (linked to the client's span by a request
// header), the daemon's own /statsz, and the client-side samples.
func (r *svcRun) layers(used float64, plain, traced []svcRound, gcBefore runtime.MemStats) map[string]float64 {
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)

	t := newLayerTable()
	names := byName(r.rec.snapshot())
	over := func(rs []svcRound, f func(svcRound) float64) float64 { return median(each(rs, f)) }
	pooled := func(f func(svcRound) []float64) []float64 {
		var out []float64
		for _, rd := range plain {
			out = append(out, f(rd)...)
		}
		return sortedCopy(out)
	}

	t["stream.gen_s"] = names.medianUs("stream.gen") / 1e6
	t["oracle.eps_used"] = used

	// Handler spans of the load's four request kinds; the oracle's wide
	// verification reads are named apart and left out.
	kinds := []string{"post", "post_sync", "get_quantile", "get_hh"}
	var handlerTotal, clientSelf, clientCount, tracedRows int64
	for _, k := range kinds {
		handlerTotal += names.get("service.handler." + k).Total
		clientSelf += names.get("client." + k).Self
		clientCount += names.get("client." + k).Count
	}
	for _, rd := range traced {
		tracedRows += rd.rows
	}
	t["service.requests"] = over(plain, func(rd svcRound) float64 { return float64(rd.requests) })
	t["service.handler_post_ns_per_row"] = float64(names.get("service.handler.post").Total+names.get("service.handler.post_sync").Total) / float64(tracedRows)
	t["service.handler_get_quantile_us"] = names.medianUs("service.handler.get_quantile")
	t["service.handler_get_hh_us"] = names.medianUs("service.handler.get_hh")
	t["service.get_quantile_handler_share"] = float64(names.get("service.handler.get_quantile").Total) / float64(handlerTotal)
	t["service.transport_us_per_req"] = float64(clientSelf) / float64(clientCount) / 1e3

	// The daemon's own counters after the last traced round's barrier: the
	// writer goroutines' time in the estimators ties these rows back to the
	// library workloads' numbers.
	st := traced[len(traced)-1].status
	var rows, stall, ingestErrs int64
	var stats gpustream.Stats
	for _, s := range st.Streams {
		rows += s.Count
		stall += s.StallNs
		ingestErrs += s.IngestErrors
		for _, e := range s.Estimators {
			stats.Add(e.Stats)
		}
	}
	frows := float64(rows)
	t["service.writer_ns_per_row"] = float64(stats.Total()) / frows
	t["service.enqueue_stall_ms"] = float64(stall) / 1e6
	t["service.ingest_errors"] = float64(ingestErrs)
	t["service.goroutines"] = float64(st.Goroutines)
	t["pipeline.windows"] = float64(stats.Windows)
	t["pipeline.merge_ops"] = float64(stats.MergeOps)
	t["pipeline.compress_ops"] = float64(stats.CompressOps)
	t["pipeline.stats_sort_ns_per_value"] = float64(stats.Sort) / frows
	t["pipeline.stats_merge_ns_per_value"] = float64(stats.Merge) / frows
	t["pipeline.stats_compress_ns_per_value"] = float64(stats.Compress) / frows

	var depths []float64
	for _, rd := range traced {
		depths = append(depths, rd.depths...)
	}
	depths = sortedCopy(depths)
	t["service.queue_depth_p50"] = percentile(depths, 50)
	t["service.queue_depth_max"] = percentile(depths, 100)
	t["service.backlog_rows_at_end"] = over(traced, func(rd svcRound) float64 { return float64(rd.backlogRows) })

	// Client-side numbers that did not repeat within a tenth between runs on
	// the reference host, so they are reported here and gate nothing.
	t["service.barrier_ms"] = over(plain, func(rd svcRound) float64 { return float64(rd.barrier) }) / 1e6
	t["service.wall_mrows_per_s"] = over(plain, func(rd svcRound) float64 { return float64(rd.rows) / rd.wall.Seconds() / 1e6 })
	t["service.util_cores"] = over(plain, func(rd svcRound) float64 { return float64(rd.cpu) / float64(rd.wall) })
	t["service.post_p99_us"] = percentile(pooled(func(rd svcRound) []float64 { return rd.postUs }), 99)
	t["service.visible_p99_us"] = percentile(pooled(func(rd svcRound) []float64 { return rd.syncUs }), 99)
	t["service.get_quantile_p99_us"] = percentile(pooled(func(rd svcRound) []float64 { return rd.quantUs }), 99)
	t["service.get_hh_p50_us"] = over(plain, func(rd svcRound) float64 { return median(rd.hittersUs) })
	t["service.get_hh_p99_us"] = percentile(pooled(func(rd svcRound) []float64 { return rd.hittersUs }), 99)
	t["service.drain_ms"] = over(plain, func(rd svcRound) float64 { return float64(rd.drain) }) / 1e6
	t["service.spill_bytes"] = float64(plain[0].spillBytes)
	t["wire.bytes"] = float64(plain[0].spillBytes) / svcStreams

	t["gpustream.alloc_b_per_value"] = over(traced, func(rd svcRound) float64 { return float64(rd.allocB) / float64(rd.rows) })
	t["gpustream.allocs_per_kvalue"] = over(traced, func(rd svcRound) float64 { return float64(rd.allocs) / float64(rd.rows) * 1e3 })
	t["gpustream.gc_cycles"] = float64(gcAfter.NumGC - gcBefore.NumGC)
	t["gpustream.gc_pause_ms"] = float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6
	return t
}
