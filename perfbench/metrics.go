package main

// endToEndUnits lists every end-to-end metric an untraced run reports.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"frame_p50_ms":       "ms",
	"frame_tail_ms":      "ms",
	"frames_per_s":       "1/s",
	"va_rmse_mrad":       "mrad",
	"vm_rmse_mpu":        "mpu",
	"alloc_kb_per_frame": "KiB",
	"heap_peak_mb":       "MiB",
}

// layerUnits lists every per-layer metric a traced run reports. A metric
// that does not apply to a workload reads 0 there.
var layerUnits = map[string]string{
	"core.step1_ms":                         "ms",
	"core.step2_ms":                         "ms",
	"core.skeleton_builds_per_frame":        "count",
	"core.event_frame_ms":                   "ms",
	"core.exchange_bytes_per_frame":         "bytes",
	"core.exchange_msgs_per_frame":          "count",
	"core.codec_us":                         "us",
	"core.self_ms_per_frame":                "ms",
	"wls.gn_iters_per_frame":                "count",
	"wls.gain_skip_frac":                    "frac",
	"wls.precond_skip_frac":                 "frac",
	"wls.reuse_fallbacks_per_frame":         "count",
	"wls.j_ratio_p50":                       "ratio",
	"wls.batch_frac":                        "frac",
	"wls.batch_fallbacks_per_sweep":         "count",
	"wls.reanchors_per_sweep":               "count",
	"sparse.cg_iters_per_frame":             "count",
	"sparse.cg_iters_per_gn":                "count",
	"sparse.batch_matvecs_per_sweep":        "count",
	"sparse.compact_frac":                   "frac",
	"sparse.gain_refresh_us":                "us",
	"sparse.cg_us_per_iter":                 "us",
	"sparse.gain_refresh_share_computed":    "frac",
	"sparse.cg_share_computed":              "frac",
	"meas.eval_us":                          "us",
	"meas.update_us":                        "us",
	"meas.eval_share_computed":              "frac",
	"partition.map_ms":                      "ms",
	"partition.imbalance":                   "ratio",
	"partition.migrations_per_frame":        "count",
	"medici.acquire_ms":                     "ms",
	"medici.exchange_ms":                    "ms",
	"medici.wire_bytes_per_frame":           "bytes",
	"medici.wire_msgs_per_frame":            "count",
	"medici.fixed_ms":                       "ms",
	"medici.self_ms_per_frame":              "ms",
	"cluster.redistribute_ms":               "ms",
	"contingency.cases_per_s":               "1/s",
	"contingency.gn_iters_per_case":         "count",
	"contingency.cg_iters_per_case":         "count",
	"contingency.warm_start_frac":           "frac",
	"contingency.skeleton_builds_per_sweep": "count",
	"contingency.self_ms_per_frame":         "ms",
	"go.gc_per_frame":                       "count",
	"go.gc_pause_ms_per_frame":              "ms",
	"trace_overhead_frac":                   "frac",
}

// layerMetrics derives the per-layer metrics from a traced pass; p50 is
// the untraced pass's frame_p50_ms, the base of the computed time shares
// and of the tracing overhead.
func layerMetrics(untraced, tp *pass, p50 float64) map[string]float64 {
	frames := float64(len(tp.lat))
	gainSolves := tp.counts["gain_refresh"] + tp.counts["gain_skip"]
	self := tp.tr.selfByLayer()
	evalUS, refreshUS, cgUS := tp.med("meas.eval_us"), tp.med("sparse.gain_refresh_us"), tp.med("sparse.cg_us_per_iter")
	tracedLat, _ := tp.timed()
	untracedLat, _ := untraced.timed()
	return map[string]float64{
		"core.step1_ms":                         tp.med("step1_ms"),
		"core.step2_ms":                         tp.med("step2_ms"),
		"core.skeleton_builds_per_frame":        tp.perFrame("skeleton"),
		"core.event_frame_ms":                   tp.med("event_ms"),
		"core.exchange_bytes_per_frame":         tp.perFrame("exch_bytes") + tp.mean("codec_exch_bytes"),
		"core.exchange_msgs_per_frame":          tp.perFrame("exch_msgs") + tp.mean("codec_exch_msgs"),
		"core.codec_us":                         tp.med("codec_us"),
		"core.self_ms_per_frame":                ms(self["core"]) / frames,
		"wls.gn_iters_per_frame":                tp.perFrame("gn"),
		"wls.gain_skip_frac":                    ratio(tp.counts["gain_skip"], gainSolves),
		"wls.precond_skip_frac":                 ratio(tp.counts["precond_skip"], gainSolves),
		"wls.reuse_fallbacks_per_frame":         tp.perFrame("reuse_fallback"),
		"wls.j_ratio_p50":                       tp.med("j_ratio"),
		"wls.batch_frac":                        tp.frac("batched", "estimated"),
		"wls.batch_fallbacks_per_sweep":         tp.perFrame("batch_fallbacks"),
		"wls.reanchors_per_sweep":               tp.perFrame("reanchors"),
		"sparse.cg_iters_per_frame":             tp.perFrame("cg"),
		"sparse.cg_iters_per_gn":                tp.frac("cg", "gn"),
		"sparse.batch_matvecs_per_sweep":        tp.perFrame("batch_matvecs"),
		"sparse.compact_frac":                   tp.frac("compacted_matvecs", "batch_matvecs"),
		"sparse.gain_refresh_us":                refreshUS,
		"sparse.cg_us_per_iter":                 cgUS,
		"sparse.gain_refresh_share_computed":    ratio(refreshUS*tp.perFrame("gain_refresh")/1e3, p50),
		"sparse.cg_share_computed":              ratio(cgUS*tp.perFrame("cg")/1e3, p50),
		"meas.eval_us":                          evalUS,
		"meas.update_us":                        tp.med("meas.update_us"),
		"meas.eval_share_computed":              ratio(evalUS*tp.perFrame("gn")/1e3, p50),
		"partition.map_ms":                      tp.med("map_ms"),
		"partition.imbalance":                   tp.med("imbalance"),
		"partition.migrations_per_frame":        tp.perFrame("migrations"),
		"medici.acquire_ms":                     tp.med("acquire_ms"),
		"medici.exchange_ms":                    tp.med("exchange_ms"),
		"medici.wire_bytes_per_frame":           tp.perFrame("wire_bytes"),
		"medici.wire_msgs_per_frame":            tp.perFrame("wire_msgs"),
		"medici.fixed_ms":                       tp.med("fixed_ms"),
		"medici.self_ms_per_frame":              ms(self["medici"]) / frames,
		"cluster.redistribute_ms":               tp.med("redistribute_ms"),
		"contingency.cases_per_s":               tp.med("cases_per_s"),
		"contingency.gn_iters_per_case":         tp.frac("gn", "estimated"),
		"contingency.cg_iters_per_case":         tp.frac("cg", "estimated"),
		"contingency.warm_start_frac":           tp.frac("warm_starts", "estimated"),
		"contingency.skeleton_builds_per_sweep": tp.perFrame("pool_skeleton"),
		"contingency.self_ms_per_frame":         ms(self["contingency"]) / frames,
		"go.gc_per_frame":                       float64(untraced.numGC) / float64(len(untraced.lat)),
		"go.gc_pause_ms_per_frame":              float64(untraced.pauseNs) / 1e6 / float64(len(untraced.lat)),
		"trace_overhead_frac":                   ratio(median(tracedLat), median(untracedLat)) - 1,
	}
}
