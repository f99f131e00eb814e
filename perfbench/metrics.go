package main

// metricDef names one reported metric. For a per-layer metric, moves
// names the end-to-end metrics it should move and heavy the workload
// where its layer carries the load; on the other workloads the layer is
// light or bypassed, and a bypassed layer reads 0.
type metricDef struct {
	name, unit   string
	moves, heavy string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "create_p50_ms", unit: "ms"},
	{name: "mine_p50_ms", unit: "ms"},
	{name: "mine_tail_ms", unit: "ms"},
	{name: "commit_p50_ms", unit: "ms"},
	{name: "commit_tail_ms", unit: "ms"},
	{name: "resume_p50_ms", unit: "ms"},
	{name: "iterations_per_s", unit: "1/s"},
	{name: "success_rate", unit: "ratio"},
	{name: "rss_peak_mb", unit: "MB"},
}

const (
	mineMoves   = "mine_p50_ms, mine_tail_ms, iterations_per_s"
	commitMoves = "commit_p50_ms, commit_tail_ms"
	servePs     = "create_p50_ms, mine_p50_ms, commit_p50_ms, resume_p50_ms"
)

// perLayer are the metrics of single layers, measured in a separate
// traced run. Times are means per call. Counts are means per
// observation (per mine, per commit, per Put), except store.ops,
// store.failures and spreadopt.timed_out, which are totals of the traced
// pass.
var perLayer = []metricDef{
	{"search.beam_ms", "ms", mineMoves, "crime-beam"},
	{"search.evaluated", "count", mineMoves, "crime-beam"},
	{"search.bound_evals", "count", mineMoves, "crime-beam"},
	{"search.pruned", "count", mineMoves, "crime-beam"},
	{"search.prune_ratio", "ratio", mineMoves, "crime-beam"},
	{"engine.language_build_ms", "ms", "setup_s, create_p50_ms, resume_p50_ms", "serve-cluster"},
	{"engine.conditions", "count", "setup_s, create_p50_ms, resume_p50_ms", "serve-cluster"},
	{"si.scorer_prep_ms", "ms", "mine_p50_ms", "mammals-spread"},
	{"si.groups", "count", "mine_p50_ms", "mammals-spread"},
	{"spreadopt.optimize_ms", "ms", "mine_p50_ms", "mammals-spread"},
	{"spreadopt.timed_out", "count", "mine_p50_ms", "mammals-spread"},
	{"background.refit_ms", "ms", commitMoves, "mammals-spread"},
	{"background.sweeps", "count", commitMoves, "mammals-spread"},
	{"background.fork_ms", "ms", commitMoves, "serve-cluster"},
	{"background.save_ms", "ms", commitMoves, "serve-cluster"},
	{"background.snapshot_bytes", "bytes", commitMoves, "serve-cluster"},
	{"jobs.queue_wait_ms", "ms", "mine_p50_ms", "serve-cluster"},
	{"jobs.run_ms", "ms", "mine_p50_ms", "serve-cluster"},
	{"server.handler_ms.create", "ms", "create_p50_ms", "serve-cluster"},
	{"server.handler_ms.mine", "ms", "mine_p50_ms", "serve-cluster"},
	{"server.handler_ms.resume", "ms", "resume_p50_ms", "serve-cluster"},
	{"server.handler_ms.commit", "ms", "commit_p50_ms", "serve-cluster"},
	{"server.handler_ms.history", "ms", "iterations_per_s", "serve-cluster"},
	{"server.handler_ms.delete", "ms", "iterations_per_s", "serve-cluster"},
	{"server.restore_ms", "ms", "resume_p50_ms", "serve-cluster"},
	{"server.restart_ms", "ms", "iterations_per_s", "serve-cluster"},
	{"store.put_ms", "ms", "commit_p50_ms, create_p50_ms", "serve-cluster"},
	{"store.get_ms", "ms", "resume_p50_ms, create_p50_ms", "serve-cluster"},
	{"store.delete_ms", "ms", "iterations_per_s", "serve-cluster"},
	{"store.ops", "count", "commit_p50_ms, create_p50_ms, resume_p50_ms", "serve-cluster"},
	{"store.failures", "count", "success_rate", "serve-cluster"},
	{"store.put_bytes", "bytes", "commit_p50_ms", "serve-cluster"},
	{"cluster.proxy_ms", "ms", servePs, "serve-cluster"},
	{"http.client_ms", "ms", servePs, "serve-cluster"},
	{"trace.overhead_ms", "ms", "none: traced minus untraced mine p50", "all"},
}
