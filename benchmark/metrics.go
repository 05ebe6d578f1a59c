package main

// metricDef describes one reported metric. BENCHMARK.json carries the same
// name, unit, direction and bound; a test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"sim_corpus", "direct sim.Run over a seeded candidate corpus on three ISAs: te, schedule, lower, cache, sim and hw do all of the work and service does none"},
	{"paper_pipeline", "the library user's train, evaluate, tune and validate path on RISC-V through a cold in-process service: ansor, predictor, features, runner and core run with sim and hw"},
	{"fleet_hit", "keep-alive HTTP clients to a router over three RAM-only nodes on a primed pool: router split, dispatch and merge, the JSON codec, CacheKey and the RAM cache do the work; sim and the store do none"},
	{"fleet_churn", "same fleet with a disk store, 256 resident results per node, RF=2 and one request in four never seen: store appends, ARC eviction, disk hits and /v1/ingest replication dominate"},
}

// endToEndDefs are the metrics a user of the system would see. Every
// workload reports every one of them from the untraced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cand_per_s", "cand/s", "higher", 0.25},
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"batch_p50_ms", "ms", "lower", 0.25},
	{"batch_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerDefs are the single-layer metrics of the traced run. A workload
// that leaves a layer idle reports 0 for it.
var perLayerDefs = []metricDef{
	{Name: "te.build_us_per_cand", Unit: "us", Better: "lower"},
	{Name: "schedule.replay_us_per_cand", Unit: "us", Better: "lower"},
	{Name: "schedule.canonical_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "lower.build_us_per_cand", Unit: "us", Better: "lower"},
	{Name: "lower.execute_ms_per_cand", Unit: "ms", Better: "lower"},
	{Name: "lower.events_per_instr", Unit: "ratio", Better: "lower"},
	{Name: "lower.span_access_share", Unit: "share", Better: "higher"},
	{Name: "sim.run_ms_per_cand", Unit: "ms", Better: "lower"},
	{Name: "sim.replay_ms_per_cand", Unit: "ms", Better: "lower"},
	{Name: "sim.instr_per_cand", Unit: "count", Better: "lower"},
	{Name: "sim.allocs_per_cand", Unit: "count", Better: "lower"},
	{Name: "sim.span_share_of_pass", Unit: "share", Better: "higher"},
	{Name: "cache.l1d_miss_share", Unit: "share", Better: "lower"},
	{Name: "cache.l1i_miss_share", Unit: "share", Better: "lower"},
	{Name: "cache.l2_miss_share", Unit: "share", Better: "lower"},
	{Name: "hw.execute_ms_per_cand", Unit: "ms", Better: "lower"},
	{Name: "hw.cycles_per_instr", Unit: "ratio", Better: "lower"},
	{Name: "features.from_stats_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "predictor.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "predictor.score_us_per_cand", Unit: "us", Better: "lower"},
	{Name: "predictor.spearman", Unit: "ratio", Better: "higher"},
	{Name: "core.train_s", Unit: "s", Better: "lower"},
	{Name: "core.dataset_impl_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rtop1_pct", Unit: "%", Better: "lower"},
	{Name: "core.etop1_pct", Unit: "%", Better: "lower"},
	{Name: "core.tuned_best_us", Unit: "us", Better: "lower"},
	{Name: "runner.run_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "ansor.search_self_ms_per_batch", Unit: "ms", Better: "lower"},
	{Name: "service.local_miss_share", Unit: "share", Better: "lower"},
	{Name: "service.client_wire_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "service.router_self_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "service.dispatch_wire_us_per_subbatch", Unit: "us", Better: "lower"},
	{Name: "service.node_handler_us_per_subbatch", Unit: "us", Better: "lower"},
	{Name: "service.subbatches_per_batch", Unit: "count", Better: "lower"},
	{Name: "service.ingest_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "service.key_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "service.codec_encode_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "service.codec_decode_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "service.wire_bytes_per_cand", Unit: "B", Better: "lower"},
	{Name: "service.node_hit_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "service.router_hit_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "service.hit_share", Unit: "share", Better: "higher"},
	{Name: "service.disk_hit_share", Unit: "share", Better: "lower"},
	{Name: "service.evictions_per_kcand", Unit: "count", Better: "lower"},
	{Name: "service.replica_keys", Unit: "count", Better: "higher"},
	{Name: "service.duplicate_sims", Unit: "count", Better: "lower"},
	{Name: "service.rerouted", Unit: "count", Better: "lower"},
	{Name: "service.rejected_candidates", Unit: "count", Better: "lower"},
	{Name: "service.sim_share_of_node_time", Unit: "share", Better: "lower"},
	{Name: "service.store_put_us", Unit: "us", Better: "lower"},
	{Name: "service.store_get_us", Unit: "us", Better: "lower"},
	{Name: "service.store_bytes_per_key", Unit: "B", Better: "lower"},
	{Name: "bench.cpu_s_per_kcand", Unit: "s", Better: "lower"},
	{Name: "bench.batch_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.pass_spread_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_closure_pct", Unit: "%", Better: "lower"},
	{Name: "bench.failed_share", Unit: "share", Better: "lower"},
	{Name: "bench.wrong_results", Unit: "count", Better: "lower"},
	{Name: "bench.snapshot_digest_ok", Unit: "count", Better: "higher"},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// runSeconds is the length of one run's timed window the driver asks for.
const runSeconds = 20

// describe renders the tables above as BENCHMARK.json.
func describe() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed as the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pack turns measured values into the result's metrics object, emitting
// every metric of defs; one the workload did not touch reads 0.
func pack(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
