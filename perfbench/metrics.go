package main

// metric describes one reported number. perfbench/README.md maps each
// per-layer metric to the end-to-end metric it should move.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd lists the metrics an untraced run prints, on every workload.
// Each applies to every workload (an op is one partition call, one regrid
// step, one service request, or one campaign step), so none is ever zero.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tp_model_s", Unit: "s", Better: "lower"},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MiB", Better: "lower"},
}

// perLayer lists the metrics a traced run prints, on every workload. A
// layer a workload does not exercise reports 0. The per-call and hit/miss
// timings come first: they are measured with the untraced run's method
// (probes never fall inside them) but only a traced run emits them, since
// they exist on one workload each.
var perLayer = []metric{
	{Name: "balance_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "repart_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ghost_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "moved_mb", Unit: "MiB", Better: "lower"},
	{Name: "hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "hit_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "miss_ms_p90", Unit: "ms", Better: "lower"},

	{Name: "sfc.rank_ns", Unit: "ns", Better: "lower"},
	{Name: "psort.treesort_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.quality_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.rounds", Unit: "count", Better: "lower"},
	{Name: "partition.rank_ms_max", Unit: "ms", Better: "lower"},
	{Name: "partition.rank_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.alltoallv_ms", Unit: "ms", Better: "lower"},

	{Name: "octree.balance_ns_per_leaf", Unit: "ns", Better: "lower"},
	{Name: "octree.leaves_out", Unit: "count", Better: "lower"},
	{Name: "partition.repart_rank_ms_max", Unit: "ms", Better: "lower"},
	{Name: "partition.repart_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.kept_seps_frac", Unit: "ratio", Better: "higher"},
	{Name: "partition.moved_elements", Unit: "count", Better: "lower"},
	{Name: "mesh.ghost_rank_ms_max", Unit: "ms", Better: "lower"},
	{Name: "mesh.ghosts", Unit: "count", Better: "lower"},
	{Name: "mesh.send_volume", Unit: "count", Better: "lower"},

	{Name: "service.hits", Unit: "count", Better: "higher"},
	{Name: "service.misses", Unit: "count", Better: "lower"},
	{Name: "service.coalesced", Unit: "count", Better: "higher"},
	{Name: "service.evictions", Unit: "count", Better: "lower"},
	{Name: "service.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.do_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.client_codec_us", Unit: "us", Better: "lower"},
	{Name: "service.wire_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.do_miss_ms", Unit: "ms", Better: "lower"},

	{Name: "net.step_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "net.allreduce_rtt_us", Unit: "us", Better: "lower"},
	{Name: "net.frame_encode_us", Unit: "us", Better: "lower"},
	{Name: "net.frame_decode_us", Unit: "us", Better: "lower"},
	{Name: "net.alloc_bytes_per_collective", Unit: "B", Better: "lower"},
	{Name: "ckpt.save_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.wall_over_model", Unit: "ratio", Better: "lower"},

	{Name: "comm.collectives", Unit: "count", Better: "lower"},
	{Name: "comm.bytes", Unit: "B", Better: "lower"},
	{Name: "comm.msgs", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}
