package main

// endToEnd lists the timed run's metrics with their units. BENCHMARK.json
// lists the same names, with the bound each may worsen by.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer lists the traced run's metrics with their units, in the order of
// README.md's layer table. BENCHMARK.json lists the same names.
var perLayer = []struct{ name, unit string }{
	{"sparse.build_s", "s"},
	{"sparse.nnz", "count"},
	{"partition.assign_s", "s"},
	{"partition.evs_s", "s"},
	{"partition.parts", "count"},
	{"partition.links", "count"},
	{"partition.max_dim", "count"},
	{"partition.max_ends", "count"},
	{"core.build_subdomains_s", "s"},
	{"factor.nnz_l", "count"},
	{"factor.solve_flops", "flop"},
	{"factor.solve_bytes", "B"},
	{"core.subdomain_solve_ns", "ns"},
	{"core.local_solve_s", "s"},
	{"core.engine_self_s", "s"},
	{"core.solves", "count"},
	{"core.messages", "count"},
	{"core.messages_per_solve", "ratio"},
	{"core.virtual_time", "units"},
	{"core.faults.dropped", "count"},
	{"core.faults.duplicated", "count"},
	{"core.faults.retransmissions", "count"},
	{"core.faults.snapshots", "count"},
	{"core.faults.restarts", "count"},
	{"core.faults.retransmit_ratio", "ratio"},
	{"transport.wave_packets", "count"},
	{"transport.wave_entries", "count"},
	{"transport.ctrl_packets", "count"},
	{"transport.send_s", "s"},
	{"transport.recv_wait_s", "s"},
	{"transport.send_errors", "count"},
	{"dist.self_s", "s"},
	{"dist.polls", "count"},
	{"dist.fenced", "count"},
	{"dist.epoch", "count"},
	{"dist.local_msg_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"wall.setup_s", "s"},
	{"wall.solve_s", "s"},
	{"ref.direct_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
}
