package main

import "fmt"

// metric is one named measurement; its unit comes from the tables below.
type metric struct {
	name  string
	value float64
}

type metricDef struct {
	name, unit string
}

// endToEndMetrics are what every untraced run reports, for every
// workload: the tables below and BENCHMARK.json list the same names and
// units (TestBenchmarkJSONMatchesTables).
var endToEndMetrics = []metricDef{
	// setup_s is the median host CPU time to generate the run's inputs.
	{"setup_s", "s"},
	// op_cpu_ms_p50 and op_cpu_ms_p90 are percentiles of the host CPU
	// time, over every thread, of one operation: bring-up, churn
	// convergence, or one simulation. Their wall-clock counterparts
	// (op_wall_ms_*) spread too far from run to run on a shared host to
	// hold a bound; the traced run reports them.
	{"op_cpu_ms_p50", "ms"},
	{"op_cpu_ms_p90", "ms"},
	// The output quality of the rules in force: lossless queues and the
	// largest per-switch compressed TCAM entry count, averaged over a
	// fixed prefix of operations, and the rules each operation writes
	// into switch tables.
	{"lossless_queues", "queues"},
	{"tcam_entries", "entries"},
	{"rules_written_per_op", "rules"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are what every traced run reports. A workload that does
// not exercise a layer reports 0 for it.
var perLayerMetrics = []metricDef{
	// fleet-bringup
	{"elp.enum_ms", "ms"},
	{"elp.paths", "paths"},
	{"fingerprint.canon_ms", "ms"},
	{"synthcache.hit_ratio", "ratio"},
	{"synthcache.translated", "1/op"},
	{"synthcache.misses", "1/op"},
	{"core.alg1_ms", "ms"},
	{"core.alg2_ms", "ms"},
	{"core.rules_ms", "ms"},
	{"core.replay_ms", "ms"},
	{"core.conflicts", "count"},
	{"tcam.compile_ms", "ms"},
	{"deploy.install_ms", "ms"},
	{"deploy.activate_ms", "ms"},
	{"deploy.rpcs", "1/op"},
	{"controller.synth_ms", "ms"},
	// fabric-churn
	{"controller.resynth_ms", "ms"},
	{"core.resynth_full_rebuilds", "1/op"},
	{"synthcache.hits", "1/op"},
	{"core.resynth_rules_reused", "1/op"},
	{"deploy.switches_changed_per_event", "switches"},
	{"deploy.switches_skipped_per_event", "switches"},
	{"deploy.fetch_active_ms", "ms"},
	{"deploy.patch_ms", "ms"},
	{"deploy.reconcile_ms", "ms"},
	// sim-clos-load and sim-deadlock-observed
	{"sim.run_s", "s"},
	{"sim.ns_per_pkt", "ns"},
	{"sim.pause_frames", "frames"},
	{"sim.alloc_kb_per_run", "KiB"},
	{"sim.pkts_per_s", "1/s"},
	{"sim.goodput_gbps", "Gbps"},
	{"routing.tables_ms", "ms"},
	{"core.clos_rules_ms", "ms"},
	// sim-deadlock-observed
	{"observers.overhead_ratio", "ratio"},
	{"trace.capture_ms", "ms"},
	{"trace.events", "events"},
	{"trace.dropped", "records"},
	{"flightrec.incidents", "incidents"},
	{"flightrec.overwrites", "records"},
	{"sim.deadlock_onsets", "onsets"},
	{"sim.recovery_us_mean", "us"},
	{"detect.detections", "detections"},
	{"detect.false_positives", "detections"},
	{"detect.ttd_us_mean", "us"},
	// every workload: wall-clock latency of the untraced operations
	{"op_wall_ms_p50", "ms"},
	{"op_wall_ms_p90", "ms"},
	{"trace_overhead_ratio", "ratio"},
	{"unattributed_ms", "ms"},
}

// report renders a run's metrics against a table: every name in the
// table appears, a name the run did not measure reads fillMissing, and
// a measured name missing from the table is a bug.
func report(defs []metricDef, ms []metric, fillMissing bool) (map[string]metricOutput, error) {
	got := map[string]float64{}
	for _, m := range ms {
		got[m.name] = m.value
	}
	out := map[string]metricOutput{}
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok && !fillMissing {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		out[d.name] = metricOutput{Value: v, Unit: d.unit}
		delete(got, d.name)
	}
	for name := range got {
		return nil, fmt.Errorf("metric %s not declared", name)
	}
	return out, nil
}
