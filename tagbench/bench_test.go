package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/controller"
	"repro/internal/deploy"
	"repro/internal/synthcache"
	"repro/internal/trace"
)

// tamper replaces the active bundle of the first switch that runs rules
// with the same bundle minus one rule, behind the controller's back.
func tamper(t *testing.T, fab *chaos.Fabric, intent *deploy.Bundle) {
	t.Helper()
	var names []string
	for sw := range intent.Switches {
		names = append(names, sw)
	}
	sort.Strings(names)
	for _, sw := range names {
		rules := intent.Switches[sw].Rules
		if len(rules) == 0 {
			continue
		}
		bad := deploy.SwitchBundle{Rules: append([]deploy.RuleJSON(nil), rules[1:]...)}
		if err := fab.Install(sw, bad); err != nil {
			t.Fatal(err)
		}
		if err := fab.Activate(sw); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no switch runs any rule")
}

// The bring-up check must flag an agent whose active bundle was
// tampered with after a correct deployment.
func TestFleetCheckFlagsTamperedAgent(t *testing.T) {
	r, err := setupFleet(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range r.(*fleet).passes[0][:2] {
		fab := chaos.NewFabric(req.switches)
		ctl, err := bringUp(req, synthcache.New(synthcache.DefaultCapacity), fab, req.policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkBringUp(req, ctl, fab); err != nil {
			t.Fatalf("%s: correct deployment flagged: %v", req.name, err)
		}
		tamper(t, fab, ctl.Bundle())
		if err := checkBringUp(req, ctl, fab); err == nil {
			t.Fatalf("%s: tampered agent not flagged", req.name)
		}
	}
}

// The churn check must flag a tampered agent after a churn event.
func TestChurnCheckFlagsTamperedAgent(t *testing.T) {
	r, err := setupChurn(1)
	if err != nil {
		t.Fatal(err)
	}
	c := r.(*churn)
	if _, err := c.op(0, nil); err != nil {
		t.Fatal(err)
	}
	lane := c.lanes[0]
	if err := checkChurn(lane, true); err != nil {
		t.Fatalf("correct fabric flagged: %v", err)
	}
	tamper(t, lane.fab, lane.ctl.Bundle())
	if err := checkChurn(lane, false); err == nil {
		t.Fatal("tampered agent not flagged")
	}
	if err := c.finish(); err == nil {
		t.Fatal("end-of-run check passed a tampered fabric")
	}
}

// The tagger-arm check must fail the unprotected arm, which deadlocks
// on every matrix seed.
func TestTaggerCheckFlagsUnprotectedArm(t *testing.T) {
	r, err := runDetect(1, armNone, observe{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkObserved(r, armTagger); err == nil {
		t.Fatal("the none arm passed the tagger-arm check")
	}
	// Its deadlock froze the flight recorder; a cut-short copy of the
	// incident must fail the sink's read-back.
	incs := r.fr.Incidents()
	if len(incs) == 0 {
		t.Fatal("deadlocked run captured no incident")
	}
	if err := readIncident(incs[0]); err != nil {
		t.Fatalf("captured incident rejected: %v", err)
	}
	cut := incs[0]
	cut.Data = cut.Data[:len(cut.Data)/2]
	if err := readIncident(cut); err == nil {
		t.Fatal("truncated incident accepted")
	}
}

// A trace ring too small for the run drops records, which the observed
// check must flag even though the arm itself behaved. The writer drains
// the ring only on Close here, so 16 slots cannot hold the run.
func TestObservedCheckFlagsTinyTraceRing(t *testing.T) {
	r, err := runDetect(1, armTagger, observe{trace: trace.Config{RingSize: 16, FlushInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	if r.bt.Dropped() == 0 {
		t.Fatal("a 16-slot ring kept up with the run")
	}
	if err := checkObserved(r, armTagger); err == nil {
		t.Fatal("dropped trace records not flagged")
	}
}

// A slice that simulates something else on a repeat run is flagged.
func TestSimLoadFlagsChangedDigest(t *testing.T) {
	l := &simLoad{first: make([]string, 1)}
	if err := l.firstOrSame(0, `{"slice":0,"pause_frames":1}`); err != nil {
		t.Fatal(err)
	}
	if err := l.firstOrSame(0, `{"slice":0,"pause_frames":2}`); err == nil {
		t.Fatal("changed digest not flagged")
	}
}

// layersByWorkload lists the per-layer metrics each workload's traced run
// must measure.
var layersByWorkload = map[string][]string{
	"fleet-bringup": {"elp.enum_ms", "elp.paths", "fingerprint.canon_ms",
		"synthcache.hit_ratio", "synthcache.translated", "synthcache.misses",
		"core.alg1_ms", "core.alg2_ms", "core.rules_ms", "core.replay_ms",
		"core.conflicts", "tcam.compile_ms", "deploy.install_ms",
		"deploy.activate_ms", "deploy.rpcs", "controller.synth_ms"},
	"fabric-churn": {"controller.resynth_ms", "core.resynth_full_rebuilds",
		"synthcache.hits", "core.resynth_rules_reused",
		"deploy.switches_changed_per_event", "deploy.switches_skipped_per_event",
		"deploy.fetch_active_ms", "deploy.patch_ms", "deploy.activate_ms",
		"deploy.reconcile_ms"},
	"sim-clos-load": {"sim.run_s", "sim.ns_per_pkt", "sim.pause_frames",
		"sim.alloc_kb_per_run", "sim.pkts_per_s", "sim.goodput_gbps",
		"routing.tables_ms", "core.clos_rules_ms"},
	"sim-deadlock-observed": {"sim.run_s", "sim.ns_per_pkt", "sim.pause_frames",
		"sim.alloc_kb_per_run", "sim.pkts_per_s", "sim.goodput_gbps",
		"sim.recovery_us_mean", "observers.overhead_ratio", "trace.capture_ms",
		"trace.events", "trace.dropped", "flightrec.incidents",
		"flightrec.overwrites", "sim.deadlock_onsets", "detect.detections",
		"detect.false_positives", "detect.ttd_us_mean"},
}

// zeroLayers are the named per-layer metrics that may read 0 on a
// correct traced run of their workload; every other named metric must
// read more.
var zeroLayers = map[string]map[string]bool{
	// Resynth falls back to a full rebuild, the only path through the
	// synthesis cache, when a replay is lossy or synthesis needed
	// repairs, and neither was seen on the k=1 Clos under link and
	// drain churn. The metrics stay so a change that reaches the
	// fallback shows it.
	"fabric-churn": {"core.resynth_full_rebuilds": true, "synthcache.hits": true},
	// A dropped trace record fails the operation.
	"sim-deadlock-observed": {"trace.dropped": true},
}

// tracedOps is how many operation pairs the completeness test runs: enough
// for every layer to be exercised (a bring-up pass with its cache
// misses, a churn reboot).
var tracedOps = map[string]int{
	"fleet-bringup":         fleetStrata + 1 + 2 + fleetClosTwins,
	"fabric-churn":          churnRebootEvery,
	"sim-clos-load":         1,
	"sim-deadlock-observed": 1,
}

// A traced run measures every per-layer metric named for its workload,
// its operations pass their checks, and the layer spans cover all but a
// small share of the operation time.
func TestTracedRunCompleteness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.setup(1)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			var traced time.Duration
			for i := 0; i < tracedOps[w.name]; i++ {
				if _, err := r.op(i, nil); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				d, err := r.op(i, tr)
				if err != nil {
					t.Fatalf("traced op %d: %v", i, err)
				}
				traced += d.wall
			}
			if err := r.finish(); err != nil {
				t.Fatal(err)
			}
			got := map[string]float64{}
			for _, m := range r.perLayer(tr) {
				got[m.name] = m.value
			}
			for _, name := range layersByWorkload[w.name] {
				v, ok := got[name]
				switch {
				case !ok:
					t.Errorf("per-layer metric %s not reported", name)
				case !zeroLayers[w.name][name] && !(v > 0):
					t.Errorf("%s = %g, want a positive measurement", name, v)
				}
			}
			if _, err := report(perLayerMetrics, r.perLayer(tr), true); err != nil {
				t.Error(err)
			}
			perOp := float64(traced) / float64(time.Millisecond) / float64(tr.ops)
			if share := tr.unattributedMs() / perOp; share > 0.02 {
				t.Errorf("unattributed time is %.1f%% of the operation time", 100*share)
			}
		})
	}
}

// The untraced run reports every end-to-end metric for every workload.
func TestEndToEndMetricsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, _, _, err := run(w, 1, time.Millisecond, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed > 0 || res.Attempted == 0 {
				t.Fatalf("run: %+v", res)
			}
			for _, d := range endToEndMetrics {
				if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 {
					t.Errorf("%s = %+v, want a positive measurement", d.name, m)
				}
			}
		})
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// BENCHMARK.json declares exactly the workloads and metrics tagbench
// runs and reports, in the same order and units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("workloads %v, tagbench runs %v", names, want)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics declared, tagbench reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s), tagbench reports %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEndMetrics)
	compare("per_layer", bf.PerLayer, perLayerMetrics)
}

var _ controller.SwitchAgent = timedAgent{}
var _ controller.DeltaAgent = timedAgent{}
