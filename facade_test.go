package tagger

import (
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

// mustFigure runs one bare figure experiment, failing tb on error.
func mustFigure(tb testing.TB, name string, withTagger bool) ExperimentResult {
	tb.Helper()
	res, err := Figure(name, withTagger, Observers{})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestFigureObservers: a figure run reports its flight-recorder
// captures in the result, a tracer chained under the recorder still
// sees the event stream, and observing never changes the outcome.
func TestFigureObservers(t *testing.T) {
	bare := mustFigure(t, "fig10", false)
	tr := &countTracer{}
	obs, err := Figure("fig10", false, Observers{Tracer: tr, FlightRec: &FlightRecConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Incidents) == 0 {
		t.Fatal("fig10 without Tagger deadlocks, but the flight recorder captured nothing")
	}
	if tr.events == 0 {
		t.Error("tracer chained under the flight recorder saw no events")
	}
	if obs.Deadlocked != bare.Deadlocked || obs.Drops != bare.Drops {
		t.Errorf("observed run diverges from bare: %+v vs %+v", obs.Drops, bare.Drops)
	}
	if _, err := Figure("fig13", false, Observers{}); err == nil {
		t.Error("unknown figure accepted")
	}
}

type countTracer struct{ events int }

func (c *countTracer) Trace(sim.TraceEvent) { c.events++ }

// TestObserverRefusals: the fan-out drivers refuse a tracer (one
// ordered stream cannot span parallel runs) and the soaks refuse a
// flight recorder, instead of running with the observer ignored.
func TestObserverRefusals(t *testing.T) {
	tr, _, err := NewTracer(io.Discard, TraceJSONL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChaosSweep([]int64{1}, true, 1, Observers{Tracer: tr}); err == nil {
		t.Error("ChaosSweep accepted a tracer")
	}
	if _, err := DetectMatrix([]int64{1}, 1, Observers{Tracer: tr}); err == nil {
		t.Error("DetectMatrix accepted a tracer")
	}
	fr := Observers{FlightRec: &FlightRecConfig{}}
	if _, err := ChaosSoak(1, true, fr); err == nil {
		t.Error("ChaosSoak accepted a flight recorder")
	}
	if _, err := ChurnSoak(1, 4, fr); err == nil {
		t.Error("ChurnSoak accepted a flight recorder")
	}
	if _, _, err := NewTracer(io.Discard, "xml"); err == nil {
		t.Error("NewTracer accepted an unknown format")
	}
}

func TestFigure11Experiment(t *testing.T) {
	without := mustFigure(t, "fig11", false)
	if !without.Deadlocked {
		t.Error("fig11 baseline should deadlock")
	}
	with := mustFigure(t, "fig11", true)
	if with.Deadlocked {
		t.Error("fig11 with Tagger deadlocked")
	}
	// F1 alive, F2 dead under Tagger.
	rates := map[string]float64{}
	for _, f := range with.Flows {
		rates[f.Name] = f.LateGbps
	}
	if rates["F1"] < 5 {
		t.Errorf("F1 = %.1f Gbps", rates["F1"])
	}
	if rates["F2"] > 0.01 {
		t.Errorf("F2 = %.1f Gbps, should be dead in the loop", rates["F2"])
	}
}

func TestFigure12Experiment(t *testing.T) {
	without := mustFigure(t, "fig12", false)
	if !without.Deadlocked {
		t.Error("fig12 baseline should deadlock")
	}
	stuck := 0
	for _, f := range without.Flows {
		if f.LateGbps < 0.01 {
			stuck++
		}
	}
	if stuck != len(without.Flows) {
		t.Errorf("PAUSE propagation froze %d/%d flows", stuck, len(without.Flows))
	}
	with := mustFigure(t, "fig12", true)
	if with.Deadlocked {
		t.Error("fig12 with Tagger deadlocked")
	}
}

func TestTable5ResultString(t *testing.T) {
	row, err := Table5Case(30, 8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := Table5Result{Rows: []Table5Row{row}}
	s := res.String()
	if !strings.Contains(s, "Priorities") || !strings.Contains(s, "30") {
		t.Errorf("table: %q", s)
	}
}

func TestSynthesizeBruteForceFacade(t *testing.T) {
	clos := PaperTestbed()
	set := UpDownELP(clos)
	sys, err := SynthesizeBruteForce(clos.Graph, set)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force on up-down ToR paths needs one tag per hop (4).
	if got := sys.Runtime.NumSwitchTags(); got != 4 {
		t.Errorf("brute-force tags = %d, want 4", got)
	}
	merged, err := Synthesize(clos.Graph, set)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Runtime.NumSwitchTags(); got != 1 {
		t.Errorf("merged tags = %d, want 1", got)
	}
}

func TestFatTreeFacade(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	set := ELPFromKBounce(ft.Graph, ft.Edges, 1)
	sys, err := SynthesizeFatTree(ft, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumLosslessQueues() != 2 {
		t.Errorf("fat-tree queues = %d", sys.NumLosslessQueues())
	}
}

func TestJellyfishFacadeWithRandomELP(t *testing.T) {
	j, err := NewJellyfish(JellyfishConfig{Switches: 15, Ports: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	set := ShortestELP(j.Graph, j.Switches)
	before := set.Len()
	AddRandomELP(set, j.Graph, j.Switches, 30, 6, 5)
	if set.Len() != before+30 {
		t.Errorf("random ELP: %d -> %d", before, set.Len())
	}
	sys, err := Synthesize(j.Graph, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Runtime.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBCubeFacade(t *testing.T) {
	b, err := NewBCube(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := BCubeELP(b)
	if set.Len() == 0 {
		t.Fatal("empty BCube ELP")
	}
}

func TestDCQCNFacadeDefaults(t *testing.T) {
	cfg := DefaultDCQCN()
	if cfg.KMin <= 0 || cfg.KMax <= cfg.KMin || cfg.PMax <= 0 {
		t.Errorf("defaults: %+v", cfg)
	}
	clos := PaperTestbed()
	tb := ComputeRoutes(clos.Graph, UpDown)
	n := NewSimulation(clos.Graph, tb, DefaultSimConfig())
	n.EnableDCQCN(cfg)
	f := n.AddFlow(FlowSpec{Name: "x", Src: clos.Hosts[0], Dst: clos.Hosts[8]})
	n.Run(2_000_000)
	if f.Received() == 0 {
		t.Fatal("flow dead under DCQCN facade")
	}
}

func TestRecoveryFacade(t *testing.T) {
	clos := PaperTestbed()
	tb := ComputeRoutes(clos.Graph, UpDown)
	n := NewSimulation(clos.Graph, tb, DefaultSimConfig())
	var stats *RecoveryStats = n.EnableRecovery(1_000_000)
	n.AddFlow(FlowSpec{Name: "x", Src: clos.Hosts[0], Dst: clos.Hosts[8]})
	n.Run(3_000_000)
	if stats.Detections != 0 {
		t.Error("healthy network triggered recovery")
	}
}
