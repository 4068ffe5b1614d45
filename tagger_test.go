package tagger

import (
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	clos, err := NewClos(ClosConfig{Pods: 2, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 2, HostsPerToR: 4})
	if err != nil {
		t.Fatal(err)
	}
	set := KBounceELP(clos, 1)
	sys, err := SynthesizeClos(clos, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.NumLosslessQueues(); got != 2 {
		t.Errorf("queues = %d, want 2", got)
	}
	if err := sys.Runtime.Verify(); err != nil {
		t.Fatal(err)
	}
	entries := CompressRules(sys.Rules.Rules())
	if len(entries) == 0 || MaxEntriesPerSwitch(entries) == 0 {
		t.Fatal("no TCAM entries")
	}
}

func TestWalkThroughExperiment(t *testing.T) {
	res, g, err := WalkThrough()
	if err != nil {
		t.Fatal(err)
	}
	if res.BruteForceSwitchTags != 3 {
		t.Errorf("Algorithm 1 tags = %d, want 3 (paper Fig 5b)", res.BruteForceSwitchTags)
	}
	if res.MergedSwitchTags != 2 {
		t.Errorf("Algorithm 2 tags = %d, want 2 (paper Fig 5c)", res.MergedSwitchTags)
	}
	if len(res.MergedRules) == 0 || len(res.BruteForceRules) < len(res.MergedRules) {
		t.Errorf("rule counts: bf=%d merged=%d", len(res.BruteForceRules), len(res.MergedRules))
	}
	table := RuleTable(g, res.MergedRules)
	if !strings.Contains(table, "NewTag") {
		t.Error("rule table header missing")
	}
}

func TestFigure6Experiment(t *testing.T) {
	res, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if res.GreedyQueues != 3 || res.OptimalQueues != 2 {
		t.Errorf("fig6 = %+v, want greedy 3 / optimal 2", res)
	}
}

func TestTable1Experiment(t *testing.T) {
	res := Table1(2, 300_000)
	if len(res.Rows) != 2 {
		t.Fatal("rows")
	}
	if p := res.OverallProbability(); p < 0 || p > 1e-3 {
		t.Errorf("probability %.2e out of band", p)
	}
	if !strings.Contains(res.String(), "Reroute probability") {
		t.Error("table header")
	}
}

func TestTable5SmallCase(t *testing.T) {
	row, err := Table5Case(50, 12, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Priorities > 3 {
		t.Errorf("jellyfish-50 priorities = %d, want <= 3 (paper Table 5)", row.Priorities)
	}
	if row.ELPSize != 50*49 {
		t.Errorf("ELP size = %d", row.ELPSize)
	}
	if row.Rules <= 0 || row.LongestLossless <= 0 {
		t.Errorf("row = %+v", row)
	}
}

func TestFigure10Experiment(t *testing.T) {
	without := mustFigure(t, "fig10", false)
	if !without.Deadlocked {
		t.Error("fig10 without Tagger should deadlock")
	}
	with := mustFigure(t, "fig10", true)
	if with.Deadlocked {
		t.Error("fig10 with Tagger deadlocked")
	}
	for _, f := range with.Flows {
		if f.LateGbps < 10 {
			t.Errorf("flow %s at %.1f Gbps", f.Name, f.LateGbps)
		}
		if len(f.Points) == 0 {
			t.Error("empty series")
		}
	}
}

func TestOverheadExperiment(t *testing.T) {
	res := Overhead()
	if res.BaselineGbps == 0 {
		t.Fatal("no baseline goodput")
	}
	if p := res.PenaltyPercent(); p > 1 || p < -1 {
		t.Errorf("overhead %.2f%%, want within ±1%%", p)
	}
}

func TestMultiClassExperiment(t *testing.T) {
	res, err := MultiClass(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SharedQueues != 3 || res.NaiveQueues != 4 {
		t.Errorf("multi-class = %+v, want shared 3 / naive 4", res)
	}
}

func TestBCubeTagsExperiment(t *testing.T) {
	tags, err := BCubeTags(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tags != 2 {
		t.Errorf("BCube(4,1) tags = %d, want 2 (levels)", tags)
	}
}

func TestMinLosslessQueues(t *testing.T) {
	if MinLosslessQueues(2) != 3 {
		t.Error("lower bound")
	}
}

func TestComputeRoutesFacade(t *testing.T) {
	clos := PaperTestbed()
	tb := ComputeRoutes(clos.Graph, UpDown)
	if tb.Entries() == 0 {
		t.Fatal("no routes")
	}
	n := NewSimulation(clos.Graph, tb, DefaultSimConfig())
	f := n.AddFlow(FlowSpec{Name: "x", Src: clos.Hosts[0], Dst: clos.Hosts[8]})
	n.Run(2_000_000) // 2 ms
	if f.Received() == 0 {
		t.Fatal("simulation facade broken")
	}
}
