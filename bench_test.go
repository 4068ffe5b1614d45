package tagger

// One benchmark per table and figure of the paper's evaluation. Each
// bench both times the artifact's regeneration and reports the headline
// quantity as a custom metric, so `go test -bench=. -benchmem` doubles as
// the reproduction harness (see EXPERIMENTS.md for paper-vs-measured).

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cbd"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/elp"
	"repro/internal/paper"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/synthcache"
	"repro/internal/tcam"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// --- Table 1: reroute probability -------------------------------------------

func BenchmarkTable1RerouteMeasurement(b *testing.B) {
	var p float64
	for i := 0; i < b.N; i++ {
		res := Table1(1, 200_000)
		p = res.OverallProbability()
	}
	b.ReportMetric(p, "reroute-prob")
}

// --- Tables 3/4 + Figure 5: the walk-through ---------------------------------

func BenchmarkTable3BruteForceRules(b *testing.B) {
	f := paper.NewFig5()
	var rules int
	for i := 0; i < b.N; i++ {
		sys, err := core.Synthesize(f.Graph, f.ELP.Paths(), core.Options{SkipMerge: true})
		if err != nil {
			b.Fatal(err)
		}
		rules = sys.Rules.Len()
	}
	b.ReportMetric(float64(rules), "rules")
}

func BenchmarkTable4GreedyRules(b *testing.B) {
	f := paper.NewFig5()
	var rules, tags int
	for i := 0; i < b.N; i++ {
		sys, err := core.Synthesize(f.Graph, f.ELP.Paths(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rules = sys.Rules.Len()
		tags = sys.Runtime.NumSwitchTags()
	}
	b.ReportMetric(float64(rules), "rules")
	b.ReportMetric(float64(tags), "tags")
}

func BenchmarkFigure5Algorithm1(b *testing.B) {
	f := paper.NewFig5()
	var tags int
	for i := 0; i < b.N; i++ {
		bf := core.BruteForce(f.Graph, f.ELP.Paths())
		tags = bf.NumSwitchTags()
	}
	b.ReportMetric(float64(tags), "tags")
}

func BenchmarkFigure5Algorithm2(b *testing.B) {
	f := paper.NewFig5()
	bf := core.BruteForce(f.Graph, f.ELP.Paths())
	var tags int
	for i := 0; i < b.N; i++ {
		merged := core.GreedyMinimize(bf)
		tags = merged.NumSwitchTags()
	}
	b.ReportMetric(float64(tags), "tags")
}

// --- Table 5: Jellyfish scalability -------------------------------------------

func benchTable5(b *testing.B, switches, ports, extra int) {
	b.Helper()
	var row Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = Table5Case(switches, ports, extra, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.Priorities), "priorities")
	b.ReportMetric(float64(row.Rules), "max-rules")
	b.ReportMetric(float64(row.LongestLossless), "longest")
}

func BenchmarkTable5Jellyfish50(b *testing.B)  { benchTable5(b, 50, 12, 0) }
func BenchmarkTable5Jellyfish100(b *testing.B) { benchTable5(b, 100, 16, 0) }
func BenchmarkTable5Jellyfish200(b *testing.B) { benchTable5(b, 200, 24, 0) }
func BenchmarkTable5JellyfishRandomPaths(b *testing.B) {
	benchTable5(b, 100, 16, 10000)
}

// --- Figure 1 / Figure 3: CBD detection ----------------------------------------

func BenchmarkFigure3CBDDetect(b *testing.B) {
	c := paper.Testbed()
	paths := []routing.Path{paper.Fig3GreenPath(c), paper.Fig3BluePath(c)}
	var cyc int
	for i := 0; i < b.N; i++ {
		d := cbd.FromPaths(c.Graph, paths, cbd.SinglePriority(1))
		cyc = len(d.FindCycle())
	}
	b.ReportMetric(float64(cyc), "cycle-len")
}

func BenchmarkFigure3CBDUnderTagger(b *testing.B) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	paths := []routing.Path{paper.Fig3GreenPath(c), paper.Fig3BluePath(c)}
	classify := func(p routing.Path) []int { return rs.Priorities(p, 1) }
	var cyc int
	for i := 0; i < b.N; i++ {
		d := cbd.FromPaths(c.Graph, paths, classify)
		cyc = len(d.FindCycle())
	}
	b.ReportMetric(float64(cyc), "cycle-len") // 0: Tagger breaks the CBD
}

// --- Figure 4 / Figure 6: Clos tagging -----------------------------------------

func BenchmarkFigure4ClosSynthesis(b *testing.B) {
	c := paper.Testbed()
	set := elp.KBounce(c.Graph, c.ToRs, 1, nil)
	var queues int
	for i := 0; i < b.N; i++ {
		sys, err := core.ClosSynthesize(c.Graph, set.Paths(), 1)
		if err != nil {
			b.Fatal(err)
		}
		queues = sys.NumLosslessQueues()
	}
	b.ReportMetric(float64(queues), "queues")
}

func BenchmarkFigure6GreedyVsOptimal(b *testing.B) {
	var res Figure6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Figure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.GreedyQueues), "greedy-queues")
	b.ReportMetric(float64(res.OptimalQueues), "optimal-queues")
}

// --- Figures 10-12: simulator experiments ---------------------------------------

func benchFigure(b *testing.B, name string, withTagger bool) {
	b.Helper()
	var res ExperimentResult
	for i := 0; i < b.N; i++ {
		res = mustFigure(b, name, withTagger)
	}
	dl := 0.0
	if res.Deadlocked {
		dl = 1
	}
	var late float64
	for _, f := range res.Flows {
		late += f.LateGbps
	}
	b.ReportMetric(dl, "deadlocked")
	b.ReportMetric(late, "late-gbps")
}

func BenchmarkFigure10Baseline(b *testing.B)   { benchFigure(b, "fig10", false) }
func BenchmarkFigure10WithTagger(b *testing.B) { benchFigure(b, "fig10", true) }
func BenchmarkFigure11Baseline(b *testing.B)   { benchFigure(b, "fig11", false) }
func BenchmarkFigure11WithTagger(b *testing.B) { benchFigure(b, "fig11", true) }
func BenchmarkFigure12Baseline(b *testing.B)   { benchFigure(b, "fig12", false) }
func BenchmarkFigure12WithTagger(b *testing.B) { benchFigure(b, "fig12", true) }

// --- §8 overhead -------------------------------------------------------------------

func BenchmarkTaggerOverhead(b *testing.B) {
	var res OverheadResult
	for i := 0; i < b.N; i++ {
		res = Overhead()
	}
	b.ReportMetric(res.PenaltyPercent(), "penalty-%")
	b.ReportMetric(res.BaselineGbps, "baseline-gbps")
}

// --- §5.3 Algorithm 2 runtime scaling (S1) -------------------------------------------

func benchAlg2(b *testing.B, switches, ports int) {
	b.Helper()
	j, err := NewJellyfish(JellyfishConfig{Switches: switches, Ports: ports, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	set := elp.ShortestAll(j.Graph, j.Switches)
	bf := core.BruteForce(j.Graph, set.Paths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GreedyMinimize(bf)
	}
}

func BenchmarkAlgorithm2Jellyfish50(b *testing.B)  { benchAlg2(b, 50, 12) }
func BenchmarkAlgorithm2Jellyfish100(b *testing.B) { benchAlg2(b, 100, 16) }
func BenchmarkAlgorithm2Jellyfish200(b *testing.B) { benchAlg2(b, 200, 24) }

// --- §6 multi-class (S2) ---------------------------------------------------------------

func BenchmarkMultiClassComposition(b *testing.B) {
	var res MultiClassResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = MultiClass(2, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SharedQueues), "shared-queues")
	b.ReportMetric(float64(res.NaiveQueues), "naive-queues")
}

// --- §7 rule compression (S3) -------------------------------------------------------------

func BenchmarkRuleCompression(b *testing.B) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	rules := rs.Rules()
	var entries int
	for i := 0; i < b.N; i++ {
		entries = len(CompressRules(rules))
	}
	b.ReportMetric(float64(len(rules)), "exact-rules")
	b.ReportMetric(float64(entries), "tcam-entries")
}

// --- BCube (§5.3) ------------------------------------------------------------------------

func BenchmarkBCubeSynthesis(b *testing.B) {
	var tags int
	for i := 0; i < b.N; i++ {
		var err error
		tags, err = BCubeTags(4, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tags), "tags")
}

// --- Prevention vs detect-and-break recovery (related-work baseline) -----------------------

func BenchmarkRecoveryVsTagger(b *testing.B) {
	var res RecoveryComparison
	for i := 0; i < b.N; i++ {
		res = CompareRecovery()
	}
	b.ReportMetric(float64(res.RecoveryDetections), "reformations")
	b.ReportMetric(res.RecoveryGoodputGbps, "recovery-gbps")
	b.ReportMetric(res.TaggerGoodputGbps, "tagger-gbps")
}

// --- DCQCN interaction (§6) -------------------------------------------------------------

func BenchmarkDCQCNInteraction(b *testing.B) {
	var res DCQCNResult
	for i := 0; i < b.N; i++ {
		res = DCQCNExperiment()
	}
	b.ReportMetric(float64(res.PausesWithoutCC), "pauses-no-cc")
	b.ReportMetric(float64(res.PausesWithCC), "pauses-cc")
}

// --- §3.3 queue budget --------------------------------------------------------------------

func BenchmarkQueueBudget(b *testing.B) {
	var rows []QueueBudgetRow
	for i := 0; i < b.N; i++ {
		rows = QueueBudget()
	}
	b.ReportMetric(float64(rows[0].MaxLossless), "queues-40g")
	b.ReportMetric(float64(rows[1].MaxLossless), "queues-100g")
}

// --- §7 compression levels -------------------------------------------------------------------

func BenchmarkCompressionLevels(b *testing.B) {
	var lv tcam.CompressionLevels
	for i := 0; i < b.N; i++ {
		lv = CompressionAblation()
	}
	b.ReportMetric(float64(lv.Exact), "exact")
	b.ReportMetric(float64(lv.InPortOnly), "inport-only")
	b.ReportMetric(float64(lv.Joint), "joint")
}

// --- §6 isolation trade-off ----------------------------------------------------------------

func BenchmarkIsolationCost(b *testing.B) {
	var res IsolationResult
	for i := 0; i < b.N; i++ {
		res = IsolationCost()
	}
	b.ReportMetric(res.VictimCleanGbps, "victim-clean-gbps")
	b.ReportMetric(res.VictimMixedGbps, "victim-mixed-gbps")
}

// --- Organic failure reconvergence (§3 end to end) --------------------------------------------

func BenchmarkReconvergenceBaseline(b *testing.B) {
	var res ExperimentResult
	for i := 0; i < b.N; i++ {
		res = Reconvergence(false, 8)
	}
	dl := 0.0
	if res.Deadlocked {
		dl = 1
	}
	b.ReportMetric(dl, "deadlocked")
}

func BenchmarkReconvergenceWithTagger(b *testing.B) {
	var res ExperimentResult
	for i := 0; i < b.N; i++ {
		res = Reconvergence(true, 8)
	}
	dl := 0.0
	if res.Deadlocked {
		dl = 1
	}
	var late float64
	for _, f := range res.Flows {
		late += f.LateGbps
	}
	b.ReportMetric(dl, "deadlocked")
	b.ReportMetric(late, "late-gbps")
}

// --- Frame-level dataplane -------------------------------------------------------------------

func BenchmarkDataplaneFrameForward(b *testing.B) {
	c := paper.Testbed()
	rs := core.ClosRules(c.Graph, 1, 1)
	fab := dataplane.Compile(c.Graph, rs)
	green := paper.Fig3GreenPath(c)
	pkt := &wire.RoCEv2Packet{
		IP:  wire.IPv4{DSCP: 1, TTL: 64},
		BTH: wire.BTH{Opcode: wire.OpcodeRCWriteOnly},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Encode + full 6-hop pipeline walk: the cost a software
		// forwarder would pay per packet.
		frame := wire.EncodeRoCEv2(pkt)
		if _, err := fab.ForwardFrame(frame, green); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Incremental re-synthesis under churn (§4 deployability) ---------------------------------

// benchFlapClos is large enough that a single link flap touches only a
// sliver of the rule space — the regime where incremental re-synthesis
// pays for itself. The wide spine layer (64 of the 80 links are
// leaf-spine) makes leaf-spine the dominant link class, so that is the
// link the flap benchmarks exercise.
func benchFlapClos(b *testing.B) (*topology.Clos, *elp.Set) {
	b.Helper()
	cl, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	return cl, elp.KBounce(cl.Graph, cl.ToRs, 1, nil)
}

// BenchmarkResynthSingleLinkFlap: one L1-S1 down + up cycle through the
// incremental path (tracker delta + Resynth.Apply twice per iteration).
func BenchmarkResynthSingleLinkFlap(b *testing.B) {
	cl, set := benchFlapClos(b)
	g := cl.Graph
	rs, err := core.NewResynth(g, set.Paths(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr := elp.NewTracker(g, set)
	l1, s1 := g.MustLookup("L1"), g.MustLookup("S1")
	b.ReportMetric(float64(set.Len()), "paths")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FailLink(l1, s1)
		if _, err := rs.Apply(nil, tr.LinkDown(l1, s1)); err != nil {
			b.Fatal(err)
		}
		g.RestoreLink(l1, s1)
		if _, err := rs.Apply(tr.LinkUp(l1, s1), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSynthSingleLinkFlap: the same flap handled the pre-churn
// way — re-enumerate the ELP and synthesize from scratch after each
// topology change. The Resynth benchmark above must beat this by >=10x.
func BenchmarkFullSynthSingleLinkFlap(b *testing.B) {
	cl, _ := benchFlapClos(b)
	g := cl.Graph
	l1, s1 := g.MustLookup("L1"), g.MustLookup("S1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FailLink(l1, s1)
		set := elp.KBounce(g, cl.ToRs, 1, nil)
		if _, err := core.Synthesize(g, set.Paths(), core.Options{}); err != nil {
			b.Fatal(err)
		}
		g.RestoreLink(l1, s1)
		set = elp.KBounce(g, cl.ToRs, 1, nil)
		if _, err := core.Synthesize(g, set.Paths(), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Trace capture cost ------------------------------------------------------------------

// traceCaptureEvents is the simulator's hot-path event mix: PFC
// transitions with queue depths plus a drop, all names already seen.
var traceCaptureEvents = []sim.TraceEvent{
	{T: 1, Kind: "pause", Node: "T1", Peer: "L1", Prio: 1, Depth: 9216},
	{T: 2, Kind: "resume", Node: "T1", Peer: "L1", Prio: 1, Depth: 512},
	{T: 3, Kind: "drop", Node: "T1", Flow: "f1", Reason: "ttl"},
}

// BenchmarkTraceCapture compares the per-event capture cost of the two
// trace encodings as taggersim wires them: straight to a file. JSONL
// pays a synchronous encode + write per event on the simulator's
// goroutine; binary pays a fixed-width marshal into the ring and lets
// the background writer own the file. Binary must stay at 0 allocs/op
// (TestBinaryTracerZeroAlloc and the benchgate's -alloc-threshold pin
// it) and ≥10x cheaper per event (TestTraceCaptureSpeedup pins that).
func BenchmarkTraceCapture(b *testing.B) {
	b.Run("Binary", func(b *testing.B) {
		f, err := os.Create(filepath.Join(b.TempDir(), "trace.bin"))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		bt, err := sim.NewBinaryTracer(f, trace.Config{
			RingSize: 1 << 18, FlushInterval: 200 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range traceCaptureEvents { // warm the intern table
			bt.Trace(ev)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bt.Trace(traceCaptureEvents[i%len(traceCaptureEvents)])
		}
		b.StopTimer()
		if err := bt.Close(); err != nil {
			b.Fatal(err)
		}
		if n := bt.Dropped(); n > 0 {
			b.Fatalf("ring dropped %d events; the timing excludes real capture work", n)
		}
	})
	b.Run("JSONL", func(b *testing.B) {
		f, err := os.Create(filepath.Join(b.TempDir(), "trace.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		tr := &trace.JSONLWriter{W: f}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Trace(traceCaptureEvents[i%len(traceCaptureEvents)])
		}
		b.StopTimer()
		if tr.Err != nil || tr.Dropped != 0 {
			b.Fatalf("err=%v dropped=%d", tr.Err, tr.Dropped)
		}
	})
}

// TestTraceCaptureSpeedup gates the tentpole claim in-suite: capturing
// an event to a file in the binary format must cost at least 10x less
// simulator time than the JSONL tracer (in practice far more — the
// JSONL path is a synchronous encode + write syscall per event).
// Best-of-three damps scheduler noise.
func TestTraceCaptureSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector: its atomics instrumentation taxes the ring far more than the JSONL encoder")
	}
	const n = 100_000
	dir := t.TempDir()
	best := func(f func(path string) time.Duration, name string) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			if d := f(filepath.Join(dir, fmt.Sprintf("%s.%d", name, i))); d < min {
				min = d
			}
		}
		return min
	}
	binary := best(func(path string) time.Duration {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		bt, err := sim.NewBinaryTracer(f, trace.Config{RingSize: 1 << 18})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range traceCaptureEvents {
			bt.Trace(ev)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			bt.Trace(traceCaptureEvents[i%len(traceCaptureEvents)])
		}
		elapsed := time.Since(start)
		if err := bt.Close(); err != nil {
			t.Fatal(err)
		}
		if d := bt.Dropped(); d > 0 {
			t.Fatalf("binary capture dropped %d events", d)
		}
		return elapsed
	}, "bin")
	jsonl := best(func(path string) time.Duration {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tr := &trace.JSONLWriter{W: f}
		start := time.Now()
		for i := 0; i < n; i++ {
			tr.Trace(traceCaptureEvents[i%len(traceCaptureEvents)])
		}
		return time.Since(start)
	}, "jsonl")
	if binary*10 > jsonl {
		t.Errorf("binary capture %v for %d events vs JSONL %v: less than the promised 10x", binary, n, jsonl)
	}
}

// --- Simulator raw throughput --------------------------------------------------------------

func BenchmarkSimulatorPacketRate(b *testing.B) {
	c := paper.Testbed()
	for i := 0; i < b.N; i++ {
		tb := routing.ComputeToHosts(c.Graph, routing.UpDown)
		n := NewSimulation(c.Graph, tb, DefaultSimConfig())
		n.AddFlow(FlowSpec{Name: "x", Src: c.Hosts[0], Dst: c.Hosts[8]})
		n.Run(5_000_000) // 5 ms of simulated 40G traffic
	}
}

// --- Synthesis cache: warm hits and pod memoization ---------------------------

// synthCacheJellyfish builds the Jellyfish200 workload the cache
// benchmarks share: the fabric and its 1-shortest-path ELP.
func synthCacheJellyfish(tb testing.TB) (*topology.Jellyfish, []routing.Path) {
	tb.Helper()
	j, err := topology.NewJellyfish(topology.JellyfishConfig{Switches: 200, Ports: 24, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return j, elp.ShortestAllN(j.Graph, j.Switches, 1).Paths()
}

// BenchmarkSynthCacheCold is the baseline for the warm-hit claim: every
// iteration pays the full pipeline on a fresh cache — canonicalization,
// Algorithms 1+2, TCAM compilation.
func BenchmarkSynthCacheCold(b *testing.B) {
	j, paths := synthCacheJellyfish(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := synthcache.New(8)
		if _, err := cache.Synthesize(j.Graph, paths, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthCacheWarm times the steady state a long-lived controller
// or sweep sees: the same (topology, ELP) request answered from the
// cache. Pair with BenchmarkSynthCacheCold for the ≥50x tentpole ratio
// (gated in-suite by TestSynthCacheWarmSpeedup).
func BenchmarkSynthCacheWarm(b *testing.B) {
	j, paths := synthCacheJellyfish(b)
	cache := synthcache.New(8)
	if _, err := cache.Synthesize(j.Graph, paths, core.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cache.Synthesize(j.Graph, paths, core.Options{})
		if err != nil || !r.Hit {
			b.Fatalf("warm request missed (hit=%v err=%v)", r.Hit, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(cache.Stats().HitRatio(), "hit-ratio")
}

// BenchmarkFatTreeSynthFromScratch is the cold baseline for pod
// memoization: full KBounce enumeration over every pod pair of a k=8
// fat-tree (5.2M paths) plus Clos rule synthesis and replay. k=16 (the
// paper's largest) is infeasible here — enumeration alone is hours —
// which is exactly the motivation for stamping.
func BenchmarkFatTreeSynthFromScratch(b *testing.B) {
	ft, err := topology.NewFatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := elp.KBounce(ft.Graph, ft.Edges, 1, nil)
		if _, err := core.ClosSynthesize(ft.Graph, set.Paths(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFatTreePodMemoized builds the same system via
// representative-pod stamping: one pod pair enumerated and replayed, the
// other 54 ordered pairs stamped by pod-permutation automorphisms
// (rule-identical — see make cache-fuzz). Each iteration uses a fresh
// cache so it times the memoized BUILD, not a warm hit.
func BenchmarkFatTreePodMemoized(b *testing.B) {
	ft, err := topology.NewFatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := synthcache.New(8)
		r, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1)
		if err != nil || !r.PodMemoized {
			b.Fatalf("pod stamping not used (memoized=%v err=%v)", r.PodMemoized, err)
		}
	}
}

// TestSynthCacheWarmSpeedup gates the tentpole claim in-suite: a warm
// cache hit on Jellyfish200 must be at least 50x faster than cold
// synthesis (in practice orders of magnitude — the warm path is two map
// lookups and a hash of the option key).
func TestSynthCacheWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	j, paths := synthCacheJellyfish(t)
	cache := synthcache.New(8)
	start := time.Now()
	if _, err := cache.Synthesize(j.Graph, paths, core.Options{}); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	const iters = 200
	warm := time.Duration(1<<63 - 1)
	for round := 0; round < 3; round++ {
		start = time.Now()
		for i := 0; i < iters; i++ {
			r, err := cache.Synthesize(j.Graph, paths, core.Options{})
			if err != nil || !r.Hit {
				t.Fatalf("warm request missed (hit=%v err=%v)", r.Hit, err)
			}
		}
		if d := time.Since(start) / iters; d < warm {
			warm = d
		}
	}
	if ratio := float64(cold) / float64(warm); ratio < 50 {
		t.Errorf("warm cache speedup %.1fx, want >= 50x (cold %v, warm %v)", ratio, cold, warm)
	}
}

// TestFatTreePodMemoizedSpeedup gates the pod-memoization claim: the
// stamped k=8 fat-tree build must be at least 4x faster than from
// scratch (measured ~6-12x: the representative pair still pays its own
// enumeration and replay).
func TestFatTreePodMemoizedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector")
	}
	ft, err := topology.NewFatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	set := elp.KBounce(ft.Graph, ft.Edges, 1, nil)
	if _, err := core.ClosSynthesize(ft.Graph, set.Paths(), 1); err != nil {
		t.Fatal(err)
	}
	scratch := time.Since(start)

	memo := time.Duration(1<<63 - 1)
	for round := 0; round < 2; round++ {
		cache := synthcache.New(8)
		start = time.Now()
		r, err := cache.ClosKBounce(ft.Graph, ft.Edges, 1)
		if err != nil || !r.PodMemoized {
			t.Fatalf("pod stamping not used (memoized=%v err=%v)", r.PodMemoized, err)
		}
		if d := time.Since(start); d < memo {
			memo = d
		}
	}
	if ratio := float64(scratch) / float64(memo); ratio < 4 {
		t.Errorf("pod-memoized speedup %.1fx, want >= 4x (scratch %v, memoized %v)", ratio, scratch, memo)
	}
}
