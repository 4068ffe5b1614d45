package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/tcam"
	"repro/internal/topology"
)

// sim-clos-load: each operation simulates one 1 ms slice of a 40-switch,
// 64-host Clos carrying the Tagger rules, with no observers attached:
// a cross-pod permutation (every host sends to one host in another pod)
// plus incast hot spots. The routing tables, the rules and simLoadSlices
// seeded flow sets are built during set-up; operation i runs slice
// i mod simLoadSlices, so repeated slices also check determinism. A run
// ends on a pass boundary so every slice weighs the same in the
// percentiles.

var loadClos = topology.ClosConfig{Pods: 4, ToRsPerPod: 4, LeafsPerPod: 4, Spines: 8, HostsPerToR: 4}

const (
	simLoadSlices   = 16
	simLoadHorizon  = time.Millisecond
	simLoadSteady   = 300 * time.Microsecond // goodput window starts here
	simLoadHotSpots = 2
	simLoadIncast   = 6 // senders per hot spot
)

type simLoad struct {
	clos   *topology.Clos
	tables *routing.Tables
	rules  *core.Ruleset
	slices [][]sim.FlowSpec

	tablesMs, rulesMs float64

	first   []string  // digest of each slice's first run
	goodput []float64 // per slice
	rates   []float64 // delivered packets per second, per operation

	// Traced-run tallies.
	pauses, allocKB []float64
	tracedPkts      int64
}

func setupSimLoad(seed int64) (runner, error) {
	c, err := topology.NewClos(loadClos)
	if err != nil {
		return nil, fmt.Errorf("clos: %w", err)
	}
	l := &simLoad{clos: c}
	t0 := time.Now()
	l.tables = routing.ComputeToHosts(c.Graph, routing.UpDown)
	l.tablesMs = ms(time.Since(t0))
	t0 = time.Now()
	l.rules = core.ClosRules(c.Graph, 1, 1)
	l.rulesMs = ms(time.Since(t0))

	rng := rand.New(rand.NewSource(seed))
	perPod := len(c.Hosts) / loadClos.Pods
	for k := 0; k < simLoadSlices; k++ {
		l.slices = append(l.slices, loadFlows(c, perPod, rng))
		if n := l.build(k); len(n.Flows()) != len(l.slices[k]) {
			return nil, fmt.Errorf("slice %d: %d of %d flows admitted", k, len(n.Flows()), len(l.slices[k]))
		}
	}
	l.first = make([]string, simLoadSlices)
	return l, nil
}

// loadFlows draws one slice's flow set: a pod derangement with a random
// host bijection inside each pod pair, plus incast senders from other
// pods onto a few hot hosts, all starting within the first 50 µs.
func loadFlows(c *topology.Clos, perPod int, rng *rand.Rand) []sim.FlowSpec {
	pods := loadClos.Pods
	var to []int
	for {
		to = rng.Perm(pods)
		ok := true
		for p, q := range to {
			ok = ok && p != q
		}
		if ok {
			break
		}
	}
	start := func() time.Duration { return time.Duration(rng.Intn(50)) * time.Microsecond }
	g := c.Graph
	var flows []sim.FlowSpec
	for p := 0; p < pods; p++ {
		perm := rng.Perm(perPod)
		for k := 0; k < perPod; k++ {
			src, dst := c.Hosts[p*perPod+k], c.Hosts[to[p]*perPod+perm[k]]
			flows = append(flows, sim.FlowSpec{
				Name: fmt.Sprintf("perm-%s-%s", g.Node(src).Name, g.Node(dst).Name),
				Src:  src, Dst: dst, Start: start(),
			})
		}
	}
	for h := 0; h < simLoadHotSpots; h++ {
		dst := rng.Intn(len(c.Hosts))
		for _, s := range rng.Perm(len(c.Hosts)) {
			if len(flows) == pods*perPod+(h+1)*simLoadIncast {
				break
			}
			if s/perPod == dst/perPod {
				continue
			}
			flows = append(flows, sim.FlowSpec{
				Name: fmt.Sprintf("incast%d-%s-%s", h, g.Node(c.Hosts[s]).Name, g.Node(c.Hosts[dst]).Name),
				Src:  c.Hosts[s], Dst: c.Hosts[dst], Start: start(),
			})
		}
	}
	return flows
}

func (l *simLoad) done(ops int) bool { return ops >= simLoadSlices && ops%simLoadSlices == 0 }

func (l *simLoad) op(i int, tr *tracer) (opTime, error) {
	k := i % simLoadSlices
	var n *sim.Network
	var d opTime
	var alloc uint64
	if tr == nil {
		sw := startWatch()
		n = l.build(k)
		n.Run(simLoadHorizon)
		d = sw.stop()
	} else {
		alloc = totalAlloc()
		sw := startWatch()
		root := tr.beginOp(i, fmt.Sprintf("slice-%d", k))
		s := tr.begin("sim.build")
		n = l.build(k)
		tr.end(s)
		s = tr.begin("sim.run")
		n.Run(simLoadHorizon)
		tr.end(s)
		tr.end(root)
		d = sw.stop()
		l.allocKB = append(l.allocKB, allocKB(alloc))
		l.pauses = append(l.pauses, float64(n.PauseFrames))
		l.tracedPkts += deliveredPackets(n)
	}
	if n.Deadlocked() {
		return d, fmt.Errorf("slice %d deadlocked", k)
	}
	if v := n.Drops().HeadroomViolation; v > 0 {
		return d, fmt.Errorf("slice %d: %d lossless packets dropped over headroom", k, v)
	}
	for _, f := range n.Flows() {
		if f.Received() == 0 {
			return d, fmt.Errorf("slice %d: flow %s delivered nothing", k, f.Name())
		}
	}
	dg := simDigest{Slice: k, Pause: n.PauseFrames, Resume: n.ResumeFrames, Drops: n.Drops()}
	dg.addFlows(n.Flows())
	if err := l.firstOrSame(k, dg.String()); err != nil {
		return d, err
	}
	if tr == nil {
		l.rates = append(l.rates, float64(deliveredPackets(n))/d.wall.Seconds())
		if i < simLoadSlices {
			var gbps float64
			for _, f := range n.Flows() {
				gbps += f.MeanGbps(simLoadSteady, simLoadHorizon)
			}
			l.goodput = append(l.goodput, gbps)
		}
	}
	return d, nil
}

// firstOrSame records a slice's first digest and fails any later run of
// the same slice — traced or not — that simulated something else.
func (l *simLoad) firstOrSame(k int, dg string) error {
	if l.first[k] == "" {
		l.first[k] = dg
		return nil
	}
	if l.first[k] != dg {
		return fmt.Errorf("slice %d is not deterministic:\n first %s\n now   %s", k, l.first[k], dg)
	}
	return nil
}

func (l *simLoad) build(k int) *sim.Network {
	n := sim.New(l.clos.Graph, l.tables, sim.DefaultConfig())
	n.InstallTagger(l.rules)
	for _, f := range l.slices[k] {
		n.AddFlow(f)
	}
	return n
}

func deliveredPackets(n *sim.Network) int64 {
	var b int64
	for _, f := range n.Flows() {
		b += f.Received()
	}
	return b / int64(sim.DefaultConfig().MTU)
}

func (l *simLoad) quality() []metric {
	rules := l.rules.Rules()
	return []metric{
		{"lossless_queues", float64(l.rules.MaxTag())},
		{"tcam_entries", float64(tcam.MaxPerSwitch(tcam.Compress(rules)))},
		{"rules_written_per_op", float64(len(rules))},
	}
}

func (l *simLoad) perLayer(tr *tracer) []metric {
	return []metric{
		{"sim.run_s", tr.meanMs("sim.run") / 1e3},
		{"sim.ns_per_pkt", tr.totalMs("sim.run") * 1e6 / float64(l.tracedPkts)},
		{"sim.pause_frames", mean(l.pauses)},
		{"sim.alloc_kb_per_run", mean(l.allocKB)},
		{"sim.pkts_per_s", median(l.rates)},
		{"sim.goodput_gbps", mean(l.goodput)},
		{"routing.tables_ms", l.tablesMs},
		{"core.clos_rules_ms", l.rulesMs},
	}
}

func (l *simLoad) finish() error { return nil }

func (l *simLoad) digests() []string { return l.first }

// simDigest is the simulated behaviour of one run: what each flow
// delivered, the PFC frames sent, the drops by reason and the deadlock
// episodes. Two runs of the same inputs must produce the same digest.
type simDigest struct {
	Slice      int              `json:"slice"`
	Seed       int64            `json:"seed,omitempty"`
	Arm        string           `json:"arm,omitempty"`
	Delivered  map[string]int64 `json:"delivered_bytes"`
	Pause      int64            `json:"pause_frames"`
	Resume     int64            `json:"resume_frames"`
	Drops      sim.DropStats    `json:"drops"`
	Onsets     int              `json:"onsets"`
	Recoveries int              `json:"recoveries"`
}

func (d *simDigest) addFlows(flows []*sim.Flow) {
	d.Delivered = make(map[string]int64, len(flows))
	for _, f := range flows {
		d.Delivered[f.Name()] = f.Received()
	}
}

func (d simDigest) String() string {
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	return string(b)
}
