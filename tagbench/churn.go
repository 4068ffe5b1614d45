package main

import (
	"fmt"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/synthcache"
	"repro/internal/tcam"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// fabric-churn: one churn controller (NewChurn over the bring-up Clos,
// k=1, synthesis cache attached) handles a seeded stream of link
// down/up and drain/undrain events over every switch-to-switch link and
// every switch; every rebootEvery-th operation instead reboots a seeded
// switch's agent and runs Reconcile. Each operation is timed from call
// to return.
//
// Every link and every switch is equally likely to be the subject of
// an event. The elements fall into classes whose events cost several
// times more or less than each other's (leaf-spine links, ToR-leaf
// links, ToRs, leaves, spines), so rather than leave each run's class
// mix to chance the stream takes each class's share exactly: one
// chaos.GenerateChurn sequence per class, interleaved in a period in
// which each class has as many slots as it has elements (divided by
// their common divisor). The seed picks the element within its class.

const (
	// churnEvents is the stream length set-up generates; a run that gets
	// further extends it (see event).
	churnEvents      = 1024
	churnRebootEvery = 20
	// The output-quality metrics average over the first churnPrefixPeriods
	// periods of the stream, so they are a fixed function of the seed.
	churnPrefixPeriods = 14
	// The oracle re-verifies the deployed system every churnVerifyEvery
	// operations and at the end of the run; the fabric is compared with
	// intent after every operation.
	churnVerifyEvery = 20
	// Per class, at most churnMaxDownLinks links are down and
	// churnMaxDrained switches drained at once: routine churn on a
	// near-healthy fabric. With the generator's defaults (a quarter of
	// the candidates plus one) a run's few hundred events follow its
	// seed's walk into more or less degraded fabrics, and the median
	// per-event cost moved by up to 40% from seed to seed.
	churnMaxDownLinks = 2
	churnMaxDrained   = 1
)

type churnLane struct {
	clos  *topology.Clos
	fab   *chaos.Fabric
	cache *synthcache.Cache
	ctl   *controller.Controller
	next  int // index of the next churn event
}

type churn struct {
	seed      int64
	classes   []chaos.ChurnConfig  // one per event class
	streams   [][]chaos.ChurnEvent // each class's generated sequence
	used      []int                // events of each stream in seq
	period    []int                // class of each slot of one period
	seq       []chaos.ChurnEvent
	names     []string
	rebootRng *rand.Rand
	reboots   []string
	lanes     [2]*churnLane // untraced, traced (built on first traced op)

	// Output quality after each event of the prefix: rules moved (added,
	// removed or modified), lossless queues, and the largest per-switch
	// compressed TCAM.
	moved, queues, entries []float64

	// Traced-run tallies.
	events, fullRebuilds, cacheHits  int64
	rulesUnchanged, changed, skipped int64
}

func setupChurn(seed int64) (runner, error) {
	lane, err := newChurnLane(nil)
	if err != nil {
		return nil, err
	}
	cl := lane.clos
	g := cl.Graph
	c := &churn{seed: seed, names: switchNames(g), rebootRng: rand.New(rand.NewSource(seed))}
	spine := map[topology.NodeID]bool{}
	for _, id := range cl.Spines {
		spine[id] = true
	}
	var leafSpine, torLeaf chaos.ChurnConfig
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(topology.LinkID(i))
		if !g.Node(l.A).Kind.IsSwitch() || !g.Node(l.B).Kind.IsSwitch() {
			continue
		}
		cfg := &torLeaf
		if spine[l.A] || spine[l.B] {
			cfg = &leafSpine
		}
		cfg.Links = append(cfg.Links, [2]string{g.Node(l.A).Name, g.Node(l.B).Name})
	}
	c.classes = []chaos.ChurnConfig{leafSpine, torLeaf}
	for _, layer := range [][]topology.NodeID{cl.ToRs, cl.Leaves, cl.Spines} {
		var cfg chaos.ChurnConfig
		for _, id := range layer {
			cfg.Switches = append(cfg.Switches, g.Node(id).Name)
		}
		c.classes = append(c.classes, cfg)
	}
	counts := make([]int, len(c.classes))
	div := 0
	for k := range c.classes {
		c.classes[k].MaxDownLinks, c.classes[k].MaxDrained = churnMaxDownLinks, churnMaxDrained
		counts[k] = len(c.classes[k].Links) + len(c.classes[k].Switches)
		div = gcd(div, counts[k])
	}
	for k := range counts {
		counts[k] /= div
	}
	c.period = interleave(counts)
	c.streams = make([][]chaos.ChurnEvent, len(c.classes))
	c.used = make([]int, len(c.classes))
	c.event(churnEvents - 1)
	for len(c.reboots) < churnEvents/churnRebootEvery {
		c.reboots = append(c.reboots, c.names[c.rebootRng.Intn(len(c.names))])
	}
	c.lanes[0] = lane
	return c, nil
}

// event returns churn event n of the stream, extending the stream by
// whole periods as far as n. A class's sequence that runs out is
// regenerated longer: GenerateChurn's sequences for one seed are
// prefixes of each other, so the stream is the same however fast the
// program consumes it.
func (c *churn) event(n int) chaos.ChurnEvent {
	for len(c.seq) <= n {
		for _, k := range c.period {
			if c.used[k] == len(c.streams[k]) {
				c.classes[k].Events = 2*c.used[k] + churnEvents
				c.streams[k] = chaos.GenerateChurn(c.classes[k], c.seed+int64(k))
			}
			c.seq = append(c.seq, c.streams[k][c.used[k]])
			c.used[k]++
		}
	}
	return c.seq[n]
}

// interleave returns one period of class indices in which class k takes
// counts[k] slots, spread as evenly as smooth weighted round-robin does.
func interleave(counts []int) []int {
	total := 0
	for _, n := range counts {
		total += n
	}
	credit := make([]int, len(counts))
	var out []int
	for len(out) < total {
		best := 0
		for k, n := range counts {
			credit[k] += n
			if credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= total
		out = append(out, best)
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// rebootTarget returns the switch reboot k restarts.
func (c *churn) rebootTarget(k int) string {
	for len(c.reboots) <= k {
		c.reboots = append(c.reboots, c.names[c.rebootRng.Intn(len(c.names))])
	}
	return c.reboots[k]
}

// newChurnLane builds a Clos, its fault-free fabric and a churn
// controller with the initial deployment active. With tr set, the
// controller talks to the fabric through the timing shim.
func newChurnLane(tr *tracer) (*churnLane, error) {
	c, err := topology.NewClos(fleetClos)
	if err != nil {
		return nil, fmt.Errorf("clos: %w", err)
	}
	l := &churnLane{clos: c, fab: chaos.NewFabric(switchNames(c.Graph)), cache: synthcache.New(synthcache.DefaultCapacity)}
	var agent controller.SwitchAgent = l.fab
	if tr != nil {
		agent = timedAgent{l.fab, tr}
	}
	l.ctl, err = controller.NewChurn(c.Graph,
		controller.KBouncePolicy(func() []topology.NodeID { return c.ToRs }, fleetBounceBudget),
		controller.WithAgent(agent), controller.WithSynthCache(l.cache))
	if err != nil {
		return nil, fmt.Errorf("churn controller: %w", err)
	}
	return l, nil
}

func (c *churn) done(int) bool { return len(c.moved) >= c.prefix() }

// prefix is how many churn events the output-quality metrics average
// over.
func (c *churn) prefix() int { return churnPrefixPeriods * len(c.period) }

func (c *churn) op(i int, tr *tracer) (opTime, error) {
	lane := c.lanes[0]
	if tr != nil {
		if c.lanes[1] == nil {
			l, err := newChurnLane(tr)
			if err != nil {
				return opTime{}, err
			}
			c.lanes[1] = l
		}
		lane = c.lanes[1]
	}
	if i%churnRebootEvery == churnRebootEvery-1 {
		return c.reboot(i, lane, c.rebootTarget(i/churnRebootEvery), tr)
	}
	ev := c.event(lane.next)
	lane.next++
	g := lane.clos.Graph
	var cev controller.Event
	switch ev.Kind {
	case chaos.ChurnLinkDown:
		cev = controller.Event{Kind: controller.EventLinkDown, A: g.MustLookup(ev.A), B: g.MustLookup(ev.B)}
	case chaos.ChurnLinkUp:
		cev = controller.Event{Kind: controller.EventLinkUp, A: g.MustLookup(ev.A), B: g.MustLookup(ev.B)}
	case chaos.ChurnDrain:
		cev = controller.Event{Kind: controller.EventSwitchDrain, A: g.MustLookup(ev.Switch)}
	case chaos.ChurnUndrain:
		cev = controller.Event{Kind: controller.EventSwitchUndrain, A: g.MustLookup(ev.Switch)}
	default:
		return opTime{}, fmt.Errorf("unexpected churn event %s", ev)
	}

	var d opTime
	var err error
	if tr == nil {
		sw := startWatch()
		err = lane.ctl.HandleChurn(cev)
		d = sw.stop()
	} else {
		rebuilds := telemetry.Default.Counter("resynth_full_rebuilds_total").Value()
		hits := lane.cache.Stats().Hits
		sw := startWatch()
		root := tr.beginOp(i, ev.String())
		call := tr.begin("controller.handle")
		err = lane.ctl.HandleChurn(cev)
		tr.end(call)
		tr.end(root)
		d = sw.stop()
		c.events++
		c.fullRebuilds += telemetry.Default.Counter("resynth_full_rebuilds_total").Value() - rebuilds
		c.cacheHits += lane.cache.Stats().Hits - hits
	}
	if err != nil {
		return d, fmt.Errorf("event %s: %w", ev, err)
	}
	log := lane.ctl.DeltaLog()
	st := log[len(log)-1]
	if tr == nil && len(c.moved) < c.prefix() {
		sys := lane.ctl.System()
		c.moved = append(c.moved, float64(st.RulesAdded+st.RulesRemoved+st.RulesModified))
		c.queues = append(c.queues, float64(sys.NumLosslessQueues()))
		c.entries = append(c.entries, float64(tcam.MaxPerSwitch(tcam.Compress(sys.Rules.Rules()))))
	}
	if tr != nil {
		c.rulesUnchanged += int64(st.RulesUnchanged)
		c.changed += int64(st.SwitchesChanged)
		c.skipped += int64(st.SwitchesSkipped)
	}
	if err := checkChurn(lane, i%churnVerifyEvery == churnVerifyEvery-1); err != nil {
		return d, fmt.Errorf("after event %s: %w", ev, err)
	}
	return d, nil
}

// reboot wipes one switch's agent state and times Reconcile bringing
// the fabric back to intent.
func (c *churn) reboot(i int, lane *churnLane, sw string, tr *tracer) (opTime, error) {
	var d opTime
	var err error
	if tr == nil {
		w := startWatch()
		lane.fab.Reboot(sw)
		_, err = lane.ctl.Reconcile()
		d = w.stop()
	} else {
		w := startWatch()
		root := tr.beginOp(i, "reboot "+sw)
		s := tr.begin("fabric.reboot")
		lane.fab.Reboot(sw)
		tr.end(s)
		s = tr.begin("deploy.reconcile")
		_, err = lane.ctl.Reconcile()
		tr.end(s)
		tr.end(root)
		d = w.stop()
	}
	if err != nil {
		return d, fmt.Errorf("reconcile after rebooting %s: %w", sw, err)
	}
	if err := checkChurn(lane, false); err != nil {
		return d, fmt.Errorf("after rebooting %s: %w", sw, err)
	}
	return d, nil
}

// checkChurn holds the fabric to intent and, with oracle set, the
// deployed system to the independent oracle.
func checkChurn(lane *churnLane, oracle bool) error {
	if oracle {
		if err := check.VerifySystem(lane.ctl.System()); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	return checkActive(lane.fab, lane.ctl.Bundle())
}

func (c *churn) finish() error {
	for _, lane := range c.lanes {
		if lane != nil {
			if err := checkChurn(lane, true); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *churn) quality() []metric {
	return []metric{
		{"lossless_queues", mean(c.queues)},
		{"tcam_entries", mean(c.entries)},
		{"rules_written_per_op", mean(c.moved)},
	}
}

func (c *churn) perLayer(tr *tracer) []metric {
	per := func(n int64) float64 { return float64(n) / float64(c.events) }
	perEventMs := func(name string) float64 { return tr.totalUnderMs(name, "controller.handle") / float64(c.events) }
	return []metric{
		{"controller.resynth_ms", tr.selfMs("controller.handle") / float64(c.events)},
		{"core.resynth_full_rebuilds", per(c.fullRebuilds)},
		{"synthcache.hits", per(c.cacheHits)},
		{"core.resynth_rules_reused", per(c.rulesUnchanged)},
		{"deploy.switches_changed_per_event", per(c.changed)},
		{"deploy.switches_skipped_per_event", per(c.skipped)},
		{"deploy.fetch_active_ms", perEventMs("deploy.fetch_active")},
		{"deploy.patch_ms", perEventMs("deploy.patch") + perEventMs("deploy.fetch")},
		{"deploy.activate_ms", perEventMs("deploy.activate")},
		{"deploy.reconcile_ms", tr.meanMs("deploy.reconcile")},
	}
}

func (c *churn) digests() []string { return nil }
