package main

import (
	"fmt"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/elp"
	"repro/internal/fingerprint"
	"repro/internal/routing"
	"repro/internal/synthcache"
	"repro/internal/tcam"
	"repro/internal/topology"
)

// fleet-bringup: each operation brings up one fabric from its topology to
// a verified rule bundle active on every agent. A pass is one sequence of
// requests against one shared synthesis cache: one Jellyfish fabric per
// size stratum (50..150 switches, shortest-path ELP, generic synthesis),
// one Clos fabric (NewClos, k=1), and four repeat fabrics — fresh graphs
// wired like an earlier request of the pass (two Jellyfish twins, two
// Clos twins). Each pass starts a fresh cache. fleetPasses distinct
// passes cycle, so a run covers fleetPasses fabrics of every size and
// the output-quality averages do not hang on one random wiring.

// fleetClos is the bring-up and churn Clos: 4 pods of 2 ToRs and 2
// leaves under 8 spines.
var fleetClos = topology.ClosConfig{Pods: 4, ToRsPerPod: 2, LeafsPerPod: 2, Spines: 8, HostsPerToR: 2}

const (
	fleetStrata       = 8 // Jellyfish sizes per pass
	fleetPasses       = 8 // distinct passes
	fleetClosTwins    = 2
	fleetMinSwitches  = 50
	fleetMaxSwitches  = 150
	fleetMinPorts     = 12
	fleetMaxPorts     = 20
	fleetBounceBudget = 1
)

type fleetRequest struct {
	name     string
	g        *topology.Graph
	clos     *topology.Clos    // nil for a Jellyfish request
	ends     []topology.NodeID // Jellyfish ELP endpoints
	switches []string
}

type fleetLane struct {
	cache *synthcache.Cache
	// lastPaths is the ELP the traced policy shim returned last.
	lastPaths []routing.Path
}

type fleet struct {
	passes [][]fleetRequest
	lanes  [2]fleetLane // untraced, traced

	// Output quality of the first fleetPasses passes, one value per
	// request.
	queues, entries, written []float64

	// Traced-run tallies.
	elpPaths            []float64
	conflicts           []float64
	rpcs                int64
	hits, misses, trans int64
}

func setupFleet(seed int64) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &fleet{}
	for p := 0; p < fleetPasses; p++ {
		pass, err := fleetPass(p, rng)
		if err != nil {
			return nil, err
		}
		f.passes = append(f.passes, pass)
	}
	return f, nil
}

// fleetPass builds pass p in seeded order. Each repeat fabric goes at a
// seeded position after the request it twins; pass p twins strata p%4
// and p%4+4, so every size is repeated equally often over the passes.
func fleetPass(p int, rng *rand.Rand) ([]fleetRequest, error) {
	cfgs := make([]topology.JellyfishConfig, fleetStrata)
	var reqs []fleetRequest
	for k := range cfgs {
		n := fleetMinSwitches + k*(fleetMaxSwitches-fleetMinSwitches)/(fleetStrata-1)
		cfgs[k] = topology.JellyfishConfig{
			Switches: n,
			Ports:    fleetMinPorts + (n-fleetMinSwitches)*(fleetMaxPorts-fleetMinPorts)/(fleetMaxSwitches-fleetMinSwitches),
			Seed:     rng.Int63(),
			// Small random-regular graphs come out disconnected for
			// some seeds; enough retries make every seed usable.
			Attempts: 64,
		}
		r, err := jellyRequest(cfgs[k])
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	c, err := closRequest()
	if err != nil {
		return nil, err
	}
	reqs = append(reqs, c)
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	var twins []fleetRequest
	for _, k := range []int{p % (fleetStrata / 2), p%(fleetStrata/2) + fleetStrata/2} {
		r, err := jellyRequest(cfgs[k])
		if err != nil {
			return nil, err
		}
		twins = append(twins, r)
	}
	for i := 0; i < fleetClosTwins; i++ {
		r, err := closRequest()
		if err != nil {
			return nil, err
		}
		twins = append(twins, r)
	}
	for _, r := range twins {
		at := 0
		for i, q := range reqs {
			if q.name == r.name {
				at = i + 1
			}
		}
		at += rng.Intn(len(reqs) - at + 1)
		reqs = append(reqs[:at], append([]fleetRequest{r}, reqs[at:]...)...)
	}
	return reqs, nil
}

func jellyRequest(cfg topology.JellyfishConfig) (fleetRequest, error) {
	j, err := topology.NewJellyfish(cfg)
	if err != nil {
		return fleetRequest{}, fmt.Errorf("jellyfish %d switches: %w", cfg.Switches, err)
	}
	return fleetRequest{
		name: fmt.Sprintf("jellyfish-%d-%d", cfg.Switches, cfg.Seed),
		g:    j.Graph, ends: j.Switches, switches: switchNames(j.Graph),
	}, nil
}

func closRequest() (fleetRequest, error) {
	c, err := topology.NewClos(fleetClos)
	if err != nil {
		return fleetRequest{}, fmt.Errorf("clos: %w", err)
	}
	return fleetRequest{name: "clos", g: c.Graph, clos: c, switches: switchNames(c.Graph)}, nil
}

// done ends a run on a pass boundary once every distinct pass ran, so
// the operations always form whole passes.
func (f *fleet) done(ops int) bool {
	n := len(f.passes[0])
	return ops >= n*fleetPasses && ops%n == 0
}

func (f *fleet) op(i int, tr *tracer) (opTime, error) {
	n := len(f.passes[0])
	req := f.passes[i/n%fleetPasses][i%n]
	lane := &f.lanes[0]
	if tr != nil {
		lane = &f.lanes[1]
	}
	if i%n == 0 {
		lane.cache = synthcache.New(synthcache.DefaultCapacity)
	}
	fab := chaos.NewFabric(req.switches)
	before := lane.cache.Stats()
	var ctl *controller.Controller
	var err error
	var d opTime
	if tr == nil {
		sw := startWatch()
		ctl, err = bringUp(req, lane.cache, fab, req.policy)
		d = sw.stop()
	} else {
		traced := func(g *topology.Graph) *elp.Set {
			defer tr.end(tr.begin("elp.enum"))
			s := req.policy(g)
			lane.lastPaths = s.Paths()
			return s
		}
		sw := startWatch()
		root := tr.beginOp(i, req.name)
		call := tr.begin("controller")
		ctl, err = bringUp(req, lane.cache, timedAgent{fab, tr}, traced)
		tr.end(call)
		tr.end(root)
		d = sw.stop()
	}
	if err != nil {
		return d, fmt.Errorf("%s: %w", req.name, err)
	}
	if err := checkBringUp(req, ctl, fab); err != nil {
		return d, fmt.Errorf("%s: %w", req.name, err)
	}
	if tr == nil && i < n*fleetPasses {
		sys := ctl.System()
		f.queues = append(f.queues, float64(sys.NumLosslessQueues()))
		f.entries = append(f.entries, float64(tcam.MaxPerSwitch(tcam.Compress(sys.Rules.Rules()))))
		f.written = append(f.written, float64(bundleRules(ctl.Bundle())))
	}
	if tr != nil {
		return d, f.traceLayers(tr, req, lane, ctl, fab, before)
	}
	return d, nil
}

// bringUp is one bring-up request: a fresh controller synthesizes the
// fabric's rules through the shared cache and deploys them to the
// agents. Clos fabrics take NewClos, which enumerates its own ELP.
func bringUp(req fleetRequest, cache *synthcache.Cache, agent controller.SwitchAgent,
	policy controller.ELPPolicy) (*controller.Controller, error) {
	opts := []controller.Option{controller.WithAgent(agent), controller.WithSynthCache(cache)}
	if req.clos != nil {
		return controller.NewClos(req.clos, fleetBounceBudget, opts...)
	}
	return controller.NewGeneric(req.g, policy, opts...)
}

// policy is a Jellyfish request's ELP: all-pairs shortest paths between
// its switches.
func (req fleetRequest) policy(g *topology.Graph) *elp.Set { return elp.ShortestAll(g, req.ends) }

// checkBringUp is the bring-up correctness check: the oracle accepts the
// system, every agent's active bundle is the intent bundle, and a Clos
// fabric uses the optimal number of lossless queues.
func checkBringUp(req fleetRequest, ctl *controller.Controller, fab *chaos.Fabric) error {
	sys := ctl.System()
	if err := checkDeployed(sys, fab, ctl.Bundle()); err != nil {
		return err
	}
	if req.clos != nil {
		if got, want := sys.NumLosslessQueues(), core.MinLosslessQueues(fleetBounceBudget); got != want {
			return fmt.Errorf("clos uses %d lossless queues, optimum is %d", got, want)
		}
	}
	return nil
}

// traceLayers gathers a traced request's counters and, for a Jellyfish
// request the cache had to build, re-runs the synthesis stages one by one
// on the same inputs and checks the staged result is rule-identical to
// the deployed one.
func (f *fleet) traceLayers(tr *tracer, req fleetRequest, lane *fleetLane,
	ctl *controller.Controller, fab *chaos.Fabric, before synthcache.Stats) error {
	after := lane.cache.Stats()
	f.rpcs += fab.Calls()
	f.hits += after.Hits - before.Hits
	f.misses += after.Misses - before.Misses
	f.trans += after.Translated - before.Translated

	s := tr.begin("fingerprint.canon")
	fingerprint.Canonicalize(req.g)
	tr.end(s)

	if req.clos != nil {
		return nil
	}
	f.elpPaths = append(f.elpPaths, float64(len(lane.lastPaths)))
	if after.Misses == before.Misses {
		return nil
	}
	sys, err := stagedSynthesis(tr, req.g, lane.lastPaths)
	if err != nil {
		return err
	}
	f.conflicts = append(f.conflicts, float64(len(sys.Conflicts)))
	if diffs := check.DiffRulesets(sys.Rules, ctl.System().Rules); len(diffs) > 0 {
		return fmt.Errorf("staged synthesis differs from the deployed rules (%d diffs; first: %s)", len(diffs), diffs[0])
	}
	return nil
}

// stagedSynthesis runs core.Synthesize's stages one call at a time —
// Algorithm 1, Algorithm 2, rule derivation, runtime replay (with the
// repair pass when a path went lossy) — plus TCAM compilation, recording
// a span for each.
func stagedSynthesis(tr *tracer, g *topology.Graph, paths []routing.Path) (*core.System, error) {
	sys := &core.System{Graph: g, ELP: paths}
	s := tr.begin("core.alg1")
	sys.BruteForce = core.BruteForce(g, paths)
	tr.end(s)
	s = tr.begin("core.alg2")
	sys.Merged = core.GreedyMinimize(sys.BruteForce)
	tr.end(s)
	s = tr.begin("core.rules")
	sys.Rules, sys.Conflicts = core.DeriveRules(sys.Merged)
	tr.end(s)
	s = tr.begin("core.replay")
	var lossy []routing.Path
	sys.Runtime, lossy = core.BuildRuleGraph(sys.Rules, paths, 1)
	if len(lossy) > 0 {
		sys.Repairs = core.RepairReplay(sys.Rules, paths, 1)
		sys.Runtime, lossy = core.BuildRuleGraph(sys.Rules, paths, 1)
	}
	err := sys.Runtime.Verify()
	tr.end(s)
	if len(lossy) > 0 {
		return nil, fmt.Errorf("staged synthesis: %d ELP paths lossy after repair", len(lossy))
	}
	if err != nil {
		return nil, fmt.Errorf("staged synthesis: %w", err)
	}
	s = tr.begin("tcam.compile")
	tcam.NewCompiled(sys.Rules, 0)
	tr.end(s)
	return sys, nil
}

func (f *fleet) quality() []metric {
	return []metric{
		{"lossless_queues", mean(f.queues)},
		{"tcam_entries", mean(f.entries)},
		{"rules_written_per_op", mean(f.written)},
	}
}

func (f *fleet) perLayer(tr *tracer) []metric {
	per := func(n int64) float64 { return float64(n) / float64(tr.ops) }
	ratio := 0.0
	if f.hits+f.misses > 0 {
		ratio = float64(f.hits) / float64(f.hits+f.misses)
	}
	return []metric{
		{"elp.enum_ms", tr.meanMs("elp.enum")},
		{"elp.paths", mean(f.elpPaths)},
		{"fingerprint.canon_ms", tr.meanMs("fingerprint.canon")},
		{"synthcache.hit_ratio", ratio},
		{"synthcache.translated", per(f.trans)},
		{"synthcache.misses", per(f.misses)},
		{"core.alg1_ms", tr.meanMs("core.alg1")},
		{"core.alg2_ms", tr.meanMs("core.alg2")},
		{"core.rules_ms", tr.meanMs("core.rules")},
		{"core.replay_ms", tr.meanMs("core.replay")},
		{"core.conflicts", mean(f.conflicts)},
		{"tcam.compile_ms", tr.meanMs("tcam.compile")},
		{"deploy.install_ms", tr.perOpMs("deploy.install") + tr.perOpMs("deploy.fetch")},
		{"deploy.activate_ms", tr.perOpMs("deploy.activate")},
		{"deploy.rpcs", per(f.rpcs)},
		{"controller.synth_ms", tr.selfMs("controller") / float64(tr.ops)},
	}
}

func (f *fleet) finish() error { return nil }

func (f *fleet) digests() []string { return nil }
