package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/sim"
	"repro/internal/tcam"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sim-deadlock-observed: each operation runs one seeded
// workload.DetectMatrix scenario under the tagger arm (Tagger rules, the
// detector riding along with mitigation off as a false-positive oracle)
// and then the detect arm (no Tagger, in-switch detector with targeted
// drops), each with the operator's full observer set attached: the
// binary trace writer into a discard sink, a telemetry registry, the
// flight recorder, the detector, TrackDeadlocks and the watchdog.
// A pass runs simObsSeeds seeds, and a run ends on a pass boundary so
// every seed weighs the same in the percentiles.

const (
	simObsSeeds    = 4
	simObsSteady   = 2 * time.Millisecond
	simObsWatchdog = 500 * time.Microsecond
	simObsFlows    = 4 // the CBD pair and two background flows
)

// The matrix arms the workload runs, plus the unprotected control the
// negative-control test feeds to the tagger-arm check.
const (
	armTagger = "tagger"
	armDetect = "detect"
	armNone   = "none"
)

var simObsArms = []string{armTagger, armDetect}

// detectRun is one simulated (seed, arm) run and what its observers saw.
type detectRun struct {
	s        *workload.Scenario
	det      *sim.DetectorStats
	track    *sim.DeadlockTrack
	wd       *sim.WatchdogStats
	fr       *sim.FlightRecorder
	bt       *sim.BinaryTracer
	closeErr error
	digest   simDigest
}

// observe selects what a detectRun attaches beyond the arm itself.
type observe struct {
	bare  bool         // only the arm's own mechanism, no observers
	trace trace.Config // trace writer settings (zero: the defaults)
	shim  *timedTracer // timing shim around the trace writer (traced run)
}

// runDetect builds and runs one matrix scenario under arm.
func runDetect(seed int64, arm string, o observe) (*detectRun, error) {
	opt := workload.Options{}
	if arm == armTagger {
		opt.Bounces = 1
	}
	r := &detectRun{s: workload.DetectMatrix(opt, seed)}
	n := r.s.Net
	if !o.bare {
		bt, err := sim.NewBinaryTracer(io.Discard, o.trace)
		if err != nil {
			return nil, fmt.Errorf("trace writer: %w", err)
		}
		r.bt = bt
		if o.shim != nil {
			o.shim.next = bt
			n.SetTracer(o.shim)
		} else {
			n.SetTracer(bt)
		}
		n.SetTelemetry(telemetry.NewRegistry())
	}
	switch arm {
	case armTagger:
		if !o.bare {
			r.det = n.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateNone})
		}
	case armDetect:
		r.det = n.EnableDetector(sim.DetectorConfig{Mitigation: sim.MitigateDrop})
	case armNone:
	default:
		return nil, fmt.Errorf("unknown arm %q", arm)
	}
	if !o.bare {
		r.fr = n.EnableFlightRecorder(sim.FlightRecConfig{Sink: readIncident})
		r.track = n.TrackDeadlocks()
		r.wd = n.StartWatchdog(simObsWatchdog)
	}
	r.s.Run()
	if r.bt != nil {
		r.closeErr = r.bt.Close()
	}
	r.digest = simDigest{Seed: seed, Arm: arm, Pause: n.PauseFrames, Resume: n.ResumeFrames, Drops: n.Drops()}
	r.digest.addFlows(n.Flows())
	if r.track != nil {
		r.digest.Onsets, r.digest.Recoveries = r.track.Onsets, r.track.Recoveries
	}
	return r, nil
}

// readIncident is the flight recorder's sink: it decodes the captured
// incident file to its end and rejects one that is truncated or carries
// no state snapshot.
func readIncident(inc sim.Incident) error {
	rd, err := trace.NewReader(bytes.NewReader(inc.Data))
	if err != nil {
		return fmt.Errorf("incident %d: %w", inc.Seq, err)
	}
	for {
		if _, err := rd.Next(); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("incident %d: %w", inc.Seq, err)
		}
	}
	if rd.Truncated() || rd.Snapshot() == nil {
		return fmt.Errorf("incident %d: truncated or without a snapshot", inc.Seq)
	}
	return nil
}

// checkObserved is the per-arm correctness check of an observed run.
// Prevention must be silent: no deadlock onset, no detector firing, no
// lossless drop. Detection must recover from the deadlocks it lets form,
// still without lossless drops. Either way the observers must have kept
// up: no trace records dropped, every incident readable.
func checkObserved(r *detectRun, arm string) error {
	if r.closeErr != nil {
		return fmt.Errorf("trace writer close: %w", r.closeErr)
	}
	if d := r.bt.Dropped(); d > 0 {
		return fmt.Errorf("trace writer dropped %d records", d)
	}
	if err := r.fr.SinkErr(); err != nil {
		return fmt.Errorf("flight recorder sink: %w", err)
	}
	if r.wd.LosslessDrops > 0 {
		return fmt.Errorf("%d lossless drops", r.wd.LosslessDrops)
	}
	switch arm {
	case armTagger:
		if r.track.Onsets > 0 {
			return fmt.Errorf("tagger arm deadlocked (%d onsets)", r.track.Onsets)
		}
		if r.det == nil || r.det.Detections > 0 {
			return fmt.Errorf("tagger arm: detector fired or was not attached")
		}
	case armDetect:
		if !(r.track.Onsets > 0 && r.track.Recoveries > 0) {
			return fmt.Errorf("detect arm did not recover (%d onsets, %d recoveries)", r.track.Onsets, r.track.Recoveries)
		}
	default:
		return fmt.Errorf("no check for arm %q", arm)
	}
	return nil
}

// timedTracer is the traced run's shim in front of the trace writer: it
// times every Trace call the simulator makes.
type timedTracer struct {
	next   sim.Tracer
	events int64
	busy   time.Duration
}

func (t *timedTracer) Trace(ev sim.TraceEvent) {
	t0 := time.Now()
	t.next.Trace(ev)
	t.busy += time.Since(t0)
	t.events++
}

type simObserved struct {
	seeds []int64
	// The tagger arm's rule table, for the output-quality metrics.
	queues, entries, rules float64

	first   map[string]simDigest // each (seed, arm)'s first run
	order   []string
	goodput []float64 // per (seed, arm)
	ttr     []float64 // per detect-arm seed
	rates   []float64 // delivered packets per second, per operation

	// Traced-run tallies.
	observedCPU, bareCPU                  time.Duration
	tracedPkts                            int64
	allocKB, captureMs, events            []float64
	pauses, onsets, incidents, overwrites []float64
	detections, falsePos, ttd             []float64
	dropped                               int64
}

func setupSimObserved(seed int64) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	o := &simObserved{first: map[string]simDigest{}}
	for k := 0; k < simObsSeeds; k++ {
		seed := rng.Int63n(1 << 31)
		o.seeds = append(o.seeds, seed)
		for _, bounces := range []int{1, 0} {
			if s := workload.DetectMatrix(workload.Options{Bounces: bounces}, seed); len(s.Flows) != simObsFlows {
				return nil, fmt.Errorf("seed %d: scenario has %d flows, want %d", seed, len(s.Flows), simObsFlows)
			}
		}
	}
	// An operation's tagger arm installs the testbed's k=1 Clos rules
	// (one lossless class); its detect arm installs none and runs one
	// lossless queue. Queues and entries are means over the two arms.
	rs := core.ClosRules(paper.Testbed().Graph, 1, 1)
	o.queues = float64(rs.MaxTag()+1) / 2
	o.entries = float64(tcam.MaxPerSwitch(tcam.Compress(rs.Rules()))) / 2
	o.rules = float64(len(rs.Rules()))
	return o, nil
}

func (o *simObserved) done(ops int) bool { return ops >= simObsSeeds && ops%simObsSeeds == 0 }

// op runs matrix seed i mod simObsSeeds under both arms.
func (o *simObserved) op(i int, tr *tracer) (opTime, error) {
	seed := o.seeds[i%simObsSeeds]
	runs := make([]*detectRun, len(simObsArms))
	sw := startWatch()
	var root int
	if tr != nil {
		root = tr.beginOp(i, fmt.Sprintf("seed-%d", seed))
	}
	var err error
	for k, arm := range simObsArms {
		if tr == nil {
			runs[k], err = runDetect(seed, arm, observe{})
		} else {
			runs[k], err = o.tracedCell(tr, seed, arm)
		}
		if err != nil {
			err = fmt.Errorf("seed %d arm %s: %w", seed, arm, err)
			break
		}
	}
	if tr != nil {
		tr.end(root)
	}
	d := sw.stop()
	if err != nil {
		return d, err
	}
	var pkts int64
	for k, r := range runs {
		arm := simObsArms[k]
		if err := checkObserved(r, arm); err != nil {
			return d, fmt.Errorf("seed %d arm %s: %w", seed, arm, err)
		}
		if err := o.firstOrSame(r.digest, true); err != nil {
			return d, err
		}
		pkts += deliveredPackets(r.s.Net)
		if tr == nil && i < simObsSeeds {
			o.goodput = append(o.goodput, r.s.AggregateGoodput(simObsSteady, r.s.Duration))
			if arm == armDetect {
				o.ttr = append(o.ttr, float64(r.track.MeanTTR())/float64(time.Microsecond))
			}
		}
	}
	if tr == nil {
		o.rates = append(o.rates, float64(pkts)/d.wall.Seconds())
		o.observedCPU += d.cpu
		return d, nil
	}
	o.tracedPkts += pkts
	// The bare control: the same seed and arms with no observers. It
	// must simulate exactly what the observed runs did.
	for _, arm := range simObsArms {
		sw := startWatch()
		bare, err := runDetect(seed, arm, observe{bare: true})
		o.bareCPU += sw.stop().cpu
		if err != nil {
			return d, fmt.Errorf("seed %d arm %s bare: %w", seed, arm, err)
		}
		if err := o.firstOrSame(bare.digest, false); err != nil {
			return d, fmt.Errorf("observers changed the simulation: %w", err)
		}
	}
	return d, nil
}

// tracedCell runs one observed cell behind the timing tracer shim and
// keeps its observer counts.
func (o *simObserved) tracedCell(tr *tracer, seed int64, arm string) (*detectRun, error) {
	shim := &timedTracer{}
	alloc := totalAlloc()
	s := tr.begin("sim.observed")
	r, err := runDetect(seed, arm, observe{shim: shim})
	tr.end(s)
	o.allocKB = append(o.allocKB, allocKB(alloc))
	if err != nil {
		return nil, err
	}
	o.captureMs = append(o.captureMs, ms(shim.busy))
	o.events = append(o.events, float64(shim.events))
	o.tally(r)
	return r, nil
}

// firstOrSame records a (seed, arm)'s first digest and fails any later
// run that simulated something else. Deadlock episodes are compared only
// when both runs counted them.
func (o *simObserved) firstOrSame(dg simDigest, episodes bool) error {
	key := fmt.Sprintf("%d/%s", dg.Seed, dg.Arm)
	first, ok := o.first[key]
	if !ok {
		o.first[key] = dg
		o.order = append(o.order, key)
		return nil
	}
	if !episodes {
		first.Onsets, first.Recoveries = dg.Onsets, dg.Recoveries
	}
	if a, b := first.String(), dg.String(); a != b {
		return fmt.Errorf("seed %d arm %s is not deterministic:\n first %s\n now   %s", dg.Seed, dg.Arm, a, b)
	}
	return nil
}

func (o *simObserved) quality() []metric {
	return []metric{
		{"lossless_queues", o.queues},
		{"tcam_entries", o.entries},
		{"rules_written_per_op", o.rules},
	}
}

// tally keeps a traced run's observer counts.
func (o *simObserved) tally(r *detectRun) {
	o.dropped += r.bt.Dropped()
	o.pauses = append(o.pauses, float64(r.s.Net.PauseFrames))
	o.onsets = append(o.onsets, float64(r.track.Onsets))
	o.incidents = append(o.incidents, float64(r.fr.Captured()))
	o.overwrites = append(o.overwrites, float64(r.fr.Overwrites()))
	o.falsePos = append(o.falsePos, float64(r.det.FalsePositives))
	if r.digest.Arm == armDetect {
		o.detections = append(o.detections, float64(r.det.Detections))
		o.ttd = append(o.ttd, float64(r.det.MeanTTD())/float64(time.Microsecond))
	}
}

func (o *simObserved) perLayer(tr *tracer) []metric {
	runs := float64(len(o.pauses))
	return []metric{
		{"sim.run_s", tr.totalMs("sim.observed") / 1e3 / runs},
		{"sim.ns_per_pkt", tr.totalMs("sim.observed") * 1e6 / float64(o.tracedPkts)},
		{"sim.pause_frames", mean(o.pauses)},
		{"sim.alloc_kb_per_run", mean(o.allocKB)},
		{"sim.pkts_per_s", median(o.rates)},
		{"sim.goodput_gbps", mean(o.goodput)},
		{"sim.recovery_us_mean", mean(o.ttr)},
		{"observers.overhead_ratio", o.observedCPU.Seconds() / o.bareCPU.Seconds()},
		{"trace.capture_ms", mean(o.captureMs)},
		{"trace.events", mean(o.events)},
		{"trace.dropped", float64(o.dropped)},
		{"flightrec.incidents", mean(o.incidents)},
		{"flightrec.overwrites", mean(o.overwrites)},
		{"sim.deadlock_onsets", mean(o.onsets)},
		{"detect.detections", mean(o.detections)},
		{"detect.false_positives", mean(o.falsePos)},
		{"detect.ttd_us_mean", mean(o.ttd)},
	}
}

func (o *simObserved) finish() error { return nil }

func (o *simObserved) digests() []string {
	out := make([]string, 0, len(o.order))
	for _, k := range o.order {
		out = append(out, o.first[k].String())
	}
	return out
}
