package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// pausedQueue identifies one currently-paused lossless egress queue.
type pausedQueue struct {
	node int
	port int
	prio int
}

// DetectDeadlock inspects the live PFC state and returns a cycle of
// mutually-waiting egress queues if one exists: egress queue X at switch
// A (paused by downstream B) waits on every paused egress queue at B that
// holds packets charged to the ingress queue whose occupancy keeps the
// pause asserted. A cycle in this wait-for graph is a live deadlock — no
// queue in it can ever drain (the paper's §2: once formed, a deadlock
// does not go away).
//
// The returned strings describe the cycle members for diagnostics; nil
// means no deadlock at this instant.
func (n *Network) DetectDeadlock() []string {
	cyc := n.detectCycleQueues()
	if cyc == nil {
		return nil
	}
	return n.cycleNames(cyc)
}

// cycleNames renders a raw cycle in DetectDeadlock's presentation.
func (n *Network) cycleNames(cyc []pausedQueue) []string {
	out := make([]string, 0, len(cyc))
	for _, q := range cyc {
		rt := &n.nodes[q.node]
		out = append(out, fmt.Sprintf("%s->%s prio %d",
			n.g.Node(rt.id).Name, n.g.Node(rt.ports[q.port].peer).Name, q.prio))
	}
	sort.Strings(out[1:]) // stable-ish presentation beyond the entry point
	return out
}

// detectCycleQueues is DetectDeadlock returning the raw queue identities.
func (n *Network) detectCycleQueues() []pausedQueue {
	nodes, adj := n.waitGraph()
	cycIdx := trace.FindCycle(adj)
	if cycIdx == nil {
		return nil
	}
	out := make([]pausedQueue, len(cycIdx))
	for i, idx := range cycIdx {
		out[i] = nodes[idx]
	}
	return out
}

// Deadlocked reports whether a pause-wait cycle currently exists.
func (n *Network) Deadlocked() bool { return n.detectCycleQueues() != nil }

// DeadlockString renders a detected cycle for logs.
func DeadlockString(cycle []string) string { return strings.Join(cycle, " | ") }

// --- The deadlock-episode ledger --------------------------------------------

// DeadlockTrack is a view of the simulator's deadlock-episode ledger,
// the one notion of "deadlocked now" every event-driven observer reads:
// the tracer's "deadlock" records, the flight recorder's onset trigger,
// the onset telemetry and the detector's TTD and false-positive oracle.
// An episode opens at the pause effect that closes a wait-for cycle and
// clears at the resume effect, flush, mitigation sweep or reboot that
// breaks it.
type DeadlockTrack struct {
	// Onsets counts distinct deadlock episodes.
	Onsets int
	// FirstOnsetAt is the sim time of the first onset (-1 if never).
	FirstOnsetAt time.Duration
	// Recoveries counts episodes that cleared; SumTTR/MaxTTR aggregate
	// their onset-to-clear latency.
	Recoveries int
	SumTTR     time.Duration
	MaxTTR     time.Duration

	open     bool
	onsetAt  int64
	detected bool // the detector has sampled time-to-detect this episode
}

// Open reports whether a deadlock episode is live (an episode still
// open at the end of the run never recovered).
func (d *DeadlockTrack) Open() bool { return d.open }

// MeanTTR returns the mean time-to-recover over closed episodes.
func (d *DeadlockTrack) MeanTTR() time.Duration {
	if d.Recoveries == 0 {
		return 0
	}
	return d.SumTTR / time.Duration(d.Recoveries)
}

// TrackDeadlocks arms the episode ledger and returns the live view of
// it. Must be called before Run.
func (n *Network) TrackDeadlocks() *DeadlockTrack {
	n.dlTracked = true
	return &n.dl
}

// ledgerArmed reports whether anything reads the episode ledger (the
// flight recorder rides the tracer chain); the bare simulator never scans.
func (n *Network) ledgerArmed() bool {
	return n.dlTracked || n.det != nil || n.tracer != nil || n.tel != nil
}

// dlOnsetCheck opens an episode if a wait-for cycle now exists. Called
// at pause effects (nodeIdx is the newly paused node), assumed to be the
// only transitions that close a cycle: an enqueue onto a paused, empty
// queue adds a wait-for vertex too, but has not been measured to close
// one (TestEpisodeLedgerMatchesScan pins this).
func (n *Network) dlOnsetCheck(nodeIdx int) {
	d := &n.dl
	if d.open {
		return
	}
	cyc := n.detectCycleQueues()
	if cyc == nil {
		return
	}
	d.open = true
	d.detected = false
	d.onsetAt = n.now
	d.Onsets++
	if d.FirstOnsetAt < 0 {
		d.FirstOnsetAt = time.Duration(n.now)
	}
	if n.tel != nil {
		n.tel.Counter("sim_deadlock_onsets_total").Inc()
		g := n.tel.Gauge("sim_time_to_deadlock_seconds")
		if g.Value() == 0 {
			g.Set(time.Duration(n.now).Seconds())
		}
	}
	if n.tracer != nil {
		n.trace(TraceEvent{Kind: "deadlock", Node: n.nodeName(n.nodes[nodeIdx].id), Cycle: n.cycleNames(cyc)})
	}
}

// dlClearCheck closes the open episode if no cycle remains. Called at
// resume effects and after queue flushes, mitigation sweeps and reboots.
func (n *Network) dlClearCheck() {
	d := &n.dl
	if !d.open || n.detectCycleQueues() != nil {
		return
	}
	d.open = false
	ttr := time.Duration(n.now - d.onsetAt)
	d.Recoveries++
	d.SumTTR += ttr
	if ttr > d.MaxTTR {
		d.MaxTTR = ttr
	}
	if n.tel != nil {
		n.tel.Histogram("sim_time_to_recover_seconds", telemetry.DurationBuckets()).
			ObserveDuration(int64(ttr))
	}
}
