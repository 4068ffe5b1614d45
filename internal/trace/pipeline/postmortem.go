package pipeline

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/trace"
)

// Postmortem is the forensics sink: it folds the incident's event
// window into an onset timeline (first pause → cycle closure →
// detection → mitigation), then Render combines that with the frozen
// snapshot a flight recorder appended — wait-for graph, queue states,
// TCAM rule attribution, live detector tags — to reconstruct the CBD
// and name the culprit flows hop by hop. Output is deterministic for a
// deterministic input, so reports golden-pin.
type Postmortem struct {
	Events int64
	LastT  int64

	// Onset timeline, all simulated ns, -1 when the window holds none.
	FirstPause     int64
	FirstPauseLink LinkKey
	FirstPausePrio int
	Onset          int64
	OnsetCycle     []string
	Onsets         int
	FirstDetect    int64
	DetectNode     string
	Detects        int
	FirstMitigate  int64
	Mitigations    int

	Pauses, Resumes int
	DropByReason    map[string]int
}

// NewPostmortem returns an empty forensics sink.
func NewPostmortem() *Postmortem {
	return &Postmortem{
		FirstPause:    -1,
		Onset:         -1,
		FirstDetect:   -1,
		FirstMitigate: -1,
		DropByReason:  map[string]int{},
	}
}

// Consume implements Sink.
func (p *Postmortem) Consume(batch []trace.Event) error {
	for i := range batch {
		ev := &batch[i]
		p.Events++
		if ev.T > p.LastT {
			p.LastT = ev.T
		}
		switch ev.Kind {
		case "pause":
			p.Pauses++
			if p.FirstPause < 0 {
				p.FirstPause = ev.T
				p.FirstPauseLink = LinkKey{ev.Node, ev.Peer}
				p.FirstPausePrio = ev.Prio
			}
		case "resume":
			p.Resumes++
		case "drop":
			p.DropByReason[ev.Reason]++
		case "deadlock":
			p.Onsets++
			if p.Onset < 0 {
				p.Onset = ev.T
				p.OnsetCycle = ev.Cycle
			}
		case "detect":
			p.Detects++
			if p.FirstDetect < 0 {
				p.FirstDetect = ev.T
				p.DetectNode = ev.Node
			}
		case "mitigate":
			p.Mitigations++
			if p.FirstMitigate < 0 {
				p.FirstMitigate = ev.T
			}
		}
	}
	return nil
}

// Close implements Sink.
func (p *Postmortem) Close() error { return nil }

// waitCycle finds one cycle in the snapshot's wait-for graph and
// returns it in canonical rotation (starting from its smallest vertex
// by (Node, Peer, Prio)), or nil if the frozen graph holds none — a
// capture triggered before closure, or by a non-deadlock invariant.
func waitCycle(s *trace.Snapshot) []int {
	n := len(s.WaitQueues)
	if n == 0 {
		return nil
	}
	adj := make([][]int, n)
	for _, e := range s.WaitEdges {
		if e[0] >= 0 && e[0] < n && e[1] >= 0 && e[1] < n {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
	}
	if cyc := trace.FindCycle(adj); cyc != nil {
		return trace.RotateCycle(cyc, func(i int) (string, string, int) {
			q := s.WaitQueues[i]
			return q.Node, q.Peer, q.Prio
		})
	}
	return nil
}

// Render writes the forensics report: capture provenance, onset
// timeline, the reconstructed wait-for cycle with hop-by-hop flow and
// TCAM-rule attribution, the rest of the wait-for graph, and the live
// detector tag table. snap may be nil (plain trace, no flight-recorder
// snapshot); the report then says so and stops after the timeline.
func (p *Postmortem) Render(w io.Writer, snap *trace.Snapshot, d Diag) {
	fmt.Fprint(w, "POST-MORTEM")
	if snap != nil {
		fmt.Fprintf(w, ": %s at %s, frozen t=%v", snap.Trigger, snap.Node, time.Duration(snap.Tick))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "event window: %d events ending t=%v\n", p.Events, time.Duration(p.LastT))
	if snap != nil {
		fmt.Fprintf(w, "capture: %d snapshot records, %d flight-ring overwrites\n", snap.Records, snap.Overwrites)
		if !snap.Complete {
			fmt.Fprint(w, "WARNING: snapshot incomplete (capture torn mid-dump); sections below may undercount\n")
		}
	}
	if d.Skipped > 0 || d.Truncated {
		fmt.Fprintf(w, "damage: %d records skipped, truncated=%v\n", d.Skipped, d.Truncated)
	}
	fmt.Fprintln(w)

	fmt.Fprint(w, "onset timeline:\n")
	if p.FirstPause >= 0 {
		fmt.Fprintf(w, "  t=%-12v first pause in window: %s -> %s prio %d (%d pauses, %d resumes in window)\n",
			time.Duration(p.FirstPause), p.FirstPauseLink.Node, p.FirstPauseLink.Peer, p.FirstPausePrio,
			p.Pauses, p.Resumes)
	} else {
		fmt.Fprint(w, "  (no pauses in window)\n")
	}
	if p.Onset >= 0 {
		fmt.Fprintf(w, "  t=%-12v deadlock onset: cycle of %d pause edges (%d onsets in window)\n",
			time.Duration(p.Onset), len(p.OnsetCycle), p.Onsets)
		if p.FirstPause >= 0 {
			fmt.Fprintf(w, "  %-14s pause -> closure %v\n", "", time.Duration(p.Onset-p.FirstPause))
		}
	}
	if p.FirstDetect >= 0 {
		fmt.Fprintf(w, "  t=%-12v first in-switch detection at %s (%d in window)\n",
			time.Duration(p.FirstDetect), p.DetectNode, p.Detects)
		if p.Onset >= 0 {
			fmt.Fprintf(w, "  %-14s closure -> detection %v\n", "", time.Duration(p.FirstDetect-p.Onset))
		}
	}
	if p.FirstMitigate >= 0 {
		fmt.Fprintf(w, "  t=%-12v first mitigation sweep (%d in window)\n",
			time.Duration(p.FirstMitigate), p.Mitigations)
	}
	if len(p.DropByReason) > 0 {
		reasons := make([]string, 0, len(p.DropByReason))
		for r := range p.DropByReason {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(w, "  %-14s drops[%s] = %d\n", "", r, p.DropByReason[r])
		}
	}
	fmt.Fprintln(w)

	if snap == nil {
		fmt.Fprint(w, "no flight-recorder snapshot in this trace; cycle reconstruction needs one\n")
		return
	}
	p.renderSnapshot(w, snap)
}

func (p *Postmortem) renderSnapshot(w io.Writer, snap *trace.Snapshot) {
	cyc := waitCycle(snap)
	inCycle := make(map[int]bool, len(cyc))
	for _, qi := range cyc {
		inCycle[qi] = true
	}

	if cyc == nil {
		fmt.Fprintf(w, "wait-for graph holds no cycle at freeze (%d paused queues, %d edges)\n",
			len(snap.WaitQueues), len(snap.WaitEdges))
	} else {
		fmt.Fprintf(w, "wait-for cycle (%d hops):\n", len(cyc))
		for i, qi := range cyc {
			q := snap.WaitQueues[qi]
			next := snap.WaitQueues[cyc[(i+1)%len(cyc)]]
			fmt.Fprintf(w, "  [%d] %s -> %s prio %d  (%dKB / %d pkts queued)  waits on %s -> %s prio %d\n",
				i+1, q.Node, q.Peer, q.Prio, q.Bytes/1024, q.Pkts, next.Node, next.Peer, next.Prio)
			p.renderHop(w, snap, q)
		}
	}

	var rest []trace.SnapWaitQueue
	for qi, q := range snap.WaitQueues {
		if !inCycle[qi] {
			rest = append(rest, q)
		}
	}
	if len(rest) > 0 {
		fmt.Fprintf(w, "collateral paused queues (outside the cycle): %d\n", len(rest))
		for _, q := range rest {
			fmt.Fprintf(w, "  %s -> %s prio %d  (%dKB / %d pkts)\n", q.Node, q.Peer, q.Prio, q.Bytes/1024, q.Pkts)
		}
	}
	fmt.Fprintln(w)

	if len(snap.DetTags) > 0 {
		fmt.Fprintf(w, "live detector tags at freeze (%d):\n", len(snap.DetTags))
		for _, dt := range snap.DetTags {
			role := "carried"
			if dt.Origin {
				role = "origin"
			}
			extra := ""
			if dt.Carry {
				extra = " +foreign"
			}
			fmt.Fprintf(w, "  %s port %d prio %d: tag %#x (%s%s) toward %s\n",
				dt.Node, dt.Port, dt.Prio, dt.Tag, role, extra, dt.Peer)
		}
		fmt.Fprintln(w)
	}
}

// renderHop lists the flows (and the TCAM rules that classified them)
// occupying one cycle hop's egress queue, largest share first.
func (p *Postmortem) renderHop(w io.Writer, snap *trace.Snapshot, q trace.SnapWaitQueue) {
	var hops []trace.SnapRuleMatch
	for _, rm := range snap.RuleMatches {
		if rm.Node == q.Node && rm.Peer == q.Peer && rm.Prio == q.Prio {
			hops = append(hops, rm)
		}
	}
	sort.Slice(hops, func(i, j int) bool {
		if hops[i].Bytes != hops[j].Bytes {
			return hops[i].Bytes > hops[j].Bytes
		}
		return hops[i].Flow < hops[j].Flow
	})
	defs := map[int]string{}
	for _, rd := range snap.RuleDefs {
		defs[rd.ID] = rd.Desc
	}
	for _, rm := range hops {
		rule := "default action"
		if rm.RuleID != trace.RuleIDNone {
			rule = fmt.Sprintf("rule %d [%s]", rm.RuleID, defs[rm.RuleID])
		}
		fmt.Fprintf(w, "      flow %-8s %5dKB via %s\n", rm.Flow, rm.Bytes/1024, rule)
	}
}

// RunPostmortem pumps src through a Postmortem sink and renders the
// report: the one-call form behind `taggertrace postmortem`. The
// snapshot comes from the source itself when it carries one (a
// BinarySource folding flight-recorder records).
func RunPostmortem(src Source, w io.Writer) error {
	pm := NewPostmortem()
	if err := Run(src, nil, pm); err != nil {
		return err
	}
	d := Diag{Skipped: src.Skipped()}
	var snap *trace.Snapshot
	if bs, ok := src.(interface{ Snapshot() *trace.Snapshot }); ok {
		snap = bs.Snapshot()
	}
	if bs, ok := src.(interface{ Truncated() bool }); ok {
		d.Truncated = bs.Truncated()
	}
	if bs, ok := src.(interface{ Alien() int64 }); ok {
		d.Alien = bs.Alien()
	}
	pm.Render(w, snap, d)
	return nil
}
