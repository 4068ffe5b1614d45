package sim

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

func TestCountingTracerSeesPFC(t *testing.T) {
	c, _, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	tr := &CountingTracer{}
	n.SetTracer(tr)
	n.AddFlow(FlowSpec{Name: "a", Src: g.MustLookup("H5"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "b", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.Run(5 * time.Millisecond)
	if tr.Counts["pause"] == 0 || tr.Counts["resume"] == 0 {
		t.Fatalf("counts: %v", tr.Counts)
	}
	if tr.Counts["pause"] != n.PauseFrames {
		t.Errorf("tracer pauses %d vs counter %d", tr.Counts["pause"], n.PauseFrames)
	}
}

func TestJSONLTracerDeadlockOnset(t *testing.T) {
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	forceFig3Routes(c, tb)
	var buf bytes.Buffer
	n.SetTracer(&trace.JSONLWriter{W: &buf})
	n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
	n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
		Start: time.Millisecond})
	n.Run(10 * time.Millisecond)

	var sawDeadlock bool
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "deadlock" {
			sawDeadlock = true
			if len(ev.Cycle) < 2 {
				t.Errorf("deadlock event without cycle: %+v", ev)
			}
			if ev.T <= 0 {
				t.Errorf("deadlock event without timestamp: %+v", ev)
			}
		}
	}
	if !sawDeadlock {
		t.Fatal("no deadlock onset event traced")
	}
}

func TestTracerDemoteAndDrops(t *testing.T) {
	// Routing loop with Tagger: looped packets are demoted to lossy and
	// then die; the tracer must see both.
	c, tb, n := testbedNet(t, routing.UpDown)
	g := c.Graph
	nn := func(s string) topology.NodeID { return g.MustLookup(s) }
	n.InstallTagger(core.ClosRules(g, 1, 1))
	tr := &CountingTracer{}
	n.SetTracer(tr)
	n.AddFlow(FlowSpec{Name: "F2", Src: nn("H2"), Dst: nn("H6")})
	n.At(time.Millisecond, func() {
		tb.OverrideNextNode(nn("T1"), nn("H6"), nn("L1"))
		tb.OverrideNextNode(nn("L1"), nn("H6"), nn("T1"))
	})
	n.Run(8 * time.Millisecond)
	if tr.Counts["demote"] == 0 {
		t.Error("no demotions traced")
	}
	if tr.Counts["drop"] == 0 {
		t.Error("no drops traced")
	}
	if tr.Counts["deadlock"] != 0 {
		t.Error("phantom deadlock traced under Tagger")
	}
}

// TestBinaryTracerMatchesJSONL: the same deterministic run captured by
// both tracers must decode to the same event sequence — the format is
// an encoding, not a different observer.
func TestBinaryTracerMatchesJSONL(t *testing.T) {
	runTraced := func(tr Tracer) {
		c, tb, n := testbedNet(t, routing.UpDown)
		g := c.Graph
		forceFig3Routes(c, tb)
		n.SetTracer(tr)
		n.AddFlow(FlowSpec{Name: "green", Src: g.MustLookup("H9"), Dst: g.MustLookup("H1")})
		n.AddFlow(FlowSpec{Name: "blue", Src: g.MustLookup("H2"), Dst: g.MustLookup("H13"),
			Start: time.Millisecond})
		n.Run(10 * time.Millisecond)
	}

	var jsonl bytes.Buffer
	runTraced(&trace.JSONLWriter{W: &jsonl})

	var bin bytes.Buffer
	bt, err := NewBinaryTracer(&bin, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runTraced(bt)
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	if bt.Dropped() != 0 {
		t.Fatalf("binary capture dropped %d events", bt.Dropped())
	}

	var fromJSONL []TraceEvent
	dec := json.NewDecoder(&jsonl)
	for dec.More() {
		var ev TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		fromJSONL = append(fromJSONL, ev)
	}

	r, err := trace.NewReader(&bin)
	if err != nil {
		t.Fatal(err)
	}
	var fromBin []TraceEvent
	for {
		ev, err := r.Next()
		if err != nil {
			break
		}
		fromBin = append(fromBin, ev)
	}
	if r.Skipped() != 0 || r.Truncated() {
		t.Fatalf("binary decode skipped=%d truncated=%v", r.Skipped(), r.Truncated())
	}
	if len(fromBin) != len(fromJSONL) {
		t.Fatalf("binary decoded %d events, jsonl %d", len(fromBin), len(fromJSONL))
	}
	var sawDeadlock bool
	for i := range fromJSONL {
		if !reflect.DeepEqual(fromBin[i], fromJSONL[i]) {
			t.Fatalf("event %d:\n  binary %+v\n  jsonl  %+v", i, fromBin[i], fromJSONL[i])
		}
		sawDeadlock = sawDeadlock || fromJSONL[i].Kind == "deadlock"
	}
	if !sawDeadlock {
		t.Fatal("scenario produced no deadlock onset; the comparison is vacuous")
	}
}

// TestBinaryTracerZeroAlloc is the capture-cost gate, the tracing
// sibling of TestSteadyStateZeroAlloc: once names are interned,
// recording pause/resume/drop events allocates nothing.
func TestBinaryTracerZeroAlloc(t *testing.T) {
	bt, err := NewBinaryTracer(io.Discard, trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	pause := TraceEvent{T: 1, Kind: "pause", Node: "T1", Peer: "L1", Prio: 1, Depth: 9216}
	resume := TraceEvent{T: 2, Kind: "resume", Node: "T1", Peer: "L1", Prio: 1, Depth: 512}
	drop := TraceEvent{T: 3, Kind: "drop", Node: "T1", Flow: "f1", Reason: "ttl"}
	bt.Trace(pause) // warm the intern table
	bt.Trace(drop)
	if avg := testing.AllocsPerRun(1000, func() {
		bt.Trace(pause)
		bt.Trace(resume)
		bt.Trace(drop)
	}); avg != 0 {
		t.Errorf("binary capture allocates %.2f allocs per 3 events, want 0", avg)
	}
}
