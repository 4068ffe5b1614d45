package sim

import (
	"io"

	"repro/internal/topology"
	"repro/internal/trace"
)

// TraceEvent is one simulator event, as trace.Event defines it.
type TraceEvent = trace.Event

// Tracer receives simulator events as they happen. Implementations must
// be fast; they run inline with the event loop. trace.JSONLWriter and
// BinaryTracer are the two capture encodings.
type Tracer interface {
	Trace(ev TraceEvent)
}

// BinaryTracer captures events in the internal/trace binary format: a
// fixed-width record into a single-producer ring buffer per event, with
// a background goroutine draining to the sink. Steady-state capture is
// a few stores plus two atomics — nanoseconds and zero heap
// allocations per event (TestBinaryTracerZeroAlloc gates this) — so it
// is the tracer for long soaks where JSONL's per-event encode would
// dominate the run.
//
// Callers must Close to flush the tail of the ring; Dropped reports
// records lost to capture backpressure or sink errors.
type BinaryTracer = trace.Writer

// NewBinaryTracer starts a binary capture writing to w. cfg tunes the
// ring and flush cadence; the zero Config is right for simulator use
// (its tick rate is fixed at nanoseconds).
func NewBinaryTracer(w io.Writer, cfg trace.Config) (*BinaryTracer, error) {
	cfg.TickHz = trace.TickHzNanos
	return trace.NewWriter(w, cfg)
}

// CountingTracer tallies events by kind — the cheap always-on option.
type CountingTracer struct {
	Counts map[string]int64
}

// Trace implements Tracer.
func (t *CountingTracer) Trace(ev TraceEvent) {
	if t.Counts == nil {
		t.Counts = make(map[string]int64)
	}
	t.Counts[ev.Kind]++
}

// SetTracer installs an event tracer (nil disables). The tracer sees
// PFC pause/resume emissions, every packet drop with its cause, lossless
// to lossy demotions, and deadlock onsets (the deadlock-episode ledger's
// openings, which attaching a tracer arms; see TrackDeadlocks).
func (n *Network) SetTracer(tr Tracer) { n.tracer = tr }

func (n *Network) trace(ev TraceEvent) {
	if n.tracer == nil {
		return
	}
	ev.T = n.now
	n.tracer.Trace(ev)
}

func (n *Network) nodeName(id topology.NodeID) string { return n.g.Node(id).Name }
