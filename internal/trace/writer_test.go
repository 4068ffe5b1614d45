package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// collect drains every event from a binary stream.
func collect(t *testing.T, b []byte) ([]Event, *Reader) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return out, r
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
}

// TestWriterRoundTrip pins the full encode/decode cycle across every
// event shape, including string interning and cycle assembly.
func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t1, l1 := w.Intern("T1"), w.Intern("L1")
	w.Emit(Entry{Tick: 10, Kind: KindPause, A: t1, B: l1, Prio: 1, Depth: 9216})
	f1 := w.Intern("f1")
	ttl := w.Intern("ttl")
	w.Emit(Entry{Tick: 15, Kind: KindDrop, A: t1, B: f1, C: ttl})
	w.Emit(Entry{Tick: 20, Kind: KindResume, A: t1, B: l1, Prio: 1, Depth: 1024})
	w.Emit(Entry{Tick: 25, Kind: KindDemote, A: l1, B: f1})
	w.Trace(Event{T: 30, Kind: "deadlock", Node: "L1", Cycle: []string{"L1->T1 prio 1", "T1->L1 prio 1"}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", w.Dropped())
	}

	events, _ := collect(t, buf.Bytes())
	want := []Event{
		{T: 10, Kind: "pause", Node: "T1", Peer: "L1", Prio: 1, Depth: 9216},
		{T: 15, Kind: "drop", Node: "T1", Flow: "f1", Reason: "ttl"},
		{T: 20, Kind: "resume", Node: "T1", Peer: "L1", Prio: 1, Depth: 1024},
		{T: 25, Kind: "demote", Node: "L1", Flow: "f1"},
		{T: 30, Kind: "deadlock", Node: "L1", Cycle: []string{"L1->T1 prio 1", "T1->L1 prio 1"}},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
	}
	for i := range want {
		got := events[i]
		if got.T != want[i].T || got.Kind != want[i].Kind || got.Node != want[i].Node ||
			got.Peer != want[i].Peer || got.Prio != want[i].Prio || got.Depth != want[i].Depth ||
			got.Flow != want[i].Flow || got.Reason != want[i].Reason {
			t.Errorf("event %d = %+v, want %+v", i, got, want[i])
		}
	}
	if len(events[4].Cycle) != 2 || events[4].Cycle[0] != "L1->T1 prio 1" {
		t.Errorf("cycle = %v", events[4].Cycle)
	}
}

// TestInternStability: repeated interning returns the same ID and emits
// exactly one definition; IDs are dense from 1.
func TestInternStability(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := w.Intern("alpha")
	b := w.Intern("beta")
	if a != 1 || b != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", a, b)
	}
	if w.Intern("alpha") != a || w.Intern("") != 0 {
		t.Fatal("interning unstable")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Two strdef records (1 entry + 1 payload slot each), no events.
	if want := HeaderSize + 4*EntrySize; buf.Len() != want {
		t.Fatalf("stream length = %d, want %d", buf.Len(), want)
	}
}

// TestLongStringInterning: payloads spanning several slots survive the
// round trip.
func TestLongStringInterning(t *testing.T) {
	long := string(bytes.Repeat([]byte("spine-plane-7/"), 20)) // 280 bytes
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	id := w.Intern(long)
	w.Emit(Entry{Tick: 1, Kind: KindDemote, A: id, B: id})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, _ := collect(t, buf.Bytes())
	if len(events) != 1 || events[0].Node != long {
		t.Fatalf("long string mangled: %d events", len(events))
	}
}

// TestRingOverflowAccounting: a stalled consumer drops whole records,
// counts every one, and the survivors still decode — with dropped
// string definitions rendering as "?" references, and the count
// mirrored into the telemetry counter.
func TestRingOverflowAccounting(t *testing.T) {
	ctr := &telemetry.Counter{}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{
		RingSize:      64,
		FlushInterval: time.Hour, // consumer effectively stalled
		Dropped:       ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := w.Intern("N") // 2 slots
	const emitted = 200
	for i := 0; i < emitted; i++ {
		w.Emit(Entry{Tick: int64(i), Kind: KindPause, A: node, B: node})
	}
	// 62 slots remain after the strdef: 62 events fit, 138 drop.
	if got := w.Dropped(); got != emitted-62 {
		t.Fatalf("dropped = %d, want %d", got, emitted-62)
	}
	if ctr.Value() != w.Dropped() {
		t.Fatalf("telemetry counter %d != dropped %d", ctr.Value(), w.Dropped())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, _ := collect(t, buf.Bytes())
	if len(events) != 62 {
		t.Fatalf("decoded %d events, want 62", len(events))
	}
	for i, ev := range events {
		if ev.T != int64(i) || ev.Node != "N" {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

// TestDroppedStrDefHealsOnRetry: when a definition record is lost to a
// full ring, the next interning of the same string re-emits it, so late
// events decode with real names again.
func TestDroppedStrDefHealsOnRetry(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{RingSize: 64, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	filler := w.Intern("x")
	for i := 0; i < 62; i++ { // fill the ring to the brim
		w.Emit(Entry{Tick: int64(i), Kind: KindPause, A: filler, B: filler})
	}
	late := w.Intern("late-node") // no room: definition dropped
	w.Emit(Entry{Tick: 100, Kind: KindPause, A: late, B: late})
	if w.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2 (strdef + event)", w.Dropped())
	}
	// Stop-start the drain by closing; then verify a fresh writer would
	// re-emit. Healing within one writer: drain happens at Close, so
	// re-intern before Close must reuse the ID but cannot re-emit into
	// the full ring; this test pins the retry bookkeeping instead.
	if got := w.Intern("late-node"); got != late {
		t.Fatalf("retry changed ID: %d != %d", got, late)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterSinkError: a failing sink surfaces through Close and the
// discarded records are counted, never stalling the producer — the
// binary analogue of the JSONLWriter write-error contract. (The
// header lives in the bufio layer, so the error lands on the first
// drained batch big enough to force a flush.)
func TestWriterSinkError(t *testing.T) {
	w, err := NewWriter(failingSink{}, Config{FlushInterval: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	id := w.Intern("n")
	const emitted = 5000 // well past the 64 KB buffer
	for i := 0; i < emitted; i++ {
		w.Emit(Entry{Tick: int64(i), Kind: KindPause, A: id, B: id})
	}
	if err := w.Close(); !errors.Is(err, errSink) {
		t.Fatalf("Close err = %v, want sink error", err)
	}
	if w.Dropped() == 0 {
		t.Error("records discarded after sink error were not counted")
	}
}

var errSink = errors.New("sink failed")

// failingSink rejects every write.
type failingSink struct{}

func (failingSink) Write([]byte) (int, error) { return 0, errSink }
