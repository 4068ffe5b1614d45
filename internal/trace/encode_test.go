package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
)

// allKinds is one event of every kind, each with every field its kind
// carries set.
var allKinds = []Event{
	{T: 10, Kind: "pause", Node: "T1", Peer: "L1", Prio: 1, Depth: 9216},
	{T: 20, Kind: "resume", Node: "T1", Peer: "L1", Prio: 1, Depth: 512},
	{T: 30, Kind: "drop", Node: "L1", Flow: "f1", Reason: "ttl"},
	{T: 40, Kind: "demote", Node: "L1", Flow: "f2"},
	{T: 50, Kind: "deadlock", Node: "S1", Cycle: []string{"S1->L1 prio 1", "L1->S1 prio 1"}},
	{T: 60, Kind: "detect", Node: "S1", Peer: "L1", Prio: 1, Reason: "pause"},
	{T: 70, Kind: "mitigate", Node: "S1", Prio: 1, Reason: "drop", Depth: 4096},
}

// readAll decodes every event of a binary stream, failing on loss.
func readAll(t *testing.T, b []byte) []Event {
	t.Helper()
	events, r := collect(t, b)
	if r.Skipped() != 0 || r.Truncated() {
		t.Fatalf("decode skipped=%d truncated=%v", r.Skipped(), r.Truncated())
	}
	return events
}

// TestEventRoundTripAllKinds pins the one event↔entry mapping for every
// event kind: the Writer capture and the Recorder dump both decode back
// to the input events, and the JSONL encoding round-trips them too.
func TestEventRoundTripAllKinds(t *testing.T) {
	t.Run("Writer", func(t *testing.T) {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range allKinds {
			w.Trace(ev)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, buf.Bytes()); !reflect.DeepEqual(got, allKinds) {
			t.Fatalf("round trip:\n got  %+v\n want %+v", got, allKinds)
		}
	})
	t.Run("Recorder", func(t *testing.T) {
		rec := NewRecorder(0)
		for i := range allKinds {
			rec.Trace(&allKinds[i])
		}
		var buf bytes.Buffer
		if err := rec.Dump(&buf, 0, nil); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, buf.Bytes()); !reflect.DeepEqual(got, allKinds) {
			t.Fatalf("round trip:\n got  %+v\n want %+v", got, allKinds)
		}
	})
	t.Run("JSONL", func(t *testing.T) {
		var buf bytes.Buffer
		jw := &JSONLWriter{W: &buf}
		for _, ev := range allKinds {
			jw.Trace(ev)
		}
		if jw.Err != nil || jw.Dropped != 0 {
			t.Fatalf("err=%v dropped=%d", jw.Err, jw.Dropped)
		}
		var got []Event
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var ev Event
			if err := dec.Decode(&ev); err != nil {
				t.Fatal(err)
			}
			got = append(got, ev)
		}
		if !reflect.DeepEqual(got, allKinds) {
			t.Fatalf("round trip:\n got  %+v\n want %+v", got, allKinds)
		}
	})
}

// TestEventCaptureZeroAlloc is the capture-cost gate over every event
// kind: once an event's strings are interned, neither binary sink
// allocates to record it.
func TestEventCaptureZeroAlloc(t *testing.T) {
	w, err := NewWriter(io.Discard, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := NewRecorder(0)
	recTrace := func(ev Event) { rec.Trace(&ev) }
	for name, trace := range map[string]func(Event){"Writer": w.Trace, "Recorder": recTrace} {
		for _, ev := range allKinds {
			trace(ev) // intern the strings, size the scratch
			if avg := testing.AllocsPerRun(100, func() { trace(ev) }); avg != 0 {
				t.Errorf("%s: %s allocates %.2f per event, want 0", name, ev.Kind, avg)
			}
		}
	}
}

// TestJSONLWriterWriteError pins the silent-loss fix: after a write
// error every subsequent event (and the one that hit the error) must be
// counted into Dropped, not vanish.
func TestJSONLWriterWriteError(t *testing.T) {
	jw := &JSONLWriter{W: failingSink{}}
	jw.Trace(Event{Kind: "pause"})
	if jw.Err == nil {
		t.Fatal("write error not captured")
	}
	if jw.Dropped != 1 {
		t.Fatalf("Dropped = %d after the failing event, want 1", jw.Dropped)
	}
	jw.Trace(Event{Kind: "pause"})
	jw.Trace(Event{Kind: "drop"})
	if jw.Dropped != 3 {
		t.Fatalf("Dropped = %d after two more events, want 3", jw.Dropped)
	}
}

// TestJSONLWriterCountsNothingOnSuccess: a healthy sink reports zero
// loss.
func TestJSONLWriterCountsNothingOnSuccess(t *testing.T) {
	var buf bytes.Buffer
	jw := &JSONLWriter{W: &buf}
	jw.Trace(Event{Kind: "pause", Node: "A", Peer: "B"})
	if jw.Err != nil || jw.Dropped != 0 {
		t.Fatalf("err=%v dropped=%d", jw.Err, jw.Dropped)
	}
}
