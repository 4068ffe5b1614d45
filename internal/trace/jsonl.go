package trace

import (
	"encoding/json"
	"io"
)

// JSONLWriter writes one JSON object per event per line, the
// line-oriented interchange format for offline analysis. It costs an
// encode and a write per event — fine for figure-sized runs; long soaks
// should use the binary Writer.
type JSONLWriter struct {
	W io.Writer
	// Err records the first write error. Tracing keeps accepting events
	// after it, counting them into Dropped instead of writing.
	Err error
	// Dropped counts events lost after Err: the event that hit the
	// error and everything since. Consumers surface it so a trace that
	// ran out of disk reads as "lossy", never as "quiet".
	Dropped int64
	enc     *json.Encoder
}

// Trace writes ev as one JSON line.
func (t *JSONLWriter) Trace(ev Event) {
	if t.Err != nil {
		t.Dropped++
		return
	}
	if t.enc == nil {
		t.enc = json.NewEncoder(t.W)
	}
	if err := t.enc.Encode(ev); err != nil {
		t.Err = err
		t.Dropped++
	}
}
