package pipeline

import (
	"bufio"
	"io"

	"repro/internal/trace"
)

// JSONLSink is the compatibility export stage: it re-emits the event
// stream in the line-oriented format through trace.JSONLWriter, so the
// output is byte-identical to a JSONL capture of the same events.
// `taggertrace -o jsonl` uses it to downgrade binary captures for tools
// that still speak JSONL.
type JSONLSink struct {
	bw *bufio.Writer
	w  *trace.JSONLWriter
}

// NewJSONLSink buffers writes to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONLSink{bw: bw, w: &trace.JSONLWriter{W: bw}}
}

// Consume implements Sink. It returns the first write error.
func (s *JSONLSink) Consume(batch []trace.Event) error {
	for i := range batch {
		s.w.Trace(batch[i])
		if s.w.Err != nil {
			return s.w.Err
		}
	}
	return nil
}

// Close implements Sink.
func (s *JSONLSink) Close() error { return s.bw.Flush() }
