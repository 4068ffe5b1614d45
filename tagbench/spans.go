package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (or inside a shim the benchmark hands the program). Spans of
// one operation share Op; Parent is the enclosing span (-1 for the
// operation's root), and the root's Label names the operation's input.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; the run writes them out
// when it ends. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// beginOp opens the root span of traced operation i on the named input.
func (t *tracer) beginOp(i int, label string) int {
	t.op = i
	t.ops++
	id := t.begin("op")
	t.spans[id].Label = label
	return id
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (the innermost open one) and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
	return time.Duration(s.End - s.Start)
}

// totalMs sums the durations of every span with this name.
func (t *tracer) totalMs(name string) float64 {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return float64(d) / 1e6
}

// totalUnderMs sums the durations of the spans with this name that
// have an ancestor span named ancestor.
func (t *tracer) totalUnderMs(name, ancestor string) float64 {
	var d int64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		for p := s.Parent; p >= 0; p = t.spans[p].Parent {
			if t.spans[p].Name == ancestor {
				d += s.End - s.Start
				break
			}
		}
	}
	return float64(d) / 1e6
}

// count returns how many spans carry this name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// perOpMs is the mean per traced operation of the time spent in spans
// with this name.
func (t *tracer) perOpMs(name string) float64 {
	if t.ops == 0 {
		return 0
	}
	return t.totalMs(name) / float64(t.ops)
}

// meanMs is the mean duration of the spans with this name.
func (t *tracer) meanMs(name string) float64 {
	if n := t.count(name); n > 0 {
		return t.totalMs(name) / float64(n)
	}
	return 0
}

// selfMs returns, summed over spans with this name, each span's
// duration minus the part its child spans cover.
func (t *tracer) selfMs(name string) float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start - child[s.ID]
		}
	}
	return float64(d) / 1e6
}

// unattributedMs is the mean per traced operation of the root span's
// self time: the part of the operation no layer span covers.
func (t *tracer) unattributedMs() float64 {
	if t.ops == 0 {
		return 0
	}
	return t.selfMs("op") / float64(t.ops)
}

// writeFile writes the spans as JSON lines into dir/name.
func (t *tracer) writeFile(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush %s: %w", name, err)
	}
	return f.Close()
}
