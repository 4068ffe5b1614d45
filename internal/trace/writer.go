package trace

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Config tunes a Writer. The zero value picks sensible defaults.
type Config struct {
	// RingSize is the ring capacity in 32-byte slots (rounded up to a
	// power of two; default 65536 ≈ 2 MB). The ring must absorb one
	// FlushInterval of peak event rate or records are dropped.
	RingSize int
	// FlushInterval is how often the writer goroutine drains the ring
	// (default 1ms). The final drain on Close is always complete.
	FlushInterval time.Duration
	// TickHz is the tick rate stamped into the header (default
	// TickHzNanos: ticks are nanoseconds).
	TickHz uint64
	// Dropped, when non-nil, mirrors the dropped-record count into a
	// telemetry counter so live soaks expose capture loss on /metrics.
	Dropped *telemetry.Counter
}

// Writer captures events from a single producer goroutine as
// fixed-width entries and streams them to an io.Writer from a
// background goroutine. Trace, Emit and Intern are wait-free and
// allocation-free in steady state (a first-seen string allocates once
// for its table entry); none ever blocks on the sink. Close stops the
// drainer, flushes, and reports the first sink error.
type Writer struct {
	ring *ring
	out  *bufio.Writer

	// strs interns strings; producer-only.
	strs   map[string]internedString
	nextID uint32
	rec    []Entry // Trace's encode scratch; producer-only

	ctr *telemetry.Counter

	stop    chan struct{}
	done    chan struct{}
	stopped sync.Once

	mu  sync.Mutex
	err error
}

// internedString tracks one interned string. defined=false means its
// KindStrDef record was dropped by a full ring; the next Intern of the
// same string retries so a long trace heals its table.
type internedString struct {
	id      uint32
	defined bool
}

// maxStrLen caps interned string bytes at what Aux can carry.
const maxStrLen = 1<<16 - 1

// NewWriter writes the file header synchronously (so a bad sink fails
// fast) and starts the drain goroutine. Callers must Close.
func NewWriter(w io.Writer, cfg Config) (*Writer, error) {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1 << 16
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = time.Millisecond
	}
	if cfg.TickHz == 0 {
		cfg.TickHz = TickHzNanos
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [HeaderSize]byte
	marshalHeader(&hdr, cfg.TickHz)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	tw := &Writer{
		ring: newRing(cfg.RingSize),
		out:  bw,
		strs: make(map[string]internedString),
		ctr:  cfg.Dropped,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go tw.run(cfg.FlushInterval)
	return tw, nil
}

// Intern returns the stable ID for s, assigning one and emitting its
// definition record on first sight. The empty string is ID 0 and never
// emitted. Single producer only.
func (w *Writer) Intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if e, ok := w.strs[s]; ok && e.defined {
		return e.id
	}
	e, ok := w.strs[s]
	if !ok {
		w.nextID++
		e = internedString{id: w.nextID}
	}
	if len(s) > maxStrLen {
		s = s[:maxStrLen]
	}
	k := 1 + strDefSlots(len(s))
	start, fit := w.ring.reserve(k)
	if !fit {
		// Definition lost; remember the ID and retry on next sight.
		w.strs[s] = e
		w.countDrop()
		return e.id
	}
	def := Entry{Kind: KindStrDef, A: e.id, Aux: uint16(len(s))}
	def.marshal(w.ring.slot(start))
	for i, off := 1, 0; off < len(s); i, off = i+1, off+EntrySize {
		slot := w.ring.slot(start + uint64(i))
		*slot = [EntrySize]byte{}
		copy(slot[:], s[off:])
	}
	w.ring.publish(k)
	e.defined = true
	w.strs[s] = e
	return e.id
}

// Trace captures one event as its wire record (see encode): its
// strings are interned first, then the record goes into the ring whole
// or is dropped whole. Once its strings are interned it is
// allocation-free. Single producer only.
func (w *Writer) Trace(ev Event) {
	w.rec = encode(w.rec[:0], &ev, w)
	w.emit(w.rec)
}

// Emit captures one raw entry, dropping (and counting) it when the ring
// is full. Single producer only.
func (w *Writer) Emit(e Entry) { w.emit([]Entry{e}) }

// emit captures rec as one all-or-nothing record.
func (w *Writer) emit(rec []Entry) {
	if len(rec) == 0 {
		return
	}
	start, fit := w.ring.reserve(len(rec))
	if !fit {
		w.countDrop()
		return
	}
	for i := range rec {
		rec[i].marshal(w.ring.slot(start + uint64(i)))
	}
	w.ring.publish(len(rec))
}

// Dropped returns how many records were lost — to ring backpressure or
// discarded after a sink write error.
func (w *Writer) Dropped() int64 { return w.ring.dropped.Load() }

func (w *Writer) countDrop() {
	w.ring.drop()
	w.ctr.Inc()
}

// run drains the ring on a ticker until stopped, then drains the rest.
func (w *Writer) run(flush time.Duration) {
	defer close(w.done)
	tick := time.NewTicker(flush)
	defer tick.Stop()
	buf := make([]byte, 0, 4096*EntrySize)
	for {
		select {
		case <-w.stop:
			w.drainAll(buf)
			return
		case <-tick.C:
			buf = w.drainOnce(buf)
		}
	}
}

// drainOnce moves every currently-pending slot to the sink.
func (w *Writer) drainOnce(buf []byte) []byte {
	for {
		buf = w.ring.drain(buf[:0], cap(buf)/EntrySize)
		if len(buf) == 0 {
			return buf
		}
		w.sink(buf)
	}
}

func (w *Writer) drainAll(buf []byte) { w.drainOnce(buf) }

// sink writes one drained batch, recording the first error; after an
// error, batches are discarded and counted so the producer never stalls
// and the loss is visible.
func (w *Writer) sink(buf []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		w.ring.dropped.Add(int64(len(buf) / EntrySize))
		w.ctr.Add(int64(len(buf) / EntrySize))
		return
	}
	if _, err := w.out.Write(buf); err != nil {
		w.err = err
		w.ring.dropped.Add(int64(len(buf) / EntrySize))
		w.ctr.Add(int64(len(buf) / EntrySize))
	}
}

// Close drains outstanding entries, flushes the sink, and returns the
// first write error (if any). The Writer must not be used afterwards.
func (w *Writer) Close() error {
	w.stopped.Do(func() { close(w.stop) })
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.err = w.out.Flush()
	return w.err
}
