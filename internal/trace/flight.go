package trace

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Recorder is the flight recorder's in-memory ring: a fixed number of
// 32-byte entry slots, holding entries already marshaled in the wire
// layout, that the producer overwrites oldest-first, so the last K
// microseconds of events are always on hand for an incident dump while
// steady-state cost stays at one marshal per entry — no atomics, no
// goroutine, no allocation.
//
// This is deliberately NOT the SPSC ring behind Writer: that one feeds
// a live consumer and drops the newest records under backpressure
// (recent history is what the analyst loses); the flight ring has no
// consumer until a trigger fires and keeps the newest records, shedding
// the oldest (exactly what a post-mortem wants). Overwrites counts the
// shed entries.
//
// Interned strings live outside the ring: string definitions are never
// overwritten, so every surviving entry still resolves after the ring
// has lapped many times. Dump emits the whole table up front.
//
// A Recorder is single-goroutine, like the simulator it instruments.
type Recorder struct {
	slots [][EntrySize]byte // marshaled entries
	mask  uint64
	head  uint64 // total records ever written

	strs map[string]uint32
	defs []string // defs[i] is the string behind ID i+1
	rec  []Entry  // Trace's encode scratch
}

// NewRecorder sizes a ring of at least the given slot count (rounded up
// to a power of two, minimum 64; <= 0 selects the 16384-slot default:
// 512 KiB of history, several milliseconds of a busy fabric's events).
func NewRecorder(slots int) *Recorder {
	if slots <= 0 {
		slots = 1 << 14
	}
	n := 64
	for n < slots {
		n <<= 1
	}
	return &Recorder{
		slots: make([][EntrySize]byte, n),
		mask:  uint64(n - 1),
		strs:  make(map[string]uint32),
	}
}

// Intern returns the stable ID for s (0 for the empty string),
// assigning one on first sight. Later calls for a known string are
// allocation-free.
func (r *Recorder) Intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := r.strs[s]; ok {
		return id
	}
	if len(s) > maxStrLen {
		s = s[:maxStrLen]
	}
	id := uint32(len(r.defs) + 1)
	r.strs[s] = id
	r.defs = append(r.defs, s)
	return id
}

// Trace records one event as its wire record (see encode), the same
// entries Writer captures. Once its strings are interned it is
// allocation-free.
func (r *Recorder) Trace(ev *Event) {
	r.rec = encode(r.rec[:0], ev, r)
	for i := range r.rec {
		r.record(&r.rec[i])
	}
}

// Record stores one entry, overwriting the oldest once the ring is
// full. This is the steady-state hot path: a marshal and an increment.
func (r *Recorder) Record(e Entry) { r.record(&e) }

func (r *Recorder) record(e *Entry) {
	e.marshal(&r.slots[r.head&r.mask])
	r.head++
}

// Len returns how many entries the ring currently holds.
func (r *Recorder) Len() int {
	if r.head < uint64(len(r.slots)) {
		return int(r.head)
	}
	return len(r.slots)
}

// Overwrites returns how many entries have been shed to make room.
func (r *Recorder) Overwrites() int64 {
	if r.head <= uint64(len(r.slots)) {
		return 0
	}
	return int64(r.head - uint64(len(r.slots)))
}

// Dump writes a self-contained trace: header, the full string table,
// every surviving ring entry with Tick >= fromTick (oldest first), then
// the snapshot entries. The ring is not consumed — recording can
// continue and Dump can run again. A multi-slot deadlock record whose
// onset was overwritten leaves orphaned cycle edges at the window head;
// the reader skip-and-counts those by contract.
func (r *Recorder) Dump(w io.Writer, fromTick int64, snapshot []Entry) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hb [HeaderSize]byte
	marshalHeader(&hb, TickHzNanos)
	if _, err := bw.Write(hb[:]); err != nil {
		return err
	}
	var eb [EntrySize]byte
	writeEntry := func(e Entry) error {
		e.marshal(&eb)
		_, err := bw.Write(eb[:])
		return err
	}
	var pad [EntrySize]byte
	for i, s := range r.defs {
		if err := writeEntry(Entry{Kind: KindStrDef, A: uint32(i + 1), Aux: uint16(len(s))}); err != nil {
			return err
		}
		if _, err := bw.WriteString(s); err != nil {
			return err
		}
		if _, err := bw.Write(pad[:strDefSlots(len(s))*EntrySize-len(s)]); err != nil {
			return err
		}
	}
	start := uint64(0)
	if r.head > uint64(len(r.slots)) {
		start = r.head - uint64(len(r.slots))
	}
	for i := start; i < r.head; i++ {
		slot := &r.slots[i&r.mask]
		if int64(binary.LittleEndian.Uint64(slot[0:8])) < fromTick {
			continue
		}
		if _, err := bw.Write(slot[:]); err != nil {
			return err
		}
	}
	for _, e := range snapshot {
		if err := writeEntry(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
