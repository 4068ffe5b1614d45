package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Reader streams normalized events out of a binary trace. It validates
// the header eagerly and decodes entries lazily, holding only the
// string table in memory, so a multi-gigabyte trace reads in constant
// space.
//
// Damage tolerance mirrors the JSONL path: entries with an unknown kind
// and orphaned structural records are skipped and counted, a reference
// to a never-defined string ID resolves to "?", and a stream that ends
// mid-entry reports io.EOF with Truncated() set — analysis always gets
// whatever survived.
type Reader struct {
	br  *bufio.Reader
	hdr Header

	strs map[uint32]string

	pending   Entry // pushed-back entry (deadlock assembly overshoot)
	hasPend   bool
	skipped   int64
	alien     int64
	truncated bool

	// snap accumulates flight-recorder snapshot records (snapshot.go).
	snap *Snapshot

	buf [EntrySize]byte
}

// NewReader validates the stream header. ErrBadMagic, ErrEndianSwapped,
// *VersionError and ErrTruncated identify the ways a header can be
// unusable.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hb [HeaderSize]byte
	if _, err := io.ReadFull(br, hb[:]); err != nil {
		return nil, fmt.Errorf("%w: %d-byte header unreadable", ErrTruncated, HeaderSize)
	}
	hdr, err := unmarshalHeader(hb[:])
	if err != nil {
		return nil, err
	}
	if hdr.TickHz == 0 {
		return nil, fmt.Errorf("trace: header declares a zero tick rate")
	}
	return &Reader{br: br, hdr: hdr, strs: make(map[uint32]string)}, nil
}

// Header returns the decoded file header.
func (r *Reader) Header() Header { return r.hdr }

// Skipped counts undecodable entries passed over so far.
func (r *Reader) Skipped() int64 { return r.skipped }

// AlienKinds counts skipped entries whose kind this reader does not
// speak — the subset of Skipped that suggests the trace came from a
// newer producer rather than from damage.
func (r *Reader) AlienKinds() int64 { return r.alien }

// Truncated reports whether the stream ended inside a record.
func (r *Reader) Truncated() bool { return r.truncated }

// entry returns the next raw entry, honoring the one-slot pushback.
func (r *Reader) entry() (Entry, error) {
	if r.hasPend {
		r.hasPend = false
		return r.pending, nil
	}
	if _, err := io.ReadFull(r.br, r.buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			r.skipped++
			r.truncated = true
			err = io.EOF
		}
		return Entry{}, err
	}
	return UnmarshalEntry(r.buf[:]), nil
}

func (r *Reader) pushback(e Entry) {
	r.pending, r.hasPend = e, true
}

// str resolves an interned ID; a definition lost to capture
// backpressure (or corruption) renders as "?".
func (r *Reader) str(id uint32) string {
	if id == 0 {
		return ""
	}
	if s, ok := r.strs[id]; ok {
		return s
	}
	return "?"
}

// nanos rescales a tick to nanoseconds per the header's tick rate.
func (r *Reader) nanos(tick int64) int64 {
	if r.hdr.TickHz == TickHzNanos {
		return tick
	}
	hz := int64(r.hdr.TickHz)
	return tick/hz*1e9 + tick%hz*1e9/hz
}

// wireFields is the one event↔entry field mapping: which Event fields
// each simple event kind carries. Every kind stores Node in A; Peer or
// Flow (never both) goes in B, Reason in C. Deadlock onsets are
// multi-entry records and handled apart.
var wireFields = [kindMax]fieldSet{
	KindPause:    fPeer | fPrio | fDepth,
	KindResume:   fPeer | fPrio | fDepth,
	KindDrop:     fFlow | fReason,
	KindDemote:   fFlow,
	KindDetect:   fPeer | fReason | fPrio,
	KindMitigate: fReason | fPrio | fDepth,
}

type fieldSet uint8

const (
	fPeer fieldSet = 1 << iota
	fFlow
	fReason
	fPrio
	fDepth
)

// interner assigns string IDs: Writer and Recorder.
type interner interface{ Intern(s string) uint32 }

// encode appends ev's wire record to rec: one entry, or for a deadlock
// the onset plus one KindCycleEdge entry per hop. Strings are interned
// node first, then in field order (peer or flow, reason, cycle hops).
// An event kind with no wire form encodes to nothing.
func encode(rec []Entry, ev *Event, in interner) []Entry {
	k := KindOf(ev.Kind)
	if k == KindInvalid {
		return rec
	}
	// Fill the entry in place: building it aside and copying it in
	// costs a store-forwarding stall per event.
	rec = append(rec, Entry{})
	e := &rec[len(rec)-1]
	e.Tick, e.Kind = ev.T, k
	e.A = in.Intern(ev.Node)
	if k == KindDeadlock {
		e.Aux = uint16(len(ev.Cycle))
		for _, hop := range ev.Cycle {
			rec = append(rec, Entry{Tick: ev.T, Kind: KindCycleEdge, C: in.Intern(hop)})
		}
		return rec
	}
	f := wireFields[k]
	if f&fPeer != 0 {
		e.B = in.Intern(ev.Peer)
	}
	if f&fFlow != 0 {
		e.B = in.Intern(ev.Flow)
	}
	if f&fReason != 0 {
		e.C = in.Intern(ev.Reason)
	}
	if f&fPrio != 0 {
		e.Prio = uint8(ev.Prio)
	}
	if f&fDepth != 0 {
		e.Depth = ev.Depth
	}
	return rec
}

// decode is encode's inverse for a single-entry event.
func (r *Reader) decode(e Entry) Event {
	ev := Event{T: r.nanos(e.Tick), Kind: e.Kind.String(), Node: r.str(e.A)}
	f := wireFields[e.Kind]
	if f&fPeer != 0 {
		ev.Peer = r.str(e.B)
	}
	if f&fFlow != 0 {
		ev.Flow = r.str(e.B)
	}
	if f&fReason != 0 {
		ev.Reason = r.str(e.C)
	}
	if f&fPrio != 0 {
		ev.Prio = int(e.Prio)
	}
	if f&fDepth != 0 {
		ev.Depth = e.Depth
	}
	return ev
}

// Next returns the next event, or io.EOF at end of stream. Structural
// records (string definitions, cycle edges) are folded in and never
// surfaced.
func (r *Reader) Next() (Event, error) {
	for {
		e, err := r.entry()
		if err != nil {
			return Event{}, err
		}
		switch e.Kind {
		case KindStrDef:
			if err := r.readStrDef(e); err != nil {
				return Event{}, err
			}
		case KindPause, KindResume, KindDrop, KindDemote, KindDetect, KindMitigate:
			return r.decode(e), nil
		case KindDeadlock:
			return r.readDeadlock(e)
		case KindSnapStart, KindWaitQueue, KindWaitEdge, KindQueueState,
			KindRuleDef, KindRuleMatch, KindDetTag, KindSnapEnd:
			r.foldSnap(e)
		default:
			// Unknown kinds and orphaned cycle edges: skip, count, go on.
			if e.Kind >= kindMax {
				r.alien++
			}
			r.skipped++
		}
	}
}

// readStrDef consumes a definition's payload slots and installs the
// string. Redefinition of a live ID (corruption) keeps the first
// binding and counts the attempt.
func (r *Reader) readStrDef(e Entry) error {
	n := strDefSlots(int(e.Aux))
	payload := make([]byte, n*EntrySize)
	if _, err := io.ReadFull(r.br, payload); err != nil {
		r.skipped++
		r.truncated = true
		return io.EOF
	}
	if e.A == 0 {
		r.skipped++
		return nil
	}
	if _, dup := r.strs[e.A]; dup {
		r.skipped++
		return nil
	}
	r.strs[e.A] = string(payload[:e.Aux])
	return nil
}

// readDeadlock assembles an onset and its following cycle edges. A
// cycle cut short by truncation or drops yields the edges that made it.
func (r *Reader) readDeadlock(e Entry) (Event, error) {
	cycle := make([]string, 0, e.Aux)
	for len(cycle) < int(e.Aux) {
		ce, err := r.entry()
		if err != nil {
			break
		}
		if ce.Kind != KindCycleEdge {
			r.pushback(ce)
			break
		}
		cycle = append(cycle, r.str(ce.C))
	}
	ev := Event{T: r.nanos(e.Tick), Kind: "deadlock", Node: r.str(e.A)}
	if len(cycle) > 0 {
		ev.Cycle = cycle
	}
	return ev, nil
}
