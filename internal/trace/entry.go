package trace

import "encoding/binary"

// Entry is one decoded fixed-width record. Field meaning depends on
// Kind (encode and Reader.Next in reader.go are the one mapping between
// events and entries):
//
//	KindPause/KindResume: A=node, B=peer (string IDs), Prio, Depth
//	KindDrop:             A=node, B=flow, C=reason
//	KindDemote:           A=node, B=flow
//	KindDetect:           A=node, B=peer, C=reason, Prio
//	KindMitigate:         A=node, C=reason, Prio, Depth
//	KindDeadlock:         A=node, Aux=cycle length
//	KindCycleEdge:        C=edge description (one per cycle member)
//	KindStrDef:           A=assigned ID, Aux=byte length; the string
//	                      bytes follow in ceil(Aux/32) payload slots
type Entry struct {
	Tick  int64
	Kind  Kind
	Prio  uint8
	Aux   uint16
	A     uint32
	B     uint32
	C     uint32
	Depth int64
}

// marshal encodes e into a 32-byte slot.
func (e *Entry) marshal(b *[EntrySize]byte) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(e.Tick))
	b[8] = byte(e.Kind)
	b[9] = e.Prio
	binary.LittleEndian.PutUint16(b[10:12], e.Aux)
	binary.LittleEndian.PutUint32(b[12:16], e.A)
	binary.LittleEndian.PutUint32(b[16:20], e.B)
	binary.LittleEndian.PutUint32(b[20:24], e.C)
	binary.LittleEndian.PutUint64(b[24:32], uint64(e.Depth))
}

// UnmarshalEntry decodes one 32-byte slot. It never fails: any byte
// pattern decodes to some Entry, and the reader rejects nonsense by
// kind. (The fuzz target leans on this totality.)
func UnmarshalEntry(b []byte) Entry {
	_ = b[EntrySize-1]
	return Entry{
		Tick:  int64(binary.LittleEndian.Uint64(b[0:8])),
		Kind:  Kind(b[8]),
		Prio:  b[9],
		Aux:   binary.LittleEndian.Uint16(b[10:12]),
		A:     binary.LittleEndian.Uint32(b[12:16]),
		B:     binary.LittleEndian.Uint32(b[16:20]),
		C:     binary.LittleEndian.Uint32(b[20:24]),
		Depth: int64(binary.LittleEndian.Uint64(b[24:32])),
	}
}

// marshalHeader encodes the 16-byte file header.
func marshalHeader(b *[HeaderSize]byte, tickHz uint64) {
	binary.LittleEndian.PutUint32(b[0:4], Magic)
	binary.LittleEndian.PutUint32(b[4:8], Version)
	binary.LittleEndian.PutUint64(b[8:16], tickHz)
}

// byteSwap32 reverses a uint32's bytes (endian-swap detection).
func byteSwap32(v uint32) uint32 {
	return v<<24 | (v&0xff00)<<8 | (v>>8)&0xff00 | v>>24
}

// unmarshalHeader decodes and validates the 16-byte file header.
func unmarshalHeader(b []byte) (Header, error) {
	magic := binary.LittleEndian.Uint32(b[0:4])
	if magic != Magic {
		if magic == byteSwap32(Magic) {
			return Header{}, ErrEndianSwapped
		}
		return Header{}, ErrBadMagic
	}
	h := Header{
		Version: binary.LittleEndian.Uint32(b[4:8]),
		TickHz:  binary.LittleEndian.Uint64(b[8:16]),
	}
	if h.Version == 0 || h.Version > Version {
		return Header{}, &VersionError{Got: h.Version}
	}
	return h, nil
}

// strDefSlots returns how many payload slots a string of n bytes
// occupies after its KindStrDef entry.
func strDefSlots(n int) int { return (n + EntrySize - 1) / EntrySize }
