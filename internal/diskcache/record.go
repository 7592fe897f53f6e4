package diskcache

import (
	"encoding/binary"
	"hash/crc32"
)

// Segment record framing: every append is one self-validating record,
//
//	length  uint32LE — payload length in bytes
//	crc32   uint32LE — IEEE CRC32 of the payload
//	payload [length]byte
//
// and the payload is
//
//	op   byte    — opPut or opDelete
//	id   uint64LE
//	size int64LE — put records only
//
// A record whose length is implausible, whose payload is cut short, or whose
// checksum fails marks the end of the valid prefix: recovery keeps
// everything before it and truncates the rest (torn tail on crash).
const (
	opPut    = 1
	opDelete = 2

	recordHeader = 8         // length + crc32
	putPayload   = 1 + 8 + 8 // op + id + size
	delPayload   = 1 + 8     // op + id
	putRecord    = recordHeader + putPayload
	delRecord    = recordHeader + delPayload
	recordMax    = putRecord
)

// encodePut writes a put record for (id, size) into buf, which must hold at
// least recordMax bytes, and returns the encoded length.
func encodePut(buf []byte, id uint64, size int64) int {
	buf[recordHeader] = opPut
	binary.LittleEndian.PutUint64(buf[recordHeader+1:], id)
	binary.LittleEndian.PutUint64(buf[recordHeader+9:], uint64(size))
	binary.LittleEndian.PutUint32(buf, putPayload)
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[recordHeader:putRecord]))
	return putRecord
}

// encodeDelete writes a delete record for id into buf (at least recordMax
// bytes) and returns the encoded length.
func encodeDelete(buf []byte, id uint64) int {
	buf[recordHeader] = opDelete
	binary.LittleEndian.PutUint64(buf[recordHeader+1:], id)
	binary.LittleEndian.PutUint32(buf, delPayload)
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[recordHeader:delRecord]))
	return delRecord
}

// decodeRecord parses the record at the start of b. It returns the operation,
// id, size (puts only), and the total encoded length. ok is false when b does
// not begin with a complete, checksum-valid, well-formed record — the signal
// that recovery has reached the log's torn tail.
func decodeRecord(b []byte) (op byte, id uint64, size int64, n int, ok bool) {
	if len(b) < recordHeader {
		return 0, 0, 0, 0, false
	}
	length := binary.LittleEndian.Uint32(b)
	if length != putPayload && length != delPayload {
		return 0, 0, 0, 0, false
	}
	end := recordHeader + int(length)
	if len(b) < end {
		return 0, 0, 0, 0, false
	}
	if crc32.ChecksumIEEE(b[recordHeader:end]) != binary.LittleEndian.Uint32(b[4:]) {
		return 0, 0, 0, 0, false
	}
	op = b[recordHeader]
	id = binary.LittleEndian.Uint64(b[recordHeader+1:])
	switch {
	case op == opPut && length == putPayload:
		size = int64(binary.LittleEndian.Uint64(b[recordHeader+9:]))
		if size < 0 {
			return 0, 0, 0, 0, false
		}
	case op == opDelete && length == delPayload:
	default:
		return 0, 0, 0, 0, false
	}
	return op, id, size, end, true
}
