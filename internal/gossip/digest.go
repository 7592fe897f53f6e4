package gossip

// The heartbeat digest wire format: the compact byte string nodes and the
// front tier carry base64-encoded in X-Darwin-Gossip, on peer probes and on
// the front's /readyz polls alike, in both directions. Layout
// (little-endian):
//
//	[0]   magic 'G'
//	[1]   version (1)
//	[2:4] sender node id (0xFFFF = observer)
//	[4:6] entry count
//	then count entries of 11 bytes each: node uint16, seq uint64, status byte
//
// Encoding appends into a caller-owned buffer and decoding fills a
// caller-owned entry slice, so both directions are allocation-free once the
// buffers are warm — the digest rides on every probe, so its cost must stay
// in the noise (see the gossip bench arm). Corrupt bytes produce typed
// errors, never panics: the decoder is fuzzed like every other wire decoder
// in the repo.

import "errors"

// Entry is one node's heartbeat line in a digest.
type Entry struct {
	// Node is the node's index in the cluster's shared node order.
	Node uint16
	// Seq is the node's heartbeat sequence as known to the digest's sender.
	Seq uint64
	// Status is the sender's graded view of the node (a Status value) —
	// advisory observability; receivers grade with their own detector.
	Status uint8
}

// DigestVersion is the current wire format version.
const DigestVersion = 1

// digestMagic is the single-byte format tag.
const digestMagic = 'G'

// ObserverSender is the on-wire sender id of an observer digest (Self < 0).
const ObserverSender = 0xFFFF

// entrySize is the encoded size of one Entry.
const entrySize = 11

// headerSize is the encoded size of the digest header.
const headerSize = 6

// MaxDigestEntries bounds a digest's entry count — far above any plausible
// cluster, low enough that a hostile count can't balloon the decode.
const MaxDigestEntries = 4096

// Typed digest decode errors.
var (
	// ErrDigestMagic: the first byte is not the digest tag.
	ErrDigestMagic = errors.New("gossip: bad digest magic")
	// ErrDigestVersion: an unknown format version.
	ErrDigestVersion = errors.New("gossip: unsupported digest version")
	// ErrDigestLength: the byte length disagrees with the entry count
	// (truncated or trailing garbage).
	ErrDigestLength = errors.New("gossip: digest length mismatch")
	// ErrDigestStatus: an entry carries an invalid status byte.
	ErrDigestStatus = errors.New("gossip: invalid digest status")
)

// AppendDigest encodes sender's digest entries onto dst and returns the
// extended slice (append semantics: pass a buffer with spare capacity for an
// allocation-free encode).
func AppendDigest(dst []byte, sender int, entries []Entry) []byte {
	s := uint16(ObserverSender)
	if sender >= 0 {
		s = uint16(sender)
	}
	dst = append(dst, digestMagic, DigestVersion,
		byte(s), byte(s>>8),
		byte(len(entries)), byte(len(entries)>>8))
	for _, e := range entries {
		dst = append(dst,
			byte(e.Node), byte(e.Node>>8),
			byte(e.Seq), byte(e.Seq>>8), byte(e.Seq>>16), byte(e.Seq>>24),
			byte(e.Seq>>32), byte(e.Seq>>40), byte(e.Seq>>48), byte(e.Seq>>56),
			e.Status)
	}
	return dst
}

// DecodeDigest parses a digest into dst (append semantics), returning the
// sender node id (-1 for observers) and the filled entries. All errors are
// bare typed sentinels — the decoder runs on the peer-probe hot path, so the
// failure paths allocate nothing.
func DecodeDigest(data []byte, dst []Entry) (sender int, entries []Entry, err error) {
	if len(data) < headerSize {
		if len(data) > 0 && data[0] != digestMagic {
			return -1, dst, ErrDigestMagic
		}
		return -1, dst, ErrDigestLength
	}
	if data[0] != digestMagic {
		return -1, dst, ErrDigestMagic
	}
	if data[1] != DigestVersion {
		return -1, dst, ErrDigestVersion
	}
	s := uint16(data[2]) | uint16(data[3])<<8
	count := int(uint16(data[4]) | uint16(data[5])<<8)
	if count > MaxDigestEntries {
		return -1, dst, ErrDigestLength
	}
	if len(data) != headerSize+count*entrySize {
		return -1, dst, ErrDigestLength
	}
	sender = -1
	if s != ObserverSender {
		sender = int(s)
	}
	for i := 0; i < count; i++ {
		b := data[headerSize+i*entrySize:]
		e := Entry{
			Node: uint16(b[0]) | uint16(b[1])<<8,
			Seq: uint64(b[2]) | uint64(b[3])<<8 | uint64(b[4])<<16 | uint64(b[5])<<24 |
				uint64(b[6])<<32 | uint64(b[7])<<40 | uint64(b[8])<<48 | uint64(b[9])<<56,
			Status: b[10],
		}
		if e.Status > uint8(Dead) {
			return sender, dst, ErrDigestStatus
		}
		dst = append(dst, e)
	}
	return sender, dst, nil
}
