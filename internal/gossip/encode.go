package gossip

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/b-iot/biot/internal/hashutil"
)

// Canonical binary codec for Message. One encoded Message is one
// datagram on the wire; TxData carries any number of transaction
// encodings, so a single datagram batches an arbitrary number of
// gossiped transactions (the node layer's broadcaster coalesces its
// queue into such batches).
//
// Layout (all integers are minimally encoded uvarints):
//
//	magic 0xB1 0x07 | version 0x03 | type | txCount | {len | bytes}* | haveCount | {32-byte hash}* | offset | total | more | shard | scoped
//
// The codec is bijective on its accepted set: any input DecodeMessage
// accepts re-encodes to the identical byte string. That property is
// fuzz-enforced and is what makes the format safe to hash, dedupe or
// journal.

const (
	encMagic0  = 0xB1
	encMagic1  = 0x07
	encVersion = 0x03

	// MaxMessageBytes bounds one datagram: framing rejects anything
	// larger before buffering it (flood defense on the TCP transport).
	MaxMessageBytes = 8 << 20
)

// Codec errors.
var (
	ErrBadMessage  = errors.New("malformed gossip message")
	ErrMessageSize = errors.New("gossip message exceeds size limit")
)

// EncodeMessage renders msg in the canonical binary form.
func EncodeMessage(msg Message) []byte {
	return appendMessage(make([]byte, 0, messageSizeBound(msg)), msg)
}

// messageSizeBound is an upper bound on msg's encoded length.
func messageSizeBound(msg Message) int {
	size := 3 + binary.MaxVarintLen64*7
	for _, tx := range msg.TxData {
		size += binary.MaxVarintLen64 + len(tx)
	}
	return size + binary.MaxVarintLen64 + len(msg.Have)*hashutil.Size
}

// emptyAck is the encoding of the zero Message — the reply to every
// transaction batch — rendered once.
var emptyAck = EncodeMessage(Message{})

// isZero reports whether m is the zero Message.
func (m *Message) isZero() bool {
	return m.Type == 0 && len(m.TxData) == 0 && len(m.Have) == 0 &&
		m.Offset == 0 && m.Total == 0 && !m.More && m.Shard == 0 && !m.Scoped
}

// appendMessage appends msg's canonical binary form to out.
func appendMessage(out []byte, msg Message) []byte {
	out = append(out, encMagic0, encMagic1, encVersion)
	out = binary.AppendUvarint(out, uint64(msg.Type))
	out = binary.AppendUvarint(out, uint64(len(msg.TxData)))
	for _, tx := range msg.TxData {
		out = binary.AppendUvarint(out, uint64(len(tx)))
		out = append(out, tx...)
	}
	out = binary.AppendUvarint(out, uint64(len(msg.Have)))
	for _, h := range msg.Have {
		out = append(out, h[:]...)
	}
	out = binary.AppendUvarint(out, msg.Offset)
	out = binary.AppendUvarint(out, msg.Total)
	more := uint64(0)
	if msg.More {
		more = 1
	}
	out = binary.AppendUvarint(out, more)
	out = binary.AppendUvarint(out, msg.Shard)
	scoped := uint64(0)
	if msg.Scoped {
		scoped = 1
	}
	out = binary.AppendUvarint(out, scoped)
	return out
}

// uvarint reads a minimally encoded uvarint; non-minimal encodings are
// rejected so every accepted message has exactly one byte form.
func uvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: truncated varint", ErrBadMessage)
	}
	if n > 1 && buf[n-1] == 0 {
		return 0, 0, fmt.Errorf("%w: non-minimal varint", ErrBadMessage)
	}
	return v, n, nil
}

// DecodeMessage parses the canonical binary form. Inputs with trailing
// bytes, oversized counts or non-minimal varints are rejected. The
// returned Message's TxData aliases data and is valid only while data is.
func DecodeMessage(data []byte) (Message, error) {
	return decodeMessage(data, nil)
}

// decodeMessage is DecodeMessage with the TxData headers appended to
// scratch[:0] when it has room for them: a caller that reuses the result
// for its next message decodes a batch without allocating.
func decodeMessage(data []byte, scratch [][]byte) (Message, error) {
	if len(data) > MaxMessageBytes {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrMessageSize, len(data))
	}
	if len(data) < 3 || data[0] != encMagic0 || data[1] != encMagic1 {
		return Message{}, fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	if data[2] != encVersion {
		return Message{}, fmt.Errorf("%w: unsupported version %d", ErrBadMessage, data[2])
	}
	rest := data[3:]

	typ, n, err := uvarint(rest)
	if err != nil {
		return Message{}, err
	}
	rest = rest[n:]

	txCount, n, err := uvarint(rest)
	if err != nil {
		return Message{}, err
	}
	rest = rest[n:]
	// Each entry needs at least its one-byte length prefix; this bounds
	// the allocation below by the input length.
	if txCount > uint64(len(rest)) {
		return Message{}, fmt.Errorf("%w: tx count %d exceeds payload", ErrBadMessage, txCount)
	}
	var txData [][]byte
	if txCount > 0 {
		txData = scratch[:0]
		if uint64(cap(txData)) < txCount {
			txData = make([][]byte, 0, txCount)
		}
	}
	for i := uint64(0); i < txCount; i++ {
		l, n, err := uvarint(rest)
		if err != nil {
			return Message{}, err
		}
		rest = rest[n:]
		if l > uint64(len(rest)) {
			return Message{}, fmt.Errorf("%w: tx entry truncated", ErrBadMessage)
		}
		// Zero-copy: each entry aliases the input datagram (cap-clipped
		// so appends cannot bleed into the next entry), and lives only as
		// long as it does. The accept side reads request frames into
		// pooled buffers that are reused once the Handler has returned and
		// its reply is written, so a Handler may not keep TxData past the
		// call; txn.Decode takes its own copy, and the handler decodes
		// immediately. A reply frame on the dialing side that carries
		// entries is the reply's: the Message handed to the caller owns it.
		txData = append(txData, rest[:l:l])
		rest = rest[l:]
	}

	haveCount, n, err := uvarint(rest)
	if err != nil {
		return Message{}, err
	}
	rest = rest[n:]
	if haveCount > uint64(len(rest)/hashutil.Size) {
		return Message{}, fmt.Errorf("%w: have section truncated", ErrBadMessage)
	}
	var have []hashutil.Hash
	if haveCount > 0 {
		have = make([]hashutil.Hash, haveCount)
		for i := range have {
			copy(have[i][:], rest[:hashutil.Size])
			rest = rest[hashutil.Size:]
		}
	}

	offset, n, err := uvarint(rest)
	if err != nil {
		return Message{}, err
	}
	rest = rest[n:]
	total, n, err := uvarint(rest)
	if err != nil {
		return Message{}, err
	}
	rest = rest[n:]
	more, n, err := uvarint(rest)
	if err != nil {
		return Message{}, err
	}
	rest = rest[n:]
	// more is a canonical boolean; anything else breaks the
	// one-input-one-encoding bijection.
	if more > 1 {
		return Message{}, fmt.Errorf("%w: non-boolean more flag", ErrBadMessage)
	}
	shard, n, err := uvarint(rest)
	if err != nil {
		return Message{}, err
	}
	rest = rest[n:]
	scoped, n, err := uvarint(rest)
	if err != nil {
		return Message{}, err
	}
	rest = rest[n:]
	if scoped > 1 {
		return Message{}, fmt.Errorf("%w: non-boolean scoped flag", ErrBadMessage)
	}
	// An unscoped message has no namespace, so a nonzero shard there
	// would give one logical message two encodings; reject it to keep
	// the codec canonical.
	if scoped == 0 && shard != 0 {
		return Message{}, fmt.Errorf("%w: shard set on unscoped message", ErrBadMessage)
	}
	if len(rest) != 0 {
		return Message{}, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(rest))
	}
	return Message{Type: MsgType(typ), TxData: txData, Have: have, Offset: offset, Total: total, More: more == 1, Shard: shard, Scoped: scoped == 1}, nil
}
