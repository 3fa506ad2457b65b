package gossip

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Mux frame layer: the unit of the persistent transport. One TCP
// connection carries any number of frames in each direction; a request
// ID ties a response frame back to the request it answers, so multiple
// exchanges are in flight over one socket at once.
//
// Layout:
//
//	4-byte big-endian body length | 1-byte kind | 8-byte big-endian request id | message bytes
//
// The body length counts everything after the length word (kind + id +
// message). Bodies above MaxMessageBytes+frameOverhead are rejected
// before buffering, exactly like the one-shot framing this replaces.
// Ping frames carry an empty message: they only refresh the receiver's
// idle deadline and prove the socket is still writable.

const (
	// frameOverhead is the kind byte plus the request-id word.
	frameOverhead = 1 + 8

	// FrameRequest carries an encoded Message expecting a response with
	// the same request id.
	FrameRequest byte = 1
	// FrameResponse carries the encoded reply Message for the request id.
	FrameResponse byte = 2
	// FramePing is an empty keepalive; it is never answered.
	FramePing byte = 3
)

// ErrBadFrame reports a malformed mux frame.
var ErrBadFrame = errors.New("malformed gossip frame")

// EncodeFrame renders one mux frame (length word included).
func EncodeFrame(kind byte, id uint64, payload []byte) []byte {
	return appendFrame(nil, kind, id, payload)
}

// appendFrame renders one mux frame over dst's storage.
func appendFrame(dst []byte, kind byte, id uint64, payload []byte) []byte {
	dst = slices.Grow(dst[:0], 4+frameOverhead+len(payload))
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameOverhead+len(payload)))
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, payload...)
}

// framePool recycles the two frame buffers a transport knows to be dead
// the moment it is done with them: a frame it has written (the socket
// keeps nothing), and on the accept side a request frame whose handler has
// returned and whose reply is written — a Handler must not keep
// msg.TxData, which aliases the frame, past its return (txn.Decode copies).
// A reply frame read on the dialing side is not pooled: the Message handed
// to Request's caller aliases it for as long as the caller likes. (The
// read loop reads its next frame over one nothing kept, such as the empty
// ack; drawn from this pool, a frame kept by its reply would take a
// pooled buffer with it, and the next frame written would allocate anew.)
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// DecodeFrame parses exactly one complete frame. Trailing bytes, unknown
// kinds, oversized bodies, ping frames with payloads and truncated
// inputs are rejected; on success the frame re-encodes to the identical
// byte string (fuzz-enforced).
func DecodeFrame(data []byte) (kind byte, id uint64, payload []byte, err error) {
	if len(data) < 4+frameOverhead {
		return 0, 0, nil, fmt.Errorf("%w: truncated header", ErrBadFrame)
	}
	body := binary.BigEndian.Uint32(data)
	if body > MaxMessageBytes+frameOverhead {
		return 0, 0, nil, fmt.Errorf("%w: frame body of %d bytes", ErrMessageSize, body)
	}
	if body < frameOverhead || uint64(len(data)) != 4+uint64(body) {
		return 0, 0, nil, fmt.Errorf("%w: length mismatch", ErrBadFrame)
	}
	kind = data[4]
	if kind != FrameRequest && kind != FrameResponse && kind != FramePing {
		return 0, 0, nil, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, kind)
	}
	id = binary.BigEndian.Uint64(data[5:])
	payload = append([]byte(nil), data[4+frameOverhead:]...)
	if kind == FramePing && len(payload) != 0 {
		return 0, 0, nil, fmt.Errorf("%w: ping with payload", ErrBadFrame)
	}
	return kind, id, payload, nil
}

// frameMessage renders one mux frame carrying msg over dst's storage,
// encoding the message straight into the frame buffer: no copy, where
// EncodeFrame(kind, id, EncodeMessage(msg)) allocates twice and copies once.
func frameMessage(dst []byte, kind byte, id uint64, msg Message) []byte {
	out := slices.Grow(dst[:0], 4+frameOverhead+messageSizeBound(msg))[:4+frameOverhead]
	out = appendMessage(out, msg)
	binary.BigEndian.PutUint32(out, uint32(len(out)-4))
	out[4] = kind
	binary.BigEndian.PutUint64(out[5:], id)
	return out
}

// readFrame receives one mux frame, rejecting oversized bodies before
// buffering them; the payload is read over into's storage when that is
// large enough. The header is read in place from the reader's buffer, so
// a frame whose payload fits into costs no allocation. Returns the wire
// size consumed alongside the frame.
func readFrame(reader *bufio.Reader, into []byte) (kind byte, id uint64, payload []byte, wire int, err error) {
	hdr, err := reader.Peek(4 + frameOverhead)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	body := binary.BigEndian.Uint32(hdr[:4])
	if body > MaxMessageBytes+frameOverhead {
		return 0, 0, nil, 0, fmt.Errorf("%w: frame body of %d bytes", ErrMessageSize, body)
	}
	if body < frameOverhead {
		return 0, 0, nil, 0, fmt.Errorf("%w: length mismatch", ErrBadFrame)
	}
	kind = hdr[4]
	if kind != FrameRequest && kind != FrameResponse && kind != FramePing {
		return 0, 0, nil, 0, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, kind)
	}
	id = binary.BigEndian.Uint64(hdr[5:])
	_, _ = reader.Discard(len(hdr)) // peeked: cannot fail
	payload = slices.Grow(into[:0], int(body-frameOverhead))[:body-frameOverhead]
	if _, err := io.ReadFull(reader, payload); err != nil {
		return 0, 0, nil, 0, err
	}
	if kind == FramePing && len(payload) != 0 {
		return 0, 0, nil, 0, fmt.Errorf("%w: ping with payload", ErrBadFrame)
	}
	return kind, id, payload, int(4 + body), nil
}
