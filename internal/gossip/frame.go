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

// framePool recycles the frame buffers a transport writes: once written,
// the socket keeps nothing. (Request frames read on the accept side are
// pooled with what is decoded out of them, in requestPool; a reply frame
// read on the dialing side is read into the caller's ReplyBuffer, or kept
// by the Message handed to Request's caller for as long as it likes.)
var framePool = sync.Pool{New: func() any { return new([]byte) }}

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
	kind, id, size, err := readFrameHeader(reader)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	if payload, err = readFramePayload(reader, kind, size, into); err != nil {
		return 0, 0, nil, 0, err
	}
	return kind, id, payload, 4 + frameOverhead + size, nil
}

// readFrameHeader is readFrame's first half: it consumes one frame's
// header and returns the size of the payload that follows, so that a
// reader can choose the storage for it by the frame's kind and request ID.
func readFrameHeader(reader *bufio.Reader) (kind byte, id uint64, size int, err error) {
	hdr, err := reader.Peek(4 + frameOverhead)
	if err != nil {
		return 0, 0, 0, err
	}
	body := binary.BigEndian.Uint32(hdr[:4])
	if body > MaxMessageBytes+frameOverhead {
		return 0, 0, 0, fmt.Errorf("%w: frame body of %d bytes", ErrMessageSize, body)
	}
	if body < frameOverhead {
		return 0, 0, 0, fmt.Errorf("%w: length mismatch", ErrBadFrame)
	}
	kind = hdr[4]
	if kind != FrameRequest && kind != FrameResponse && kind != FramePing {
		return 0, 0, 0, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, kind)
	}
	id = binary.BigEndian.Uint64(hdr[5:])
	_, _ = reader.Discard(len(hdr)) // peeked: cannot fail
	return kind, id, int(body - frameOverhead), nil
}

// readFramePayload is readFrame's second half: the size-byte payload of a
// frame of the given kind, read over into's storage when that is large
// enough.
func readFramePayload(reader *bufio.Reader, kind byte, size int, into []byte) ([]byte, error) {
	payload := slices.Grow(into[:0], size)[:size]
	if _, err := io.ReadFull(reader, payload); err != nil {
		return nil, err
	}
	if kind == FramePing && size != 0 {
		return nil, fmt.Errorf("%w: ping with payload", ErrBadFrame)
	}
	return payload, nil
}
