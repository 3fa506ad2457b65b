package gossip

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// readOnly reads data as the transport reads a connection, expecting it
// to hold exactly one frame: it returns that frame and the wire size
// readFrame reported, or the error that refused it. Bytes left over after
// the frame are the cut-off start of another: io.ErrUnexpectedEOF.
func readOnly(data []byte) (kind byte, id uint64, payload []byte, wire int, err error) {
	kind, id, payload, wire, err = readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
	if err == nil && wire != len(data) {
		err = io.ErrUnexpectedEOF
	}
	return kind, id, payload, wire, err
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		kind    byte
		id      uint64
		payload []byte
	}{
		{FrameRequest, 1, EncodeMessage(Message{Type: MsgTransaction, TxData: [][]byte{{1, 2, 3}}})},
		{FrameResponse, 1 << 40, EncodeMessage(Message{})},
		{FrameRequest, 0, nil},
		{FramePing, 0, nil},
	}
	for i, tc := range cases {
		raw := EncodeFrame(tc.kind, tc.id, tc.payload)
		kind, id, payload, _, err := readOnly(raw)
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if kind != tc.kind || id != tc.id || !bytes.Equal(payload, tc.payload) {
			t.Errorf("case %d: round trip mismatch", i)
		}
		if !bytes.Equal(EncodeFrame(kind, id, payload), raw) {
			t.Errorf("case %d: re-encode differs", i)
		}
	}
}

func TestFrameDecodeRejects(t *testing.T) {
	valid := EncodeFrame(FrameRequest, 7, []byte{1, 2, 3})
	oversized := make([]byte, 4)
	binary.BigEndian.PutUint32(oversized, uint32(MaxMessageBytes+frameOverhead+1))
	// EncodeFrame cannot build a ping with a payload, so hand-assemble
	// one: append a body byte and fix up the length word.
	ping := EncodeFrame(FramePing, 0, nil)
	ping = append(ping, 0xAA)
	binary.BigEndian.PutUint32(ping, uint32(frameOverhead+1))
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated header", valid[:4]},
		{"truncated body", valid[:len(valid)-1]},
		{"trailing byte", append(append([]byte(nil), valid...), 0x00)},
		{"length below overhead", append([]byte{0, 0, 0, 1, byte(FrameRequest)}, make([]byte, 8)...)},
		{"unknown kind", append([]byte{0, 0, 0, 9, 0xFF}, make([]byte, 8)...)},
		{"ping with payload", ping},
		{"oversized body", append(oversized, make([]byte, frameOverhead)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, _, err := readOnly(tc.data); err == nil {
				t.Error("read accepted malformed frame")
			}
		})
	}
}

// TestTCPServerSurvivesTruncatedFrame writes a frame header promising
// more bytes than ever arrive. The server must drop that connection
// quietly and keep serving others.
func TestTCPServerSurvivesTruncatedFrame(t *testing.T) {
	a, _ := listenPooled(t)
	b, _ := listenPooled(t)
	a.AddPeer(b.Self())

	conn, err := dialRaw(b.Self())
	if err != nil {
		t.Fatal(err)
	}
	frame := EncodeFrame(FrameRequest, 9, EncodeMessage(Message{Type: MsgSyncRequest}))
	_, _ = conn.Write(frame[:len(frame)-3])
	_ = conn.Close()

	if _, err := a.Request(context.Background(), b.Self(), Message{Type: MsgSyncRequest}); err != nil {
		t.Errorf("request after truncated stream: %v", err)
	}
}

// TestTCPServerRejectsOversizedFrame sends a length word beyond the
// message bound; the server must refuse to buffer it and drop the
// connection without affecting other peers.
func TestTCPServerRejectsOversizedFrame(t *testing.T) {
	a, _ := listenPooled(t)
	b, _ := listenPooled(t)
	a.AddPeer(b.Self())

	conn, err := dialRaw(b.Self())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4 + frameOverhead]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxMessageBytes+frameOverhead+1))
	hdr[4] = FrameRequest
	_, _ = conn.Write(hdr[:])
	// The server must hang up on us rather than wait for 8 MiB.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, rerr := conn.Read(make([]byte, 1)); rerr == nil {
		t.Error("server kept the connection after an oversized frame")
	}
	_ = conn.Close()

	if _, err := a.Request(context.Background(), b.Self(), Message{Type: MsgSyncRequest}); err != nil {
		t.Errorf("request after oversized frame: %v", err)
	}
}

// TestTCPServerInterleavedFrames drives one raw connection through a
// ping, two interleaved requests and finally garbage: the pings are
// absorbed, both requests are answered with matching IDs, and the
// garbage only costs that connection.
func TestTCPServerInterleavedFrames(t *testing.T) {
	b, _ := listenPooled(t)
	b.SetHandler(&echoHandler{reply: &Message{Type: MsgSyncResponse}})

	conn, err := dialRaw(b.Self())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var buf bytes.Buffer
	buf.Write(EncodeFrame(FramePing, 0, nil))
	buf.Write(EncodeFrame(FrameRequest, 101, EncodeMessage(Message{Type: MsgSyncRequest})))
	buf.Write(EncodeFrame(FramePing, 0, nil))
	buf.Write(EncodeFrame(FrameRequest, 102, EncodeMessage(Message{Type: MsgSyncRequest})))
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := map[uint64]bool{}
	reader := bufio.NewReader(conn)
	for len(got) < 2 {
		kind, id, payload, _, err := readFrame(reader, nil)
		if err != nil {
			t.Fatalf("read response frame: %v (got %v)", err, got)
		}
		if kind != FrameResponse {
			t.Fatalf("unexpected frame kind %d", kind)
		}
		msg, merr := DecodeMessage(payload)
		if merr != nil || msg.Type != MsgSyncResponse {
			t.Fatalf("bad response payload: %v %+v", merr, msg)
		}
		got[id] = true
	}
	if !got[101] || !got[102] {
		t.Fatalf("response ids = %v, want 101 and 102", got)
	}
}

// TestTCPCloseReleasesGoroutines exercises the full transport (pool,
// keepalive, server dispatch) and verifies Close joins every goroutine
// it started — the leak check the frame-robustness tests rely on.
func TestTCPCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	a, _ := listenPooled(t, func(n *TCPNetwork) { n.keepalive = 10 * time.Millisecond })
	b, _ := listenPooled(t, func(n *TCPNetwork) { n.keepalive = 10 * time.Millisecond })
	a.AddPeer(b.Self())
	b.AddPeer(a.Self())
	for i := 0; i < 5; i++ {
		if _, err := a.Request(context.Background(), b.Self(), Message{}); err != nil {
			t.Fatalf("request: %v", err)
		}
		if err := b.Broadcast(context.Background(), Message{Type: MsgTransaction}); err != nil {
			t.Fatalf("broadcast: %v", err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FuzzReadFrame checks the frame reader the transport runs never panics
// and is bijective on its accepted set, mirroring FuzzDecodeMessage one
// layer down the stack: an accepted frame re-encodes to exactly the bytes
// it consumed, and the wire size it reports is that count.
func FuzzReadFrame(f *testing.F) {
	f.Add(EncodeFrame(FrameRequest, 1, EncodeMessage(Message{Type: MsgTransaction, TxData: [][]byte{{1, 2}}})))
	f.Add(EncodeFrame(FrameResponse, 1<<33, EncodeMessage(Message{})))
	f.Add(EncodeFrame(FramePing, 0, nil))
	f.Add(EncodeFrame(FrameRequest, 0, nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		reader := bufio.NewReader(src)
		kind, id, payload, wire, err := readFrame(reader, nil)
		if err != nil {
			if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrMessageSize) ||
				errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return
			}
			t.Fatalf("unexpected error class: %v", err)
		}
		consumed := len(data) - src.Len() - reader.Buffered()
		if wire != consumed {
			t.Fatalf("wire size %d, consumed %d bytes", wire, consumed)
		}
		if !bytes.Equal(EncodeFrame(kind, id, payload), data[:consumed]) {
			t.Fatal("accepted frame does not round-trip")
		}
	})
}
