package gossip

import "context"

// ReplyBuffer is storage a caller lends Request for the reply to one
// exchange, so that a caller paging through a peer's ledger reads every
// page into the same bytes instead of a fresh frame each: the TCP
// transport reads the reply frame into it and decodes the reply's TxData
// headers into it, growing either as needed. The reply's TxData then
// alias the buffer, and are valid until it is lent again.
//
// A buffer may be lent again once the Request it was lent to has returned
// its reply, and once the caller is done with that reply. A buffer lent
// to a Request that failed — above all one that timed out or whose
// context ended — must never be lent again: its reply may still be on its
// way into it. The zero ReplyBuffer is ready to use.
//
// Transports and decorators that do not read frames (the in-memory Bus,
// fault and delay wrappers) pass the context through and ignore it, so
// lending a buffer changes where a reply's bytes live, never what a
// Request returns.
type ReplyBuffer struct {
	frame  []byte
	txData [][]byte
}

type replyBufferKey struct{}

// WithReplyBuffer returns a context under which a Request reads its reply
// into buf (see ReplyBuffer for when buf may be lent again).
func WithReplyBuffer(ctx context.Context, buf *ReplyBuffer) context.Context {
	return context.WithValue(ctx, replyBufferKey{}, buf)
}

// ReplyBufferOf returns the buffer lent under ctx, or nil.
func ReplyBufferOf(ctx context.Context) *ReplyBuffer {
	buf, _ := ctx.Value(replyBufferKey{}).(*ReplyBuffer)
	return buf
}
