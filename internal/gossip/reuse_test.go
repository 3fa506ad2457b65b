package gossip

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestLateReplyNeverCompletesALaterExchange: an exchange's call record is
// pooled, and the reply to an exchange whose caller stopped waiting — the
// reply timed out, or the caller's context was cancelled — may still be
// delivered into its record: the reply can be taken out of the pending
// table just as its caller gives up. That reply must never complete a
// later exchange on the same connection.
//
// Each round stages exactly that. The test holds the connection's pending
// table while one exchange's reply comes back, so the read loop waits to
// take the record out of the table; the caller, its channel still empty,
// gives up meanwhile and waits to drop the record behind it. Released, the
// read loop goes first and delivers the late reply into the record the
// caller has left. Prompt exchanges then draw records from the pool again,
// and each must bring back its own answer.
func TestLateReplyNeverCompletesALaterExchange(t *testing.T) {
	const (
		giveUp = 100 * time.Millisecond // the reply timeout, or the cancellation
		rounds = 6
		prompt = 32 // exchanges after each late reply
	)
	for _, tc := range []struct {
		name   string
		ioTO   time.Duration
		ctx    func() (context.Context, context.CancelFunc)
		gaveUp func(error) bool
	}{
		{
			name: "reply timeout",
			ioTO: giveUp,
			ctx:  func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			gaveUp: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "reply timeout")
			},
		},
		{
			name: "context cancelled",
			ioTO: 10 * time.Second,
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(giveUp, cancel)
				return ctx, cancel
			},
			gaveUp: func(err error) bool { return errors.Is(err, context.Canceled) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := listenPooled(t, WithIOTimeout(tc.ioTO))
			b, _ := listenPooled(t)
			a.AddPeer(b.Self())
			peer := b.Self()
			// The peer answers every request with the request's own Offset;
			// one marked More it reports as it arrives, and answers once
			// the test holds the table.
			arrived, held := make(chan struct{}, 1), make(chan struct{})
			t.Cleanup(func() { close(held) }) // before b closes: a failed round leaves no handler waiting
			b.SetHandler(HandlerFunc(func(_ string, msg Message) (*Message, error) {
				if msg.More {
					arrived <- struct{}{}
					<-held
				}
				return &Message{Type: MsgSyncResponse, Offset: msg.Offset}, nil
			}))
			next := uint64(0)
			ask := func(ctx context.Context, late bool) (uint64, Message, error) {
				next++
				reply, err := a.Request(ctx, peer, Message{Type: MsgSyncRequest, Offset: next, More: late})
				return next, reply, err
			}
			expectOwnAnswers := func(n int) {
				t.Helper()
				for range n {
					id, reply, err := ask(context.Background(), false)
					if err != nil {
						t.Fatalf("exchange %d: %v", id, err)
					}
					if reply.Offset != id {
						t.Fatalf("exchange %d was completed by the reply to exchange %d", id, reply.Offset)
					}
				}
			}
			expectOwnAnswers(1) // dials
			pc := a.conn(peer)

			for range rounds {
				ctx, cancel := tc.ctx()
				late := make(chan error, 1)
				go func() {
					_, _, err := ask(ctx, true)
					late <- err
				}()
				<-arrived // the exchange's record is in the table
				pc.pendingMu.Lock()
				held <- struct{}{}
				time.Sleep(2 * giveUp) // the reply is back, its caller has given up
				pc.pendingMu.Unlock()
				if err := <-late; !tc.gaveUp(err) {
					t.Fatalf("the exchange whose reply was held: err = %v, want it to give up", err)
				}
				cancel()
				expectOwnAnswers(prompt)
			}
		})
	}
}
