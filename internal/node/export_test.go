package node

import "time"

// Constants the external tests pin behaviour against.
const (
	SendWindow        = sendWindow
	OrphanRepairGrace = orphanRepairGrace
	MaxUnsyncedRelay  = maxUnsyncedRelay
)

// VerifiedCache exposes the verified-ID set to its test.
type VerifiedCache = verifiedCache

func NewVerifiedCache(capacity int) *VerifiedCache { return newVerifiedCache(capacity) }

// SetQuarantineBounds replaces the node's (empty) quarantine with one of
// the given bounds, for the test that fills it.
func (n *FullNode) SetQuarantineBounds(capacity int, ttl time.Duration) {
	n.quar = newQuarantine(capacity, ttl)
}
