package node

// Constants the external tests pin behaviour against.
const (
	SendWindow        = sendWindow
	OrphanRepairGrace = orphanRepairGrace
	MaxUnsyncedRelay  = maxUnsyncedRelay
)

// VerifiedCache exposes the verified-ID set to its test.
type VerifiedCache = verifiedCache

func NewVerifiedCache(capacity int) *VerifiedCache { return newVerifiedCache(capacity) }
