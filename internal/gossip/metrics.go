package gossip

import "github.com/b-iot/biot/internal/metrics"

// TransportMetrics exposes the TCP transport's observability surface.
// Dials vs Reuses is the headline ratio: a healthy pooled deployment
// dials once per peer per failure epoch and reuses everywhere else,
// where the one-shot transport dialed once per exchange.
type TransportMetrics struct {
	// Dials counts TCP connections established; Reuses counts exchanges
	// served over an already-open pooled connection.
	Dials  metrics.Counter
	Reuses metrics.Counter
	// DialFailures counts failed connection attempts (the backoff
	// schedule keys off consecutive failures).
	DialFailures metrics.Counter
	// Reconnects counts teardowns of a previously healthy pooled
	// connection (peer restart, idle close, I/O error).
	Reconnects metrics.Counter
	// BytesIn / BytesOut count wire bytes including frame headers.
	BytesIn  metrics.Counter
	BytesOut metrics.Counter
	// ExchangeRTT samples full request→response round trips.
	ExchangeRTT metrics.Histogram
	// InFlight is the number of exchanges currently awaiting a response
	// across all pooled connections (multiplexing depth).
	InFlight metrics.Gauge
	// Pings counts keepalive frames sent on idle pooled connections.
	Pings metrics.Counter
}
