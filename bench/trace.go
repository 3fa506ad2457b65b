package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/hashutil"
)

// A span is one timed call across a seam. Parent is the index of the
// span that caused it (-1 for a root); spans of one transaction share
// its ID.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int32
	Tx     hashutil.Hash
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end runs keep tracing off.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index for children to name.
func (t *tracer) add(name string, start, end time.Time, parent int32, tx hashutil.Hash) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Tx: tx})
	idx := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return idx
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		out[i] = s.End.Sub(s.Start) - covered
	}
	return out
}

type spanJSON struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
	Parent  int32  `json:"parent"`
	Tx      string `json:"tx,omitempty"`
}

// writeTrace writes the spans, with times relative to epoch.
func writeTrace(path string, epoch time.Time, spans []span) error {
	self := selfTimes(spans)
	out := make([]spanJSON, len(spans))
	for i, s := range spans {
		out[i] = spanJSON{
			Name:    s.Name,
			StartNS: s.Start.Sub(epoch).Nanoseconds(),
			EndNS:   s.End.Sub(epoch).Nanoseconds(),
			SelfNS:  self[i].Nanoseconds(),
			Parent:  s.Parent,
		}
		if !s.Tx.IsZero() {
			out[i].Tx = s.Tx.Hex()
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
