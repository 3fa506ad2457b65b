package tangle

import (
	"sort"

	"github.com/b-iot/biot/internal/hashutil"
)

// Shard namespaces partition the attachment order, not the DAG: every
// vertex is tagged with the namespace it was admitted into (0 = control
// plane: genesis and authorization lists, globally replicated; >= 1 =
// region data shards), and each namespace keeps its own attachment
// order so the cursor-paged sync protocol can page one region's history
// without walking the others. Approval edges freely cross namespaces —
// a data transaction may approve a control-plane tip — so confirmation
// weight and conflict resolution stay global.

// ShardOf returns the namespace the attached vertex was admitted into;
// ok is false for unknown IDs.
func (t *Tangle) ShardOf(id hashutil.Hash) (shard uint32, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.vertices.lookup(id)
	if !ok {
		return 0, false
	}
	return v.shard, true
}

// ShardSize returns the number of resident vertices in the namespace.
func (t *Tangle) ShardSize(shard uint32) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if x := t.shardOrder[shard]; x != nil {
		return x.len()
	}
	return 0
}

// Shards returns the namespaces with at least one resident vertex, in
// ascending order.
func (t *Tangle) Shards() []uint32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]uint32, 0, len(t.shardOrder))
	for s, x := range t.shardOrder {
		if x.len() > 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResidentByShard returns the resident vertex count per namespace
// (namespaces with zero residents are omitted).
func (t *Tangle) ResidentByShard() map[uint32]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[uint32]int, len(t.shardOrder))
	for s, x := range t.shardOrder {
		if x.len() > 0 {
			out[s] = x.len()
		}
	}
	return out
}

// AppendEncodedShardRange is AppendEncodedRange over one namespace's
// attachment order.
func (t *Tangle) AppendEncodedShardRange(dst [][]byte, shard uint32, from, limit int, skip func(id *hashutil.Hash) bool) ([][]byte, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if x := t.shardOrder[shard]; x != nil {
		return appendEncoded(dst, x, from, limit, skip)
	}
	return dst, 0
}

// OrderedShardIDs returns up to limit attached transaction IDs starting
// at index from of the namespace's attachment order — the ID-only
// companion of AppendEncodedShardRange.
func (t *Tangle) OrderedShardIDs(shard uint32, from, limit int) []hashutil.Hash {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if x := t.shardOrder[shard]; x != nil {
		return appendIDs(nil, x, from, limit)
	}
	return nil
}
