// Package chainbc implements a satoshi-style chain-structured blockchain
// — the baseline B-IoT's DAG design is compared against (paper §II-A).
//
// Transactions are validated into a mempool, batched into blocks, and a
// block is mined (header PoW) before the next batch can proceed: the
// "synchronous consensus" model whose one-at-a-time validation limits
// throughput. Forks are resolved by the longest-chain rule; blocks off
// the main chain are invalid ("the latest block in the longest chain is
// always chosen").
package chainbc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/b-iot/biot/internal/clock"
	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/txn"
)

// Config tunes the baseline chain.
type Config struct {
	// Difficulty is the block-header PoW difficulty in leading zero
	// bits.
	Difficulty int
	// MaxTxPerBlock bounds the batch size per block.
	MaxTxPerBlock int
}

// DefaultConfig mirrors a small IoT deployment: difficulty 12,
// 16 transactions per block.
func DefaultConfig() Config {
	return Config{Difficulty: 12, MaxTxPerBlock: 16}
}

// Validate checks config sanity.
func (c Config) Validate() error {
	if c.Difficulty < 1 || c.Difficulty > hashutil.Size*8 {
		return fmt.Errorf("chain difficulty %d out of range", c.Difficulty)
	}
	if c.MaxTxPerBlock < 1 {
		return fmt.Errorf("max tx per block %d must be ≥ 1", c.MaxTxPerBlock)
	}
	return nil
}

// Header is a block header.
type Header struct {
	Prev       hashutil.Hash
	MerkleRoot hashutil.Hash
	Height     uint64
	Timestamp  time.Time
	Difficulty int
	Nonce      uint64
}

// Encode returns the canonical header bytes (hashed for block identity
// and PoW).
func (h Header) Encode() []byte {
	buf := make([]byte, 0, hashutil.Size*2+8+8+4+8)
	buf = append(buf, h.Prev[:]...)
	buf = append(buf, h.MerkleRoot[:]...)
	buf = binary.BigEndian.AppendUint64(buf, h.Height)
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.Timestamp.UnixNano()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.Difficulty))
	buf = binary.BigEndian.AppendUint64(buf, h.Nonce)
	return buf
}

// ID returns the header hash.
func (h Header) ID() hashutil.Hash { return hashutil.Sum(h.Encode()) }

// Block is a mined block.
type Block struct {
	Header Header
	Txs    []*txn.Transaction
}

// ID returns the block identity (header hash).
func (b *Block) ID() hashutil.Hash { return b.Header.ID() }

// MerkleRoot computes the transaction Merkle root of the block.
func MerkleRoot(txs []*txn.Transaction) (hashutil.Hash, error) {
	if len(txs) == 0 {
		// An empty block commits to the zero leaf.
		return hashutil.MerkleRoot([]hashutil.Hash{hashutil.Zero})
	}
	leaves := make([]hashutil.Hash, len(txs))
	for i, t := range txs {
		leaves[i] = t.ID()
	}
	return hashutil.MerkleRoot(leaves)
}

type blockNode struct {
	block  *Block
	parent *blockNode
	height uint64
}

// Chain is the blockchain state: block tree + longest-chain head +
// mempool. Safe for concurrent use.
type Chain struct {
	cfg Config
	clk clock.Clock

	mu      sync.Mutex
	blocks  map[hashutil.Hash]*blockNode
	head    *blockNode
	genesis hashutil.Hash
	mempool []*txn.Transaction
	inChain map[hashutil.Hash]struct{} // txs on the main chain
}

// Chain errors.
var (
	ErrUnknownPrev   = errors.New("block extends unknown parent")
	ErrBadBlockPoW   = errors.New("block header does not meet difficulty")
	ErrBadMerkle     = errors.New("block merkle root mismatch")
	ErrBadHeight     = errors.New("block height does not follow parent")
	ErrDupBlock      = errors.New("block already known")
	ErrEmptyMempool  = errors.New("mempool is empty")
	ErrTxKnown       = errors.New("transaction already queued or mined")
	ErrInvalidTxSubm = errors.New("transaction failed validation")
)

// New creates a chain with a deterministic genesis block.
func New(cfg Config, clk clock.Clock) (*Chain, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("chain config: %w", err)
	}
	if clk == nil {
		clk = clock.Real()
	}
	root, err := MerkleRoot(nil)
	if err != nil {
		return nil, err
	}
	genesis := &Block{Header: Header{
		MerkleRoot: root,
		Timestamp:  time.Unix(0, 0).UTC(),
		Difficulty: cfg.Difficulty,
	}}
	node := &blockNode{block: genesis}
	c := &Chain{
		cfg:     cfg,
		clk:     clk,
		blocks:  map[hashutil.Hash]*blockNode{genesis.ID(): node},
		head:    node,
		genesis: genesis.ID(),
		inChain: make(map[hashutil.Hash]struct{}),
	}
	return c, nil
}

// Genesis returns the genesis block ID.
func (c *Chain) Genesis() hashutil.Hash { return c.genesis }

// Height returns the main-chain height (genesis = 0).
func (c *Chain) Height() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.head.height
}

// MempoolLen returns the number of queued transactions.
func (c *Chain) MempoolLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mempool)
}

// SubmitTx validates a transaction into the mempool (the synchronous
// model's admission step).
func (c *Chain) SubmitTx(t *txn.Transaction) error {
	if err := t.VerifyBasic(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidTxSubm, err)
	}
	id := t.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, mined := c.inChain[id]; mined {
		return fmt.Errorf("%w: %s", ErrTxKnown, id.Short())
	}
	for _, queued := range c.mempool {
		if queued.ID() == id {
			return fmt.Errorf("%w: %s", ErrTxKnown, id.Short())
		}
	}
	c.mempool = append(c.mempool, t.Clone())
	return nil
}

// MineBlock batches up to MaxTxPerBlock mempool transactions, mines the
// header PoW, and appends the block to the chain. It returns the mined
// block. Mining honours ctx cancellation.
func (c *Chain) MineBlock(ctx context.Context) (*Block, error) {
	c.mu.Lock()
	if len(c.mempool) == 0 {
		c.mu.Unlock()
		return nil, ErrEmptyMempool
	}
	n := len(c.mempool)
	if n > c.cfg.MaxTxPerBlock {
		n = c.cfg.MaxTxPerBlock
	}
	batch := c.mempool[:n]
	parent := c.head
	c.mu.Unlock()

	root, err := MerkleRoot(batch)
	if err != nil {
		return nil, err
	}
	header := Header{
		Prev:       parent.block.ID(),
		MerkleRoot: root,
		Height:     parent.height + 1,
		Timestamp:  c.clk.Now(),
		Difficulty: c.cfg.Difficulty,
	}
	for nonce := uint64(0); ; nonce++ {
		if nonce%1024 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		header.Nonce = nonce
		if header.ID().MeetsDifficulty(c.cfg.Difficulty) {
			break
		}
	}
	block := &Block{Header: header, Txs: batch}
	if err := c.AddBlock(block); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.mempool = append([]*txn.Transaction(nil), c.mempool[n:]...)
	c.mu.Unlock()
	return block, nil
}

// AddBlock validates and appends an externally produced block (peer
// relay or local miner), applying the longest-chain rule.
func (c *Chain) AddBlock(b *Block) error {
	if !b.Header.ID().MeetsDifficulty(b.Header.Difficulty) ||
		b.Header.Difficulty < c.cfg.Difficulty {
		return ErrBadBlockPoW
	}
	root, err := MerkleRoot(b.Txs)
	if err != nil {
		return err
	}
	if root != b.Header.MerkleRoot {
		return ErrBadMerkle
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	id := b.ID()
	if _, dup := c.blocks[id]; dup {
		return fmt.Errorf("%w: %s", ErrDupBlock, id.Short())
	}
	parent, ok := c.blocks[b.Header.Prev]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPrev, b.Header.Prev.Short())
	}
	if b.Header.Height != parent.height+1 {
		return fmt.Errorf("%w: %d after parent %d", ErrBadHeight, b.Header.Height, parent.height)
	}
	node := &blockNode{block: b, parent: parent, height: b.Header.Height}
	c.blocks[id] = node

	// Longest-chain rule: adopt the new branch if strictly higher.
	if node.height > c.head.height {
		c.reorgLocked(node)
	}
	return nil
}

// reorgLocked switches the main chain to the branch ending at node,
// recomputing the mined-transaction set.
func (c *Chain) reorgLocked(node *blockNode) {
	c.head = node
	c.inChain = make(map[hashutil.Hash]struct{})
	for cur := node; cur != nil; cur = cur.parent {
		for _, t := range cur.block.Txs {
			c.inChain[t.ID()] = struct{}{}
		}
	}
}

// OnMainChain reports whether a transaction is included in the current
// main chain.
func (c *Chain) OnMainChain(id hashutil.Hash) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.inChain[id]
	return ok
}

// MainChain returns the main-chain blocks from genesis to head.
func (c *Chain) MainChain() []*Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rev []*Block
	for cur := c.head; cur != nil; cur = cur.parent {
		rev = append(rev, cur.block)
	}
	out := make([]*Block, len(rev))
	for i, b := range rev {
		out[len(rev)-1-i] = b
	}
	return out
}

// BlockCount returns the total number of known blocks (all branches).
func (c *Chain) BlockCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blocks)
}
