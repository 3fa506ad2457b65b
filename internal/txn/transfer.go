package txn

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/b-iot/biot/internal/hashutil"
	"github.com/b-iot/biot/internal/identity"
)

// Transfer is the body of a KindTransfer transaction: it moves Amount
// tokens from the issuer to To, and consumes the issuer's spend sequence
// number Seq.
//
// Double-spending (paper §III): "a malicious node wants to spend the same
// token twice or more through submitting multiple transactions before the
// previous one is verified". Two transfers from the same account with the
// same Seq are conflicting; the tangle keeps the branch with greater
// cumulative weight and rejects the other, and the conflict is reported
// to the credit ledger as a malicious event.
type Transfer struct {
	To     identity.Address
	Amount uint64
	Seq    uint64
}

const transferWireSize = hashutil.Size + 8 + 8

// Transfer payload errors.
var (
	ErrBadTransferBody = errors.New("malformed transfer payload")
	ErrZeroAmount      = errors.New("transfer amount must be positive")
)

// EncodeTransfer serializes a transfer body.
func EncodeTransfer(tr Transfer) []byte {
	buf := make([]byte, 0, transferWireSize)
	buf = append(buf, tr.To[:]...)
	buf = binary.BigEndian.AppendUint64(buf, tr.Amount)
	buf = binary.BigEndian.AppendUint64(buf, tr.Seq)
	return buf
}

// DecodeTransfer parses a transfer body.
func DecodeTransfer(data []byte) (Transfer, error) {
	if len(data) != transferWireSize {
		return Transfer{}, fmt.Errorf("%w: %d bytes, want %d",
			ErrBadTransferBody, len(data), transferWireSize)
	}
	var tr Transfer
	copy(tr.To[:], data[:hashutil.Size])
	tr.Amount = binary.BigEndian.Uint64(data[hashutil.Size:])
	tr.Seq = binary.BigEndian.Uint64(data[hashutil.Size+8:])
	return tr, nil
}

// TransferOf extracts and validates the transfer body of t. It returns
// ErrBadTransferBody-wrapped errors for non-transfer or malformed
// transactions.
func TransferOf(t *Transaction) (Transfer, error) { return transferOf(t.Kind, t.Payload) }

// Transfer is TransferOf for a viewed transaction.
func (v View) Transfer() (Transfer, error) { return transferOf(v.Kind(), v.Payload()) }

func transferOf(kind Kind, payload []byte) (Transfer, error) {
	if kind != KindTransfer {
		return Transfer{}, fmt.Errorf("%w: kind %v", ErrBadTransferBody, kind)
	}
	tr, err := DecodeTransfer(payload)
	if err != nil {
		return Transfer{}, err
	}
	if tr.Amount == 0 {
		return Transfer{}, ErrZeroAmount
	}
	return tr, nil
}

// SpendKey identifies the ledger resource a transfer consumes: the
// (account, sequence) pair. Two distinct transactions with the same
// SpendKey are a double spend.
type SpendKey struct {
	Account identity.Address
	Seq     uint64
}

// SpendKeyOf returns the spend key consumed by a transfer transaction.
func SpendKeyOf(t *Transaction, tr Transfer) SpendKey {
	return SpendKey{Account: t.Sender(), Seq: tr.Seq}
}

// SpendKey is SpendKeyOf for a viewed transaction.
func (v View) SpendKey(tr Transfer) SpendKey {
	return SpendKey{Account: v.Sender(), Seq: tr.Seq}
}
