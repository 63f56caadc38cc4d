package ledger

import (
	"fmt"

	"stellar/internal/xdr"
)

// HeaderXDRLen is the length of every header's canonical encoding: its
// fields are all fixed-size.
const HeaderXDRLen = 340

// EncodeXDR appends the header's canonical encoding — the same field order
// Hash() commits to, so hash(encode(h)) and h.Hash() agree by construction.
func (h *Header) EncodeXDR(e *xdr.Encoder) {
	e.PutUint32(h.LedgerSeq)
	e.PutFixed(h.Prev[:])
	for _, p := range h.SkipList {
		e.PutFixed(p[:])
	}
	e.PutFixed(h.SCPValueHash[:])
	e.PutFixed(h.TxSetHash[:])
	e.PutFixed(h.ResultsHash[:])
	e.PutFixed(h.SnapshotHash[:])
	e.PutInt64(h.CloseTime)
	e.PutInt64(h.BaseFee)
	e.PutInt64(h.BaseReserve)
	e.PutUint32(uint32(h.MaxTxSetSize))
	e.PutUint32(h.ProtocolVersion)
	e.PutInt64(h.TotalCoins)
	e.PutInt64(h.FeePool)
}

// DecodeHeaderXDR parses a header written by EncodeXDR.
func DecodeHeaderXDR(d *xdr.Decoder) (*Header, error) {
	h := &Header{}
	var err error
	if h.LedgerSeq, err = d.Uint32(); err != nil {
		return nil, err
	}
	fixed32 := func(dst *[32]byte) error {
		b, err := d.Fixed(32)
		if err != nil {
			return err
		}
		copy(dst[:], b)
		return nil
	}
	if err = fixed32((*[32]byte)(&h.Prev)); err != nil {
		return nil, err
	}
	for i := range h.SkipList {
		if err = fixed32((*[32]byte)(&h.SkipList[i])); err != nil {
			return nil, err
		}
	}
	if err = fixed32((*[32]byte)(&h.SCPValueHash)); err != nil {
		return nil, err
	}
	if err = fixed32((*[32]byte)(&h.TxSetHash)); err != nil {
		return nil, err
	}
	if err = fixed32((*[32]byte)(&h.ResultsHash)); err != nil {
		return nil, err
	}
	if err = fixed32((*[32]byte)(&h.SnapshotHash)); err != nil {
		return nil, err
	}
	if h.CloseTime, err = d.Int64(); err != nil {
		return nil, err
	}
	if h.BaseFee, err = d.Int64(); err != nil {
		return nil, err
	}
	if h.BaseReserve, err = d.Int64(); err != nil {
		return nil, err
	}
	maxTx, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if maxTx > 1<<24 {
		return nil, fmt.Errorf("ledger: header max tx set size %d implausible", maxTx)
	}
	h.MaxTxSetSize = int(maxTx)
	if h.ProtocolVersion, err = d.Uint32(); err != nil {
		return nil, err
	}
	if h.TotalCoins, err = d.Int64(); err != nil {
		return nil, err
	}
	if h.FeePool, err = d.Int64(); err != nil {
		return nil, err
	}
	return h, nil
}
