package ledger

import (
	"bytes"
	"fmt"

	"stellar/internal/xdr"
)

// Decoders inverse to the EncodeXDR methods in tx.go and ops.go. The
// encoding is canonical, so decode followed by encode reproduces the
// input byte-for-byte for any well-formed envelope; the fuzz targets in
// internal/xdr hold the round-trip to that standard. Hostile inputs are
// bounded: declared counts are capped before allocation and optional
// uint8 fields must fit in eight bits.

// Decode-time caps. The operation cap matches stellar-core's 100-op
// transaction limit; the signature cap matches its 20-signature limit;
// the path cap matches the PathPayment documentation.
const (
	maxDecodeOperations = 100
	maxDecodeSignatures = 20
	maxDecodePathLen    = 5
)

// EncodeSignedXDR writes the complete transaction envelope: the signed
// payload (EncodeXDR) followed by the decorated signatures, which are
// excluded from the payload and the transaction hash.
func (tx *Transaction) EncodeSignedXDR(e *xdr.Encoder) {
	if tx.seal.wire != nil {
		e.PutFixed(tx.seal.wire)
		return
	}
	tx.encodePayload(e)
	tx.encodeSignatures(e)
}

// encodeSignatures encodes the decorated signatures from the fields.
func (tx *Transaction) encodeSignatures(e *xdr.Encoder) {
	e.PutUint32(uint32(len(tx.Signatures)))
	for i := range tx.Signatures {
		e.PutFixed(tx.Signatures[i].Hint[:])
		e.PutBytes(tx.Signatures[i].Sig)
	}
}

// MarshalSignedXDR encodes the full envelope into a fresh byte slice.
func (tx *Transaction) MarshalSignedXDR() []byte {
	if tx.seal.wire != nil {
		return bytes.Clone(tx.seal.wire)
	}
	e := xdr.NewEncoder(256)
	tx.EncodeSignedXDR(e)
	return bytes.Clone(e.Bytes())
}

// DecodeTransactionXDR reads the signed payload written by
// Transaction.EncodeXDR, leaving the decoder positioned after it.
func DecodeTransactionXDR(d *xdr.Decoder) (*Transaction, error) {
	tx := &Transaction{}
	src, err := d.String()
	if err != nil {
		return nil, err
	}
	tx.Source = AccountID(src)
	fee, err := d.Int64()
	if err != nil {
		return nil, err
	}
	tx.Fee = Amount(fee)
	if tx.SeqNum, err = d.Uint64(); err != nil {
		return nil, err
	}
	hasBounds, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if hasBounds {
		tb := &TimeBounds{}
		if tb.MinTime, err = d.Int64(); err != nil {
			return nil, err
		}
		if tb.MaxTime, err = d.Int64(); err != nil {
			return nil, err
		}
		tx.TimeBounds = tb
	}
	if tx.Memo, err = d.String(); err != nil {
		return nil, err
	}
	nops, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if nops > maxDecodeOperations {
		return nil, fmt.Errorf("ledger: transaction with %d operations", nops)
	}
	for i := uint32(0); i < nops; i++ {
		opSrc, err := d.String()
		if err != nil {
			return nil, err
		}
		typ, err := d.String()
		if err != nil {
			return nil, err
		}
		body, err := decodeOpBody(typ, d)
		if err != nil {
			return nil, err
		}
		tx.Operations = append(tx.Operations, Operation{Source: AccountID(opSrc), Body: body})
	}
	return tx, nil
}

// DecodeSignedTransactionXDR decodes a complete envelope written by
// EncodeSignedXDR, requiring all of data to be consumed.
func DecodeSignedTransactionXDR(data []byte) (*Transaction, error) {
	d := xdr.NewDecoder(data)
	tx, err := DecodeSignedTransactionFromXDR(d)
	if err != nil {
		return nil, err
	}
	if !d.Done() {
		return nil, fmt.Errorf("ledger: %d trailing bytes after envelope", d.Remaining())
	}
	return tx, nil
}

// DecodeSignedTransactionFromXDR reads one complete envelope from the
// decoder, leaving it positioned after the envelope (so containers such as
// transaction sets can decode several in sequence). The transaction comes
// back sealed over its own copy of the bytes it was decoded from.
func DecodeSignedTransactionFromXDR(d *xdr.Decoder) (*Transaction, error) {
	tx, err := decodeEnvelope(d)
	if err != nil {
		return nil, err
	}
	tx.seal.wire = bytes.Clone(tx.seal.wire)
	return tx, nil
}

// decodeEnvelope decodes one envelope and seals it over the decoder's input
// itself: the caller replaces seal.wire with a copy it owns.
func decodeEnvelope(d *xdr.Decoder) (*Transaction, error) {
	start := d.Offset()
	tx, err := DecodeTransactionXDR(d)
	if err != nil {
		return nil, err
	}
	payloadLen := d.Offset() - start
	nsigs, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if nsigs > maxDecodeSignatures {
		return nil, fmt.Errorf("ledger: transaction with %d signatures", nsigs)
	}
	for i := uint32(0); i < nsigs; i++ {
		hint, err := d.Fixed(4)
		if err != nil {
			return nil, err
		}
		sig, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		ds := DecoratedSignature{Sig: sig}
		copy(ds.Hint[:], hint)
		tx.Signatures = append(tx.Signatures, ds)
	}
	tx.seal = txSeal{wire: d.Since(start), payloadLen: payloadLen}
	return tx, nil
}

// maxDecodeTxSetSize caps the transactions one decoded set may declare;
// generously above any surge-priced ledger, far below a hostile length.
const maxDecodeTxSetSize = 1 << 16

// EncodeXDR writes the transaction set's wire form: the previous ledger
// hash followed by each signed transaction envelope.
func (ts *TxSet) EncodeXDR(e *xdr.Encoder) {
	size := len(ts.PrevLedgerHash) + 4
	for _, tx := range ts.Txs {
		size += len(tx.seal.wire) // sealed transactions know; the rest grow as before
	}
	e.Grow(size)
	e.PutFixed(ts.PrevLedgerHash[:])
	e.PutUint32(uint32(len(ts.Txs)))
	for _, tx := range ts.Txs {
		tx.EncodeSignedXDR(e)
	}
}

// EncodedLen is the number of bytes EncodeXDR writes; for a set of sealed
// transactions it costs a sum.
func (ts *TxSet) EncodedLen() int {
	n := len(ts.PrevLedgerHash) + 4
	for _, tx := range ts.Txs {
		if tx.seal.wire != nil {
			n += len(tx.seal.wire)
		} else {
			n += len(tx.MarshalSignedXDR())
		}
	}
	return n
}

// DecodeTxSetXDR reads one transaction set written by TxSet.EncodeXDR,
// leaving the decoder positioned after it. The set and its transactions
// come back sealed.
func DecodeTxSetXDR(d *xdr.Decoder) (*TxSet, error) {
	prev, err := d.Fixed(32)
	if err != nil {
		return nil, err
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxDecodeTxSetSize {
		return nil, fmt.Errorf("ledger: transaction set with %d transactions", n)
	}
	// Every envelope costs at least its source-string length prefix, so a
	// count the input cannot hold is rejected before allocating.
	if int(n)*4 > d.Remaining() {
		return nil, xdr.ErrTruncated
	}
	ts := &TxSet{seal: setSeal{sealed: true}}
	copy(ts.PrevLedgerHash[:], prev)
	start := d.Offset()
	for i := uint32(0); i < n; i++ {
		tx, err := decodeEnvelope(d)
		if err != nil {
			return nil, err
		}
		ts.Txs = append(ts.Txs, tx)
	}
	// One copy of the envelopes for the whole set; each transaction keeps
	// its window of it, capped so nothing can append into a neighbour.
	own := bytes.Clone(d.Since(start))
	for _, tx := range ts.Txs {
		w := len(tx.seal.wire)
		tx.seal.wire, own = own[:w:w], own[w:]
	}
	return ts, nil
}

// decodeOpBody dispatches on the operation type string written by
// Transaction.EncodeXDR.
func decodeOpBody(typ string, d *xdr.Decoder) (OpBody, error) {
	switch typ {
	case "CreateAccount":
		return decodeCreateAccount(d)
	case "Payment":
		return decodePayment(d)
	case "PathPayment":
		return decodePathPayment(d)
	case "ManageOffer":
		return decodeManageOffer(d)
	case "SetOptions":
		return decodeSetOptions(d)
	case "ChangeTrust":
		return decodeChangeTrust(d)
	case "AllowTrust":
		return decodeAllowTrust(d)
	case "AccountMerge":
		return decodeAccountMerge(d)
	case "ManageData":
		return decodeManageData(d)
	case "BumpSequence":
		return decodeBumpSequence(d)
	default:
		return nil, fmt.Errorf("ledger: unknown operation type %q", typ)
	}
}

func decodeCreateAccount(d *xdr.Decoder) (OpBody, error) {
	op := &CreateAccount{}
	dest, err := d.String()
	if err != nil {
		return nil, err
	}
	op.Destination = AccountID(dest)
	bal, err := d.Int64()
	if err != nil {
		return nil, err
	}
	op.StartingBalance = Amount(bal)
	return op, nil
}

func decodePayment(d *xdr.Decoder) (OpBody, error) {
	op := &Payment{}
	dest, err := d.String()
	if err != nil {
		return nil, err
	}
	op.Destination = AccountID(dest)
	if op.Asset, err = decodeAsset(d); err != nil {
		return nil, err
	}
	amt, err := d.Int64()
	if err != nil {
		return nil, err
	}
	op.Amount = Amount(amt)
	return op, nil
}

func decodePathPayment(d *xdr.Decoder) (OpBody, error) {
	op := &PathPayment{}
	var err error
	if op.SendAsset, err = decodeAsset(d); err != nil {
		return nil, err
	}
	max, err := d.Int64()
	if err != nil {
		return nil, err
	}
	op.SendMax = Amount(max)
	dest, err := d.String()
	if err != nil {
		return nil, err
	}
	op.Destination = AccountID(dest)
	if op.DestAsset, err = decodeAsset(d); err != nil {
		return nil, err
	}
	amt, err := d.Int64()
	if err != nil {
		return nil, err
	}
	op.DestAmount = Amount(amt)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxDecodePathLen {
		return nil, fmt.Errorf("ledger: path payment through %d assets", n)
	}
	for i := uint32(0); i < n; i++ {
		a, err := decodeAsset(d)
		if err != nil {
			return nil, err
		}
		op.Path = append(op.Path, a)
	}
	return op, nil
}

func decodeManageOffer(d *xdr.Decoder) (OpBody, error) {
	op := &ManageOffer{}
	var err error
	if op.OfferID, err = d.Uint64(); err != nil {
		return nil, err
	}
	if op.Selling, err = decodeAsset(d); err != nil {
		return nil, err
	}
	if op.Buying, err = decodeAsset(d); err != nil {
		return nil, err
	}
	amt, err := d.Int64()
	if err != nil {
		return nil, err
	}
	op.Amount = Amount(amt)
	if op.Price.N, err = d.Int32(); err != nil {
		return nil, err
	}
	if op.Price.D, err = d.Int32(); err != nil {
		return nil, err
	}
	if op.Passive, err = d.Bool(); err != nil {
		return nil, err
	}
	return op, nil
}

// decodeOptU8 reads the optional-uint8 shape SetOptions encodes: a
// presence bool, then the value as a uint32 that must fit in eight bits
// (anything larger could not have come from the encoder and would
// silently truncate on re-encode).
func decodeOptU8(d *xdr.Decoder) (*uint8, error) {
	present, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	v, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if v > 255 {
		return nil, fmt.Errorf("ledger: weight %d exceeds uint8", v)
	}
	u := uint8(v)
	return &u, nil
}

func decodeSetOptions(d *xdr.Decoder) (OpBody, error) {
	op := &SetOptions{}
	set, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	op.SetFlags = AccountFlags(set)
	clr, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	op.ClearFlags = AccountFlags(clr)
	if op.MasterWeight, err = decodeOptU8(d); err != nil {
		return nil, err
	}
	if op.LowThreshold, err = decodeOptU8(d); err != nil {
		return nil, err
	}
	if op.MedThreshold, err = decodeOptU8(d); err != nil {
		return nil, err
	}
	if op.HighThreshold, err = decodeOptU8(d); err != nil {
		return nil, err
	}
	hasSigner, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if hasSigner {
		key, err := d.String()
		if err != nil {
			return nil, err
		}
		w, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		if w > 255 {
			return nil, fmt.Errorf("ledger: signer weight %d exceeds uint8", w)
		}
		op.Signer = &Signer{Key: AccountID(key), Weight: uint8(w)}
	}
	hasDomain, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if hasDomain {
		dom, err := d.String()
		if err != nil {
			return nil, err
		}
		op.HomeDomain = &dom
	}
	return op, nil
}

func decodeChangeTrust(d *xdr.Decoder) (OpBody, error) {
	op := &ChangeTrust{}
	var err error
	if op.Asset, err = decodeAsset(d); err != nil {
		return nil, err
	}
	lim, err := d.Int64()
	if err != nil {
		return nil, err
	}
	op.Limit = Amount(lim)
	return op, nil
}

func decodeAllowTrust(d *xdr.Decoder) (OpBody, error) {
	op := &AllowTrust{}
	trustor, err := d.String()
	if err != nil {
		return nil, err
	}
	op.Trustor = AccountID(trustor)
	if op.AssetCode, err = d.String(); err != nil {
		return nil, err
	}
	if op.Authorize, err = d.Bool(); err != nil {
		return nil, err
	}
	return op, nil
}

func decodeAccountMerge(d *xdr.Decoder) (OpBody, error) {
	dest, err := d.String()
	if err != nil {
		return nil, err
	}
	return &AccountMerge{Destination: AccountID(dest)}, nil
}

func decodeManageData(d *xdr.Decoder) (OpBody, error) {
	op := &ManageData{}
	var err error
	if op.Name, err = d.String(); err != nil {
		return nil, err
	}
	present, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if present {
		// A present-but-empty value decodes to a non-nil empty slice so
		// that it re-encodes as present (nil means delete).
		if op.Value, err = d.Bytes(); err != nil {
			return nil, err
		}
	}
	return op, nil
}

func decodeBumpSequence(d *xdr.Decoder) (OpBody, error) {
	op := &BumpSequence{}
	var err error
	if op.BumpTo, err = d.Uint64(); err != nil {
		return nil, err
	}
	return op, nil
}
