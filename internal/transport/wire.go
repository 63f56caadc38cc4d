package transport

import (
	"bytes"
	"fmt"

	"stellar/internal/ledger"
	"stellar/internal/overlay"
	"stellar/internal/scp"
	"stellar/internal/simnet"
	"stellar/internal/stellarcrypto"
	"stellar/internal/xdr"
)

// ProtocolVersion is the overlay wire protocol version carried in the
// hello; peers speaking a different version are dropped at handshake.
// v2 added the propagated trace context (two uint64s after Origin).
// v3 added the archive catchup kinds (cold-start file fetch).
// v4 floods proposals by reference (txset_ref, txset_req): a v3 peer would
// wait for whole sets nobody floods any more.
const ProtocolVersion = 4

// Hello opens the handshake in both directions: each side announces its
// protocol version, network, claimed identity, and a fresh random
// challenge the peer must sign to prove it controls the claimed key.
type Hello struct {
	Version   uint32
	NetworkID stellarcrypto.Hash
	PublicKey stellarcrypto.PublicKey
	Challenge [32]byte
}

func (h *Hello) encode() []byte {
	e := xdr.NewEncoder(128)
	e.PutUint32(h.Version)
	e.PutFixed(h.NetworkID[:])
	e.PutBytes(h.PublicKey.Bytes())
	e.PutFixed(h.Challenge[:])
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func decodeHello(payload []byte) (*Hello, error) {
	d := xdr.NewDecoder(payload)
	h := &Hello{}
	var err error
	if h.Version, err = d.Uint32(); err != nil {
		return nil, err
	}
	nid, err := d.Fixed(32)
	if err != nil {
		return nil, err
	}
	copy(h.NetworkID[:], nid)
	pk, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if h.PublicKey, err = stellarcrypto.PublicKeyFromBytes(pk); err != nil {
		return nil, err
	}
	ch, err := d.Fixed(32)
	if err != nil {
		return nil, err
	}
	copy(h.Challenge[:], ch)
	if !d.Done() {
		return nil, fmt.Errorf("transport: %d trailing bytes after hello", d.Remaining())
	}
	return h, nil
}

// authPayload is the canonical byte string a peer signs to answer a
// challenge: domain separator, network, the challenge it was sent, and its
// own public key (binding the proof to one identity so a signature cannot
// be replayed on behalf of another node).
func authPayload(networkID stellarcrypto.Hash, challenge [32]byte, signer stellarcrypto.PublicKey) []byte {
	e := xdr.NewEncoder(128)
	e.PutString("stellar-transport-auth-v1")
	e.PutFixed(networkID[:])
	e.PutFixed(challenge[:])
	e.PutBytes(signer.Bytes())
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func encodeAuth(sig []byte) []byte {
	e := xdr.NewEncoder(80)
	e.PutBytes(sig)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

func decodeAuth(payload []byte) ([]byte, error) {
	d := xdr.NewDecoder(payload)
	sig, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if !d.Done() {
		return nil, fmt.Errorf("transport: %d trailing bytes after auth", d.Remaining())
	}
	return sig, nil
}

// maxCatchupItems bounds a catch-up response; the herder serves at most
// its recent window (128 ledgers), so anything larger is hostile.
const maxCatchupItems = 1024

// maxArchivePath and maxArchiveChunk bound the archive catchup fields: a
// path is one archive-relative file name, and a chunk never exceeds the
// server's 128 KiB read unit (history.MaxChunkLen; restated here so the
// wire layer does not depend on the history package).
const (
	maxArchivePath  = 256
	maxArchiveChunk = 128 << 10
)

// EncodePacket returns the wire payload for one overlay packet.
func EncodePacket(p *overlay.Packet) ([]byte, error) {
	e := xdr.NewEncoder(512)
	if err := encodePacket(e, p); err != nil {
		return nil, err
	}
	return bytes.Clone(e.Bytes()), nil
}

// encodePacket appends the packet's wire payload to e.
func encodePacket(e *xdr.Encoder, p *overlay.Packet) error {
	e.PutUint32(uint32(p.Kind))
	e.PutUint32(uint32(p.TTL))
	e.PutString(string(p.Origin))
	// Trace context rides unconditionally (zeros when untraced) so the
	// canonical-encoding invariant — decode∘encode is the identity on
	// accepted payloads — holds without an optional-field marker. The
	// context's origin node is not encoded: it is always Packet.Origin
	// (forwarders relay both unchanged), so receivers derive it.
	e.PutUint64(p.Trace.Trace)
	e.PutUint64(p.Trace.Parent)
	switch p.Kind {
	case overlay.KindEnvelope:
		if p.Envelope == nil {
			return fmt.Errorf("transport: envelope packet without envelope")
		}
		p.Envelope.EncodeXDR(e)
	case overlay.KindTx:
		if p.Tx == nil {
			return fmt.Errorf("transport: tx packet without tx")
		}
		p.Tx.EncodeSignedXDR(e)
	case overlay.KindTxSet:
		if p.TxSet == nil {
			return fmt.Errorf("transport: txset packet without txset")
		}
		p.TxSet.EncodeXDR(e)
	case overlay.KindTxSetRef:
		if p.TxSetRef == nil {
			return fmt.Errorf("transport: txset_ref packet without reference")
		}
		p.TxSetRef.EncodeXDR(e)
	case overlay.KindTxSetReq:
		e.PutFixed(p.TxSetHash[:])
	case overlay.KindCatchupReq:
		e.PutUint32(p.CatchupFrom)
	case overlay.KindCatchupResp:
		e.PutUint32(uint32(len(p.CatchupItems)))
		for _, it := range p.CatchupItems {
			e.PutUint64(it.Slot)
			e.PutBytes(it.Value)
			if it.TxSet == nil {
				return fmt.Errorf("transport: catch-up item without txset")
			}
			it.TxSet.EncodeXDR(e)
		}
	case overlay.KindArchiveReq:
		e.PutString(p.ArchivePath)
		e.PutInt64(p.ArchiveOff)
	case overlay.KindArchiveResp:
		e.PutString(p.ArchivePath)
		e.PutInt64(p.ArchiveOff)
		e.PutInt64(p.ArchiveTotal)
		e.PutBytes(p.ArchiveData)
		e.PutFixed(p.ArchiveSum[:])
		e.PutUint32(p.ArchiveSeq)
		e.PutUint32(p.ArchiveTip)
		e.PutString(p.ArchiveErr)
	default:
		return fmt.Errorf("transport: cannot encode packet kind %v", p.Kind)
	}
	return nil
}

// DecodePacket parses one overlay packet from a frame payload.
func DecodePacket(payload []byte) (*overlay.Packet, error) {
	d := xdr.NewDecoder(payload)
	kind, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	ttl, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if ttl > overlay.DefaultTTL {
		return nil, fmt.Errorf("transport: packet TTL %d exceeds maximum %d", ttl, overlay.DefaultTTL)
	}
	origin, err := d.String()
	if err != nil {
		return nil, err
	}
	p := &overlay.Packet{Kind: overlay.Kind(kind), TTL: int(ttl), Origin: simnet.Addr(origin)}
	if p.Trace.Trace, err = d.Uint64(); err != nil {
		return nil, err
	}
	if p.Trace.Parent, err = d.Uint64(); err != nil {
		return nil, err
	}
	switch p.Kind {
	case overlay.KindEnvelope:
		if p.Envelope, err = scp.DecodeEnvelopeXDR(d); err != nil {
			return nil, err
		}
	case overlay.KindTx:
		if p.Tx, err = ledger.DecodeSignedTransactionFromXDR(d); err != nil {
			return nil, err
		}
	case overlay.KindTxSet:
		if p.TxSet, err = ledger.DecodeTxSetXDR(d); err != nil {
			return nil, err
		}
	case overlay.KindTxSetRef:
		if p.TxSetRef, err = ledger.DecodeTxSetRefXDR(d); err != nil {
			return nil, err
		}
	case overlay.KindTxSetReq:
		if err = d.FixedInto(p.TxSetHash[:]); err != nil {
			return nil, err
		}
	case overlay.KindCatchupReq:
		if p.CatchupFrom, err = d.Uint32(); err != nil {
			return nil, err
		}
	case overlay.KindCatchupResp:
		n, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		if n > maxCatchupItems {
			return nil, fmt.Errorf("transport: catch-up response with %d items", n)
		}
		if int(n)*16 > d.Remaining() {
			return nil, xdr.ErrTruncated
		}
		for i := uint32(0); i < n; i++ {
			var it overlay.CatchupItem
			if it.Slot, err = d.Uint64(); err != nil {
				return nil, err
			}
			if it.Value, err = d.Bytes(); err != nil {
				return nil, err
			}
			if it.TxSet, err = ledger.DecodeTxSetXDR(d); err != nil {
				return nil, err
			}
			p.CatchupItems = append(p.CatchupItems, it)
		}
	case overlay.KindArchiveReq:
		if p.ArchivePath, err = d.String(); err != nil {
			return nil, err
		}
		if len(p.ArchivePath) > maxArchivePath {
			return nil, fmt.Errorf("transport: archive path %d bytes", len(p.ArchivePath))
		}
		if p.ArchiveOff, err = d.Int64(); err != nil {
			return nil, err
		}
	case overlay.KindArchiveResp:
		if p.ArchivePath, err = d.String(); err != nil {
			return nil, err
		}
		if len(p.ArchivePath) > maxArchivePath {
			return nil, fmt.Errorf("transport: archive path %d bytes", len(p.ArchivePath))
		}
		if p.ArchiveOff, err = d.Int64(); err != nil {
			return nil, err
		}
		if p.ArchiveTotal, err = d.Int64(); err != nil {
			return nil, err
		}
		if p.ArchiveData, err = d.Bytes(); err != nil {
			return nil, err
		}
		if len(p.ArchiveData) > maxArchiveChunk {
			return nil, fmt.Errorf("transport: archive chunk %d bytes", len(p.ArchiveData))
		}
		sum, err := d.Fixed(32)
		if err != nil {
			return nil, err
		}
		copy(p.ArchiveSum[:], sum)
		if p.ArchiveSeq, err = d.Uint32(); err != nil {
			return nil, err
		}
		if p.ArchiveTip, err = d.Uint32(); err != nil {
			return nil, err
		}
		if p.ArchiveErr, err = d.String(); err != nil {
			return nil, err
		}
		if len(p.ArchiveErr) > maxArchivePath {
			return nil, fmt.Errorf("transport: archive error %d bytes", len(p.ArchiveErr))
		}
	default:
		return nil, fmt.Errorf("transport: unknown packet kind %d", kind)
	}
	if !d.Done() {
		return nil, fmt.Errorf("transport: %d trailing bytes after packet", d.Remaining())
	}
	return p, nil
}
