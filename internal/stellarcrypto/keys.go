// Package stellarcrypto provides the cryptographic primitives used across
// the Stellar reproduction: ed25519 account keys, SHA-256 hashing helpers,
// and the strkey-style human-readable encoding of public keys and seeds.
//
// Accounts on the ledger are named by ed25519 public keys (paper §5.1); the
// corresponding private key signs transactions for the account unless the
// account has been reconfigured with other signers.
package stellarcrypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Hash is a SHA-256 digest. Ledger headers, transaction sets, buckets, and
// SCP values are all identified by Hash (paper Fig 3).
type Hash [32]byte

// HashBytes returns the SHA-256 digest of data.
func HashBytes(data []byte) Hash {
	return sha256.Sum256(data)
}

// HashConcat hashes the concatenation of the given byte slices. Each slice is
// length-prefixed so that the encoding is injective: HashConcat("ab","c") is
// distinct from HashConcat("a","bc").
func HashConcat(parts ...[]byte) Hash {
	h := sha256.New()
	var lenbuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenbuf[:], uint64(len(p)))
		h.Write(lenbuf[:])
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// Zero reports whether h is the all-zero hash.
func (h Hash) Zero() bool { return h == Hash{} }

// String returns a short hex prefix for logging.
func (h Hash) String() string { return hex.EncodeToString(h[:4]) }

// Hex returns the full lowercase hex encoding.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// Less provides a total order over hashes (used for deterministic
// tie-breaking, e.g. choosing among nominated transaction sets, §5.3).
func (h Hash) Less(other Hash) bool {
	for i := range h {
		if h[i] != other[i] {
			return h[i] < other[i]
		}
	}
	return false
}

// PublicKey is an ed25519 public key naming an account or validator node.
type PublicKey struct {
	ed ed25519.PublicKey
}

// SecretKey holds an ed25519 private key.
type SecretKey struct {
	ed ed25519.PrivateKey
}

// KeyPair bundles a public key with its secret key.
type KeyPair struct {
	Public PublicKey
	Secret SecretKey
}

// GenerateKeyPair creates a new random ed25519 key pair.
func GenerateKeyPair() (KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return KeyPair{}, fmt.Errorf("stellarcrypto: generate key: %w", err)
	}
	return KeyPair{Public: PublicKey{ed: pub}, Secret: SecretKey{ed: priv}}, nil
}

// KeyPairFromSeed derives a deterministic key pair from a 32-byte seed.
// Simulations and tests use this so that runs are reproducible.
func KeyPairFromSeed(seed [32]byte) KeyPair {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return KeyPair{
		Public: PublicKey{ed: priv.Public().(ed25519.PublicKey)},
		Secret: SecretKey{ed: priv},
	}
}

// KeyPairFromString derives a key pair by hashing an arbitrary label. It is a
// convenience for tests and examples ("alice", "node-3", ...).
func KeyPairFromString(label string) KeyPair {
	return KeyPairFromSeed(HashBytes([]byte(label)))
}

// DeterministicKeyPairs returns n key pairs derived from a shared seed label,
// suitable for simulated validator fleets.
func DeterministicKeyPairs(label string, n int) []KeyPair {
	kps := make([]KeyPair, n)
	for i := range kps {
		kps[i] = KeyPairFromString(fmt.Sprintf("%s-%d", label, i))
	}
	return kps
}

// Bytes returns the raw 32-byte public key.
func (p PublicKey) Bytes() []byte {
	out := make([]byte, len(p.ed))
	copy(out, p.ed)
	return out
}

// IsZero reports whether the key is unset.
func (p PublicKey) IsZero() bool { return len(p.ed) == 0 }

// Equal reports whether two public keys are the same key.
func (p PublicKey) Equal(q PublicKey) bool { return string(p.ed) == string(q.ed) }

// Verify reports whether sig is a valid signature of msg under p.
func (p PublicKey) Verify(msg, sig []byte) bool {
	if len(p.ed) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(p.ed, msg, sig)
}

// Hint returns the signature hint for the key: its last four bytes, as
// in stellar-core's DecoratedSignature. Verifiers use the hint to try
// likely keys first instead of brute-forcing every candidate.
func (p PublicKey) Hint() [4]byte {
	var h [4]byte
	if len(p.ed) >= 4 {
		copy(h[:], p.ed[len(p.ed)-4:])
	}
	return h
}

// Address returns the strkey-style "G..." encoding of the public key.
func (p PublicKey) Address() string { return encodeStrkey(versionAccountID, p.ed) }

// String implements fmt.Stringer with a short address prefix for logs.
func (p PublicKey) String() string {
	if p.IsZero() {
		return "G(unset)"
	}
	addr := p.Address()
	return addr[:8]
}

// PublicKeyFromBytes builds a PublicKey from raw bytes.
func PublicKeyFromBytes(b []byte) (PublicKey, error) {
	if len(b) != ed25519.PublicKeySize {
		return PublicKey{}, fmt.Errorf("stellarcrypto: bad public key length %d", len(b))
	}
	k := make(ed25519.PublicKey, ed25519.PublicKeySize)
	copy(k, b)
	return PublicKey{ed: k}, nil
}

// PublicKeyFromAddress decodes a "G..." strkey address.
func PublicKeyFromAddress(addr string) (PublicKey, error) {
	payload, err := decodeStrkey(versionAccountID, addr)
	if err != nil {
		return PublicKey{}, err
	}
	return PublicKeyFromBytes(payload)
}

// Sign signs msg with the secret key.
func (s SecretKey) Sign(msg []byte) []byte {
	return ed25519.Sign(s.ed, msg)
}

// Seed returns the strkey-style "S..." encoding of the private seed.
func (s SecretKey) Seed() string { return encodeStrkey(versionSeed, s.ed.Seed()) }

// IsZero reports whether the key is unset.
func (s SecretKey) IsZero() bool { return len(s.ed) == 0 }
