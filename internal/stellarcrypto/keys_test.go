package stellarcrypto

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateKeyPairSignVerify(t *testing.T) {
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	msg := []byte("hello stellar")
	sig := kp.Secret.Sign(msg)
	if !kp.Public.Verify(msg, sig) {
		t.Fatal("signature did not verify")
	}
	if kp.Public.Verify([]byte("tampered"), sig) {
		t.Fatal("signature verified for wrong message")
	}
}

func TestKeyPairFromSeedDeterministic(t *testing.T) {
	var seed [32]byte
	copy(seed[:], "some deterministic seed material")
	a := KeyPairFromSeed(seed)
	b := KeyPairFromSeed(seed)
	if !a.Public.Equal(b.Public) {
		t.Fatal("same seed produced different public keys")
	}
}

func TestKeyPairFromStringDistinct(t *testing.T) {
	a := KeyPairFromString("alice")
	b := KeyPairFromString("bob")
	if a.Public.Equal(b.Public) {
		t.Fatal("different labels produced equal keys")
	}
}

func TestDeterministicKeyPairs(t *testing.T) {
	kps := DeterministicKeyPairs("validator", 5)
	if len(kps) != 5 {
		t.Fatalf("got %d pairs, want 5", len(kps))
	}
	seen := map[string]bool{}
	for _, kp := range kps {
		addr := kp.Public.Address()
		if seen[addr] {
			t.Fatalf("duplicate key %s", addr)
		}
		seen[addr] = true
	}
	again := DeterministicKeyPairs("validator", 5)
	for i := range kps {
		if !kps[i].Public.Equal(again[i].Public) {
			t.Fatalf("pair %d not deterministic", i)
		}
	}
}

func TestAddressRoundTrip(t *testing.T) {
	kp := KeyPairFromString("roundtrip")
	addr := kp.Public.Address()
	if !strings.HasPrefix(addr, "G") {
		t.Fatalf("address %q does not start with G", addr)
	}
	back, err := PublicKeyFromAddress(addr)
	if err != nil {
		t.Fatalf("PublicKeyFromAddress: %v", err)
	}
	if !back.Equal(kp.Public) {
		t.Fatal("address round trip changed key")
	}
}

func TestSeedEncoding(t *testing.T) {
	kp := KeyPairFromString("seed-test")
	seed := kp.Secret.Seed()
	if !strings.HasPrefix(seed, "S") {
		t.Fatalf("seed %q does not start with S", seed)
	}
}

func TestAddressRejectsCorruption(t *testing.T) {
	kp := KeyPairFromString("corrupt")
	addr := kp.Public.Address()
	// Flip one character.
	c := addr[10]
	var repl byte = 'A'
	if c == 'A' {
		repl = 'B'
	}
	bad := addr[:10] + string(repl) + addr[11:]
	if _, err := PublicKeyFromAddress(bad); err == nil {
		t.Fatal("corrupted address decoded without error")
	}
}

func TestAddressRejectsWrongVersion(t *testing.T) {
	kp := KeyPairFromString("version")
	seed := kp.Secret.Seed() // starts with S
	if _, err := PublicKeyFromAddress(seed); err == nil {
		t.Fatal("seed strkey accepted as account address")
	}
}

func TestPublicKeyFromBytesLength(t *testing.T) {
	if _, err := PublicKeyFromBytes(make([]byte, 31)); err == nil {
		t.Fatal("31-byte key accepted")
	}
	if _, err := PublicKeyFromBytes(make([]byte, 32)); err != nil {
		t.Fatalf("32-byte key rejected: %v", err)
	}
}

func TestHashBytes(t *testing.T) {
	a := HashBytes([]byte("x"))
	b := HashBytes([]byte("x"))
	c := HashBytes([]byte("y"))
	if a != b {
		t.Fatal("hash not deterministic")
	}
	if a == c {
		t.Fatal("distinct inputs hashed equal")
	}
}

func TestHashConcatInjective(t *testing.T) {
	a := HashConcat([]byte("ab"), []byte("c"))
	b := HashConcat([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("HashConcat not injective across boundaries")
	}
}

func TestHashLessTotalOrder(t *testing.T) {
	a := HashBytes([]byte("a"))
	b := HashBytes([]byte("b"))
	if a == b {
		t.Fatal("test setup: hashes equal")
	}
	if a.Less(b) == b.Less(a) {
		t.Fatal("Less not antisymmetric")
	}
	if a.Less(a) {
		t.Fatal("Less not irreflexive")
	}
}

func TestHashHexAndString(t *testing.T) {
	h := HashBytes([]byte("z"))
	if len(h.Hex()) != 64 {
		t.Fatalf("hex length %d, want 64", len(h.Hex()))
	}
	if len(h.String()) != 8 {
		t.Fatalf("short form length %d, want 8", len(h.String()))
	}
	var zero Hash
	if !zero.Zero() || h.Zero() {
		t.Fatal("Zero() misbehaves")
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC16-XModem of "123456789" is 0x31C3.
	if got := crc16([]byte("123456789")); got != 0x31c3 {
		t.Fatalf("crc16 = %#x, want 0x31c3", got)
	}
}

func TestStrkeyPropertyRoundTrip(t *testing.T) {
	f := func(seed [32]byte) bool {
		kp := KeyPairFromSeed(seed)
		back, err := PublicKeyFromAddress(kp.Public.Address())
		return err == nil && back.Equal(kp.Public)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSignaturePropertyAnyMessage(t *testing.T) {
	kp := KeyPairFromString("prop")
	f := func(msg []byte) bool {
		sig := kp.Secret.Sign(msg)
		return kp.Public.Verify(msg, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
