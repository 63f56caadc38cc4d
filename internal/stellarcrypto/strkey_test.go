package stellarcrypto

import (
	"math/rand"
	"testing"
)

// crc16Bitwise is the CRC16-XModem definition, one conditional shift per
// bit: the reference the table-driven crc16 must equal.
func crc16Bitwise(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRC16MatchesBitwise(t *testing.T) {
	if got := crc16([]byte("123456789")); got != 0x31c3 {
		t.Fatalf("crc16(123456789) = %#04x, want the XModem check value 0x31c3", got)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(80))
		rng.Read(data)
		if got, want := crc16(data), crc16Bitwise(data); got != want {
			t.Fatalf("crc16(%x) = %#04x, bitwise reference %#04x", data, got, want)
		}
	}
}

func TestStrkeyRoundTrip(t *testing.T) {
	kp := KeyPairFromString("strkey-round-trip")
	addr := kp.Public.Address()
	pk, err := PublicKeyFromAddress(addr)
	if err != nil || !pk.Equal(kp.Public) {
		t.Fatalf("decoding %s: %v", addr, err)
	}
	// One flipped character fails the checksum; a seed is not an address.
	bad := []byte(addr)
	bad[10] ^= 'A' ^ 'B'
	if _, err := PublicKeyFromAddress(string(bad)); err == nil {
		t.Fatal("a corrupted address decoded")
	}
	if _, err := PublicKeyFromAddress(kp.Secret.Seed()); err == nil {
		t.Fatal("a seed decoded as an address")
	}
	// Other spellings of the same bytes, which base32 alone would accept: a
	// newline inside, and a set unused bit in the last character (a payload
	// whose length leaves some).
	if _, err := PublicKeyFromAddress(addr[:20] + "\n" + addr[20:]); err == nil {
		t.Fatal("an address with a newline inside decoded")
	}
	short := []byte(encodeStrkey(versionAccountID, []byte("short")))
	short[len(short)-1]++
	if p, err := decodeStrkey(versionAccountID, string(short)); err == nil {
		t.Fatalf("%q, with an unused bit set, decoded to %q", short, p)
	}
}

// FuzzStrkeyDecode: decoding never panics, a string that decodes is the one
// encoding of what it decodes to, and the table CRC equals the bitwise one.
func FuzzStrkeyDecode(f *testing.F) {
	kp := KeyPairFromString("strkey-fuzz")
	f.Add(kp.Public.Address())
	f.Add(kp.Secret.Seed())
	f.Add(encodeStrkey(versionAccountID, []byte("short")))
	f.Add("")
	f.Add("GA")
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := crc16([]byte(s)), crc16Bitwise([]byte(s)); got != want {
			t.Fatalf("crc16(%q) = %#04x, bitwise reference %#04x", s, got, want)
		}
		for _, v := range []strkeyVersion{versionAccountID, versionSeed} {
			payload, err := decodeStrkey(v, s)
			if err != nil {
				continue
			}
			if again := encodeStrkey(v, payload); again != s {
				t.Fatalf("%q decodes to %x, which encodes as %q", s, payload, again)
			}
		}
		PublicKeyFromAddress(s)
	})
}

func BenchmarkStrkeyDecode(b *testing.B) {
	addr := KeyPairFromString("strkey-bench").Public.Address()
	for i := 0; i < b.N; i++ {
		if _, err := PublicKeyFromAddress(addr); err != nil {
			b.Fatal(err)
		}
	}
}
