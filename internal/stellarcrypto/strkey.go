package stellarcrypto

import (
	"encoding/base32"
	"fmt"
)

// Strkey is Stellar's human-readable key encoding: a version byte, the
// payload, and a CRC16-XModem checksum, all base32-encoded. Account IDs
// start with "G", seeds with "S".

type strkeyVersion byte

const (
	versionAccountID strkeyVersion = 6 << 3  // 'G'
	versionSeed      strkeyVersion = 18 << 3 // 'S'
)

var b32 = base32.StdEncoding.WithPadding(base32.NoPadding)

// crc16Table holds the CRC16-XModem (polynomial 0x1021) remainder of each
// byte value shifted into the high byte, so crc16 takes one lookup per byte
// instead of eight conditional shifts.
var crc16Table = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for range 8 {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// crc16 computes the CRC16-XModem checksum used by strkey.
func crc16(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}

func encodeStrkey(version strkeyVersion, payload []byte) string {
	raw := make([]byte, 0, 1+len(payload)+2)
	raw = append(raw, byte(version))
	raw = append(raw, payload...)
	crc := crc16(raw)
	raw = append(raw, byte(crc&0xff), byte(crc>>8))
	return b32.EncodeToString(raw)
}

func decodeStrkey(version strkeyVersion, s string) ([]byte, error) {
	raw, err := b32.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("stellarcrypto: strkey base32: %w", err)
	}
	if len(raw) < 3 {
		return nil, fmt.Errorf("stellarcrypto: strkey too short")
	}
	// One key, one string: the base32 decoder skips newlines and ignores the
	// unused low bits of a last character, so a string carrying either is
	// another spelling of some key and is refused.
	if len(s) != b32.EncodedLen(len(raw)) || (len(raw)%5 != 0 && b32.EncodeToString(raw) != s) {
		return nil, fmt.Errorf("stellarcrypto: strkey not in canonical form")
	}
	body, cksum := raw[:len(raw)-2], raw[len(raw)-2:]
	want := crc16(body)
	got := uint16(cksum[0]) | uint16(cksum[1])<<8
	if want != got {
		return nil, fmt.Errorf("stellarcrypto: strkey checksum mismatch")
	}
	if strkeyVersion(body[0]) != version {
		return nil, fmt.Errorf("stellarcrypto: strkey version byte %#x, want %#x", body[0], byte(version))
	}
	return body[1:], nil
}
