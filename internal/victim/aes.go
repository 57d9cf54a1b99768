package victim

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"

	"plugvolt/internal/cpu"
)

// AES128 is a software AES-128 encryptor whose round function executes on a
// simulated core: each round issues one ClassAES instruction, and a timing
// violation corrupts one state byte before the round transform — matching
// how Plundervolt faulted AES-NI rounds under undervolting.
type AES128 struct {
	roundKeys [11][16]byte
	rng       *mrand.Rand
	// traj is the fault-free encryption of the block last encrypted,
	// valid once haveTraj is set (see EncryptOn).
	traj     aesTrajectory
	haveTraj bool
}

// aesTrajectory is the fault-free encryption of one plaintext: the state
// entering each round, the checksum that round passes to the core, and the
// ciphertext. Index r-1 holds round r.
type aesTrajectory struct {
	pt, ct [16]byte
	in     [10][16]byte
	sum    [10]uint64
}

// sbox is the AES forward S-box.
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

var rcon = [11]byte{0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36}

// NewAES128 expands the key schedule.
func NewAES128(key []byte, seed int64) (*AES128, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("victim: AES-128 key must be 16 bytes, got %d", len(key))
	}
	a := &AES128{rng: mrand.New(mrand.NewSource(seed))}
	var w [44][4]byte
	for i := 0; i < 4; i++ {
		copy(w[i][:], key[4*i:4*i+4])
	}
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			t = [4]byte{
				sbox[t[1]] ^ rcon[i/4],
				sbox[t[2]],
				sbox[t[3]],
				sbox[t[0]],
			}
		}
		for j := 0; j < 4; j++ {
			w[i][j] = w[i-4][j] ^ t[j]
		}
	}
	for r := 0; r < 11; r++ {
		for c := 0; c < 4; c++ {
			copy(a.roundKeys[r][4*c:4*c+4], w[4*r+c][:])
		}
	}
	return a, nil
}

func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

func subBytes(s *[16]byte) {
	for i, b := range s {
		s[i] = sbox[b]
	}
}

func shiftRows(s *[16]byte) {
	// State is column-major: s[4c+r].
	var t [16]byte
	copy(t[:], s[:])
	for r := 1; r < 4; r++ {
		for c := 0; c < 4; c++ {
			s[4*c+r] = t[4*((c+r)%4)+r]
		}
	}
}

func mixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		s[4*c+1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		s[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		s[4*c+3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
}

func addRoundKey(s *[16]byte, k *[16]byte) {
	for i := range s {
		s[i] ^= k[i]
	}
}

// round applies round r's transform to s: SubBytes, ShiftRows, MixColumns
// (except in the last round) and AddRoundKey.
func (a *AES128) round(s *[16]byte, r int) {
	subBytes(s)
	shiftRows(s)
	if r != 10 {
		mixColumns(s)
	}
	addRoundKey(s, &a.roundKeys[r])
}

// checksum is the operand word round r's instruction passes to the core.
func checksum(s *[16]byte, r int) uint64 {
	return uint64(s[0]) | uint64(s[5])<<8 | uint64(s[10])<<16 | uint64(s[15])<<24 | uint64(r)<<32
}

// EncryptPure computes the reference ciphertext without the fault model.
func (a *AES128) EncryptPure(pt []byte) ([]byte, error) {
	if len(pt) != 16 {
		return nil, errors.New("victim: AES block must be 16 bytes")
	}
	return slices.Clone(a.trajectory(pt).ct[:]), nil
}

// EncryptOn encrypts one block with every round executed on the core.
// A faulted round instruction flips a random state byte entering that
// round, so the corruption diffuses exactly as a hardware round fault
// would. faultedRound is -1 when the ciphertext is exact, else the first
// round index that was hit.
//
// The core's fault draws never read the checksum, so until a round faults
// the encryption follows the plaintext's fault-free trajectory: EncryptOn
// feeds the core the recorded checksums and computes no round. At the
// first faulted round it resumes from that round's recorded state.
func (a *AES128) EncryptOn(core *cpu.Core, pt []byte) (ct []byte, faultedRound int, err error) {
	if core == nil {
		return nil, -1, errors.New("victim: nil core")
	}
	if len(pt) != 16 {
		return nil, -1, errors.New("victim: AES block must be 16 bytes")
	}
	return a.encryptOn(core, pt)
}

// roundCore is the execution surface the rounds run on: the subset of
// *cpu.Core EncryptOn needs.
type roundCore interface {
	Exec(class cpu.Class, exact uint64) (uint64, bool, error)
}

// encryptOn is EncryptOn on any roundCore, for a 16-byte pt.
func (a *AES128) encryptOn(core roundCore, pt []byte) (ct []byte, faultedRound int, err error) {
	t := a.trajectory(pt)
	for r := 1; r <= 10; r++ {
		// One round = one ClassAES instruction on the core.
		_, faulted, err := core.Exec(cpu.ClassAES, t.sum[r-1])
		if err != nil {
			return nil, -1, err
		}
		if faulted {
			s := t.in[r-1]
			return a.resume(core, &s, r)
		}
	}
	return slices.Clone(t.ct[:]), -1, nil
}

// trajectory returns the fault-free encryption of pt, computing it when
// the memo holds another plaintext.
func (a *AES128) trajectory(pt []byte) *aesTrajectory {
	t := &a.traj
	if a.haveTraj && bytes.Equal(t.pt[:], pt) {
		return t
	}
	copy(t.pt[:], pt)
	s := t.pt
	addRoundKey(&s, &a.roundKeys[0])
	for r := 1; r <= 10; r++ {
		t.in[r-1], t.sum[r-1] = s, checksum(&s, r)
		a.round(&s, r)
	}
	t.ct = s
	a.haveTraj = true
	return t
}

// resume finishes an encryption whose round r0 faulted on the core, from
// the state s entering that round; later rounds execute live on the core.
func (a *AES128) resume(core roundCore, s *[16]byte, r0 int) (ct []byte, faultedRound int, err error) {
	faulted := true
	for r := r0; r <= 10; r++ {
		if r > r0 {
			if _, faulted, err = core.Exec(cpu.ClassAES, checksum(s, r)); err != nil {
				return nil, r0, err
			}
		}
		if faulted {
			s[a.rng.Intn(16)] ^= byte(1 + a.rng.Intn(255))
		}
		a.round(s, r)
	}
	return slices.Clone(s[:]), r0, nil
}
