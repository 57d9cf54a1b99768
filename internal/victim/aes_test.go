package victim

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"
	"testing"

	"plugvolt/internal/cpu"
)

// refEncryptOn is EncryptOn computed directly, with no memo: every round
// computes its checksum and transform live. The differential tests hold
// AES128 to it.
func refEncryptOn(roundKeys *[11][16]byte, rng *mrand.Rand, core roundCore, pt []byte) ([]byte, int, error) {
	var s [16]byte
	copy(s[:], pt)
	faultedRound := -1
	addRoundKey(&s, &roundKeys[0])
	for r := 1; r <= 10; r++ {
		sum := uint64(s[0]) | uint64(s[5])<<8 | uint64(s[10])<<16 | uint64(s[15])<<24 | uint64(r)<<32
		_, faulted, err := core.Exec(cpu.ClassAES, sum)
		if err != nil {
			return nil, faultedRound, err
		}
		if faulted {
			if faultedRound < 0 {
				faultedRound = r
			}
			s[rng.Intn(16)] ^= byte(1 + rng.Intn(255))
		}
		subBytes(&s)
		shiftRows(&s)
		if r != 10 {
			mixColumns(&s)
		}
		addRoundKey(&s, &roundKeys[r])
	}
	return s[:], faultedRound, nil
}

// scriptExec is a roundCore on a script: it logs every call's class and
// operand, faults the calls whose indices are in faults, and fails every
// call from index crashAt on with cpu.ErrCrashed (never when crashAt < 0).
type scriptExec struct {
	faults  map[int]bool
	crashAt int
	log     []string
}

func (c *scriptExec) Exec(class cpu.Class, exact uint64) (uint64, bool, error) {
	i := len(c.log)
	c.log = append(c.log, fmt.Sprintf("%s %#x", class, exact))
	if c.crashAt >= 0 && i >= c.crashAt {
		return 0, false, cpu.ErrCrashed
	}
	return exact, c.faults[i], nil
}

// encryptObs is what one encryption shows its caller.
type encryptObs struct {
	ct    []byte
	round int
	err   error
}

func (o encryptObs) String() string {
	return fmt.Sprintf("ct %x faulted round %d err %v", o.ct, o.round, o.err)
}

func (o encryptObs) same(p encryptObs) bool {
	return bytes.Equal(o.ct, p.ct) && o.round == p.round && o.err == p.err
}

func TestEncryptReplayMatchesReference(t *testing.T) {
	key := []byte("replay AES key!!")
	pt, pt2 := []byte("sixteen byte msg"), []byte("another block!!!")
	same := [][]byte{pt, pt, pt}
	for _, tc := range []struct {
		name    string
		pts     [][]byte
		faults  []int // Exec calls that fault; one block is ten calls
		crashAt int
		want    []int // each block's faulted round (-1 clean, 0 crashed)
	}{
		{"no fault", same, nil, -1, []int{-1, -1, -1}},
		{"round 1", same, []int{0}, -1, []int{1, -1, -1}},
		{"round 9", same, []int{10 + 8}, -1, []int{-1, 9, -1}},
		{"round 10", same, []int{20 + 9}, -1, []int{-1, -1, 10}},
		{"two rounds", same, []int{2, 6}, -1, []int{3, -1, -1}},
		{"every round", same, []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, -1, []int{-1, 1, -1}},
		{"consecutive blocks", same, []int{9, 10}, -1, []int{10, 1, -1}},
		{"crash before a fault", same, []int{14}, 4, []int{0, 0, 0}},
		{"crash after a fault", same, []int{3}, 7, []int{0, 0, 0}},
		{"crash in the next block", same, []int{3}, 12, []int{4, 0, 0}},
		{"changed plaintext", [][]byte{pt, pt2, pt}, []int{10 + 4}, -1, []int{-1, 5, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAES128(key, 7)
			if err != nil {
				t.Fatal(err)
			}
			refRng := mrand.New(mrand.NewSource(7))
			script := map[int]bool{}
			for _, i := range tc.faults {
				script[i] = true
			}
			core, refCore := &scriptExec{faults: script, crashAt: tc.crashAt}, &scriptExec{faults: script, crashAt: tc.crashAt}
			for i, pt := range tc.pts {
				var got, want encryptObs
				got.ct, got.round, got.err = a.encryptOn(core, pt)
				want.ct, want.round, want.err = refEncryptOn(&a.roundKeys, refRng, refCore, pt)
				if !got.same(want) {
					t.Fatalf("block %d:\n  replay    %v\n  reference %v", i, got, want)
				}
				if wantRound := tc.want[i]; (wantRound == 0) != errors.Is(got.err, cpu.ErrCrashed) || wantRound != 0 && got.round != wantRound {
					t.Fatalf("block %d: %v, want faulted round %d (0: crashed)", i, got, wantRound)
				}
				clear(got.ct) // the caller owns the ciphertext
			}
			if !slices.Equal(core.log, refCore.log) {
				t.Fatalf("Exec logs differ:\n  replay    %v\n  reference %v", core.log, refCore.log)
			}
			if got, want := a.rng.Int63(), refRng.Int63(); got != want {
				t.Fatalf("next rng draw %d, reference %d", got, want)
			}
		})
	}
}

// The replay on an undervolted cpu.Core: twin platforms sit in the same
// AES fault window, one encrypts through AES128 and the other through
// refEncryptOn, and ciphertexts, faulted rounds, the cores' retired and
// faulted counts and the next simulator and victim draws must agree.
func TestEncryptReplayMatchesReferenceOnCore(t *testing.T) {
	p, refP := newPlatform(t, 9), newPlatform(t, 9)
	for _, pl := range []*cpu.Platform{p, refP} {
		undervoltIntoAESWindow(t, pl, 0)
	}
	a, err := NewAES128([]byte("on-core AES key!"), 3)
	if err != nil {
		t.Fatal(err)
	}
	refRng := mrand.New(mrand.NewSource(3))
	c, rc := p.Core(0), refP.Core(0)
	faulted := 0
	pt := make([]byte, 16)
	for i := 0; i < 20_000; i++ {
		pt[0] = byte(i / 5000) // four plaintexts, 5000 blocks each
		var got, want encryptObs
		got.ct, got.round, got.err = a.EncryptOn(c, pt)
		want.ct, want.round, want.err = refEncryptOn(&a.roundKeys, refRng, rc, pt)
		if !got.same(want) {
			t.Fatalf("block %d:\n  replay    %v\n  reference %v", i, got, want)
		}
		if c.Retired != rc.Retired || c.Faulted != rc.Faulted {
			t.Fatalf("block %d: core retired %d faulted %d, reference %d and %d", i, c.Retired, c.Faulted, rc.Retired, rc.Faulted)
		}
		if got.round >= 0 {
			faulted++
		}
	}
	if got, want := p.Sim.Rand().Int63(), refP.Sim.Rand().Int63(); got != want {
		t.Fatalf("next Sim.Rand() draw %d, reference %d", got, want)
	}
	if got, want := a.rng.Int63(), refRng.Int63(); got != want {
		t.Fatalf("next victim rng draw %d, reference %d", got, want)
	}
	if faulted < 5 {
		t.Fatalf("%d blocks faulted in the AES window, want at least 5", faulted)
	}
}
