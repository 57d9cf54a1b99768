package victim

import (
	"errors"
	"fmt"

	"plugvolt/internal/cpu"
)

// This file implements the AES-128 differential fault analysis (DFA) that
// turns the undervolting faults of EncryptOn into full key recovery — the
// Piret-Quisquater attack in its single-byte round-9 form, which is what
// Plundervolt demonstrated against AES-NI.
//
// Setting: a fault flips one state byte at the *entry* of round 9. The
// round-9 MixColumns spreads the (unknown) post-SubBytes differential d
// over one column with the fixed coefficients of the MC matrix column
// selected by the faulted row:
//
//	diff_out[i] = M[i][r0] * d,   M = the AES MixColumns matrix.
//
// Round 10 (SubBytes, ShiftRows, AddRoundKey — no MixColumns) maps those
// four bytes to four known ciphertext positions. For each affected
// ciphertext byte j with differential pattern m*d, a round-10 key byte
// candidate k must satisfy
//
//	InvSBox(C[j]^k) ^ InvSBox(C*[j]^k) = m*d.
//
// Intersecting candidate sets over a handful of faulty ciphertexts pins
// each key byte; faults landing in all four columns recover the whole
// round-10 key, and inverting the key schedule yields the master key.

// invSbox is the AES inverse S-box.
var invSbox [256]byte

func init() {
	for i, v := range sbox {
		invSbox[v] = byte(i)
	}
}

// gmul multiplies in GF(2^8) with the AES polynomial.
func gmul(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

// mcMatrix is the MixColumns coefficient matrix.
var mcMatrix = [4][4]byte{
	{2, 3, 1, 1},
	{1, 2, 3, 1},
	{1, 1, 2, 3},
	{3, 1, 1, 2},
}

// FaultyPair is one (correct, faulty) ciphertext pair for a fixed
// plaintext, with the fault known to have hit round 9.
type FaultyPair struct {
	C, CStar [16]byte
}

// CollectRound9Pairs drives the on-core encryptor until `want` pairs with a
// round-9 fault have been gathered (other rounds' faults are discarded).
// The core must already sit in a fault-prone operating point. maxTries
// bounds the total encryptions. It also returns the encryptions it ran,
// counting one that crashed the core.
func (a *AES128) CollectRound9Pairs(core *cpu.Core, pt []byte, want, maxTries int) ([]FaultyPair, int, error) {
	if want <= 0 || maxTries <= 0 {
		return nil, 0, errors.New("victim: want and maxTries must be positive")
	}
	ref, err := a.EncryptPure(pt)
	if err != nil {
		return nil, 0, err
	}
	var out []FaultyPair
	tries := 0
	for tries < maxTries && len(out) < want {
		tries++
		ct, round, err := a.EncryptOn(core, pt)
		if err != nil {
			return nil, tries, err
		}
		if round != 9 {
			continue
		}
		var p FaultyPair
		copy(p.C[:], ref)
		copy(p.CStar[:], ct)
		if _, _, ok := diffColumn(p); !ok {
			continue // multi-fault or malformed differential; discard
		}
		out = append(out, p)
	}
	if len(out) < want {
		return out, tries, fmt.Errorf("victim: only %d/%d round-9 pairs after %d encryptions", len(out), want, maxTries)
	}
	return out, tries, nil
}

// diffColumn determines which round-9 MC column a pair's fault spread over,
// returning the column c' and the four affected ciphertext positions
// (indexed by MC row i). ok=false if the differential does not match a
// single-column round-9 fault.
func diffColumn(p FaultyPair) (col int, positions [4]int, ok bool) {
	var diffPos []int
	for j := 0; j < 16; j++ {
		if p.C[j] != p.CStar[j] {
			diffPos = append(diffPos, j)
		}
	}
	// A genuine single-byte round-9 fault spreads to exactly four bytes:
	// the MC coefficients are nonzero and round-10 SubBytes is a bijection,
	// so no diff can collapse to zero.
	if len(diffPos) != 4 {
		return 0, positions, false
	}
	// A round-9 column c' maps through round-10 ShiftRows to ciphertext
	// positions j_i = 4*((c'-i) mod 4) + i. Find the c' consistent with
	// every observed diff position.
	for c := 0; c < 4; c++ {
		var pos [4]int
		match := true
		covered := map[int]bool{}
		for i := 0; i < 4; i++ {
			j := 4*(((c-i)%4+4)%4) + i
			pos[i] = j
			covered[j] = true
		}
		for _, j := range diffPos {
			if !covered[j] {
				match = false
				break
			}
		}
		if match {
			return c, pos, true
		}
	}
	return 0, positions, false
}

// DFARecoverRoundKey recovers the 16-byte round-10 key from round-9 faulty
// pairs. It needs pairs covering all four columns (faults land in random
// byte positions, so ~16+ pairs usually suffice).
func DFARecoverRoundKey(pairs []FaultyPair) ([16]byte, error) {
	var k10 [16]byte
	solved := [16]bool{}

	// Group pairs by affected column.
	byCol := map[int][]FaultyPair{}
	for _, p := range pairs {
		if c, _, ok := diffColumn(p); ok {
			byCol[c] = append(byCol[c], p)
		}
	}
	for c := 0; c < 4; c++ {
		colPairs := byCol[c]
		if len(colPairs) == 0 {
			return k10, fmt.Errorf("victim: no round-9 pairs hit column %d", c)
		}
		keys, err := solveColumn(c, colPairs)
		if err != nil {
			return k10, fmt.Errorf("victim: column %d: %w", c, err)
		}
		_, pos, _ := diffColumn(colPairs[0])
		for i := 0; i < 4; i++ {
			k10[pos[i]] = keys[i]
			solved[pos[i]] = true
		}
	}
	for j, s := range solved {
		if !s {
			return k10, fmt.Errorf("victim: key byte %d unsolved", j)
		}
	}
	return k10, nil
}

// solveColumn intersects per-byte key candidates across the column's pairs.
func solveColumn(col int, pairs []FaultyPair) ([4]byte, error) {
	var result [4]byte
	// cands[i] is the surviving candidate set for the byte at MC row i.
	var cands [4]map[byte]bool
	first := true
	for _, p := range pairs {
		_, pos, ok := diffColumn(p)
		if !ok {
			continue
		}
		// For this pair, a key vector is admissible if for some faulted
		// row r0 and base differential d, every byte i satisfies the
		// differential equation with coefficient M[i][r0]*d.
		pairCands := [4]map[byte]bool{}
		for i := range pairCands {
			pairCands[i] = map[byte]bool{}
		}
		for r0 := 0; r0 < 4; r0++ {
			for d := 1; d < 256; d++ {
				var perByte [4][]byte
				feasible := true
				for i := 0; i < 4; i++ {
					target := gmul(mcMatrix[i][r0], byte(d))
					j := pos[i]
					var cs []byte
					for k := 0; k < 256; k++ {
						x := invSbox[p.C[j]^byte(k)]
						xs := invSbox[p.CStar[j]^byte(k)]
						if x^xs == target {
							cs = append(cs, byte(k))
						}
					}
					if len(cs) == 0 {
						feasible = false
						break
					}
					perByte[i] = cs
				}
				if !feasible {
					continue
				}
				for i := 0; i < 4; i++ {
					for _, k := range perByte[i] {
						pairCands[i][k] = true
					}
				}
			}
		}
		// Intersect with running sets.
		for i := 0; i < 4; i++ {
			if first {
				cands[i] = pairCands[i]
				continue
			}
			for k := range cands[i] {
				if !pairCands[i][k] {
					delete(cands[i], k)
				}
			}
		}
		first = false
	}
	for i := 0; i < 4; i++ {
		if len(cands[i]) != 1 {
			return result, fmt.Errorf("byte %d: %d candidates remain (need more pairs)", i, len(cands[i]))
		}
		for k := range cands[i] {
			result[i] = k
		}
	}
	return result, nil
}

// solveColumnSets is solveColumn without the uniqueness requirement: it
// returns the surviving candidate set per byte (ascending), for callers
// that disambiguate by verification.
func solveColumnSets(pairs []FaultyPair) ([4][]byte, error) {
	var sets [4][]byte
	var cands [4]map[byte]bool
	first := true
	for _, p := range pairs {
		_, pos, ok := diffColumn(p)
		if !ok {
			continue
		}
		pairCands := [4]map[byte]bool{}
		for i := range pairCands {
			pairCands[i] = map[byte]bool{}
		}
		for r0 := 0; r0 < 4; r0++ {
			for d := 1; d < 256; d++ {
				var perByte [4][]byte
				feasible := true
				for i := 0; i < 4; i++ {
					target := gmul(mcMatrix[i][r0], byte(d))
					j := pos[i]
					var cs []byte
					for k := 0; k < 256; k++ {
						x := invSbox[p.C[j]^byte(k)]
						xs := invSbox[p.CStar[j]^byte(k)]
						if x^xs == target {
							cs = append(cs, byte(k))
						}
					}
					if len(cs) == 0 {
						feasible = false
						break
					}
					perByte[i] = cs
				}
				if !feasible {
					continue
				}
				for i := 0; i < 4; i++ {
					for _, k := range perByte[i] {
						pairCands[i][k] = true
					}
				}
			}
		}
		for i := 0; i < 4; i++ {
			if first {
				cands[i] = pairCands[i]
				continue
			}
			for k := range cands[i] {
				if !pairCands[i][k] {
					delete(cands[i], k)
				}
			}
		}
		first = false
	}
	for i := 0; i < 4; i++ {
		if len(cands[i]) == 0 {
			return sets, fmt.Errorf("byte %d: no candidates survive (inconsistent pairs)", i)
		}
		for k := 0; k < 256; k++ {
			if cands[i][byte(k)] {
				sets[i] = append(sets[i], byte(k))
			}
		}
	}
	return sets, nil
}

// DFARecoverMasterKey runs the full attack: per-column candidate solving,
// enumeration of any residual ambiguity (the differential equation admits
// a k ^ DeltaC twin that a finite pair set occasionally fails to kill),
// and verification of each enumerated master key against the known
// (plaintext, correct ciphertext) — exactly how the published attacks
// close the gap. maxCombos bounds the enumeration (65536 is generous; the
// residual product is usually 1-4).
func DFARecoverMasterKey(pairs []FaultyPair, pt []byte, maxCombos int) ([16]byte, error) {
	var master [16]byte
	if len(pairs) == 0 {
		return master, errors.New("victim: no pairs")
	}
	if maxCombos <= 0 {
		maxCombos = 65536
	}
	byCol := map[int][]FaultyPair{}
	for _, p := range pairs {
		if c, _, ok := diffColumn(p); ok {
			byCol[c] = append(byCol[c], p)
		}
	}
	// Candidate sets per ciphertext byte position.
	var perPos [16][]byte
	for c := 0; c < 4; c++ {
		colPairs := byCol[c]
		if len(colPairs) == 0 {
			return master, fmt.Errorf("victim: no round-9 pairs hit column %d", c)
		}
		sets, err := solveColumnSets(colPairs)
		if err != nil {
			return master, fmt.Errorf("victim: column %d: %w", c, err)
		}
		_, pos, _ := diffColumn(colPairs[0])
		for i := 0; i < 4; i++ {
			perPos[pos[i]] = sets[i]
		}
	}
	combos := 1
	for _, s := range perPos {
		if len(s) == 0 {
			return master, errors.New("victim: missing candidates for a key byte")
		}
		combos *= len(s)
		if combos > maxCombos {
			return master, fmt.Errorf("victim: %d+ residual combinations exceed budget (collect more pairs)", combos)
		}
	}
	// Enumerate the cartesian product, verifying each candidate.
	ref := pairs[0].C
	idx := make([]int, 16)
	for {
		var k10 [16]byte
		for j := 0; j < 16; j++ {
			k10[j] = perPos[j][idx[j]]
		}
		cand := InvertKeySchedule(k10)
		a, err := NewAES128(cand[:], 0)
		if err != nil {
			return master, err
		}
		ct, err := a.EncryptPure(pt)
		if err != nil {
			return master, err
		}
		match := true
		for j := range ct {
			if ct[j] != ref[j] {
				match = false
				break
			}
		}
		if match {
			return cand, nil
		}
		// Advance the mixed-radix counter.
		j := 0
		for ; j < 16; j++ {
			idx[j]++
			if idx[j] < len(perPos[j]) {
				break
			}
			idx[j] = 0
		}
		if j == 16 {
			return master, errors.New("victim: no enumerated key verified — pairs inconsistent")
		}
	}
}

// InvertKeySchedule walks the AES-128 key schedule backwards from the
// round-10 key to the master key.
func InvertKeySchedule(k10 [16]byte) [16]byte {
	var w [44][4]byte
	for i := 0; i < 4; i++ {
		copy(w[40+i][:], k10[4*i:4*i+4])
	}
	for i := 43; i >= 4; i-- {
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
			w[i-4][j] = w[i][j] ^ t[j]
		}
	}
	var key [16]byte
	for i := 0; i < 4; i++ {
		copy(key[4*i:4*i+4], w[i][:])
	}
	return key
}
