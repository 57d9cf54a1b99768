package victim

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// oddModulus draws an odd modulus of exactly bits bits.
func oddModulus(r *mrand.Rand, bits int) *big.Int {
	m := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	m.SetBit(m, bits-1, 1)
	return m.SetBit(m, 0, 1)
}

// wantModMul is the big.Int reference x·y mod m.
func wantModMul(x, y, m *big.Int) *big.Int {
	z := new(big.Int).Mul(x, y)
	return z.Mod(z, m)
}

func TestModMulMatchesBigInt(t *testing.T) {
	r := mrand.New(mrand.NewSource(1))
	key, err := GenerateRSAKey(512, 11)
	if err != nil {
		t.Fatal(err)
	}
	moduli := []*big.Int{big.NewInt(1), big.NewInt(3), key.P, key.Q}
	for _, bits := range []int{128, 130, 192, 256, 512, 1024, 2048} {
		moduli = append(moduli, oddModulus(r, bits))
	}
	var k modMul
	for _, m := range moduli {
		operands := []*big.Int{big.NewInt(0), new(big.Int).Sub(m, big.NewInt(1))}
		if m.BitLen() > 1 {
			operands = append(operands, big.NewInt(1))
		}
		for i := 0; i < 3; i++ {
			operands = append(operands, new(big.Int).Rand(r, m))
		}
		for _, x := range operands {
			for _, y := range operands {
				z := new(big.Int)
				if !k.mul(z, x, y, m) {
					t.Fatalf("%d-bit m: kernel refused x=%v y=%v", m.BitLen(), x, y)
				}
				if want := wantModMul(x, y, m); z.Cmp(want) != 0 {
					t.Fatalf("%d-bit m: %v·%v = %v, want %v", m.BitLen(), x, y, z, want)
				}
			}
			// x == y, with z aliasing both: the signer's squaring step.
			want := wantModMul(x, x, m)
			z := new(big.Int).Set(x)
			if !k.mul(z, z, z, m) || z.Cmp(want) != 0 {
				t.Fatalf("%d-bit m: in-place square of %v = %v, want %v", m.BitLen(), x, z, want)
			}
			// z aliasing x only: the signer's multiply step.
			y := operands[len(operands)-1]
			want = wantModMul(x, y, m)
			z = new(big.Int).Set(x)
			if !k.mul(z, z, y, m) || z.Cmp(want) != 0 {
				t.Fatalf("%d-bit m: in-place %v·%v = %v, want %v", m.BitLen(), x, y, z, want)
			}
		}
	}
}

func TestModMulRefusesOutOfDomainOperands(t *testing.T) {
	m := oddModulus(mrand.New(mrand.NewSource(2)), 256)
	one := big.NewInt(1)
	cases := []struct {
		name    string
		x, y, m *big.Int
	}{
		{"x == m", m, one, m},
		{"y > m", one, new(big.Int).Add(m, big.NewInt(5)), m},
		{"x negative", big.NewInt(-1), one, m},
		{"even m", one, one, new(big.Int).Sub(m, one)},
		{"zero m", big.NewInt(0), big.NewInt(0), big.NewInt(0)},
		{"negative m", one, one, new(big.Int).Neg(m)},
	}
	var k modMul
	for _, tc := range cases {
		z := big.NewInt(42)
		if k.mul(z, tc.x, tc.y, tc.m) {
			t.Fatalf("%s: kernel accepted out-of-domain operands", tc.name)
		}
		if z.Int64() != 42 {
			t.Fatalf("%s: refused call wrote z = %v", tc.name, z)
		}
	}
}

// cleanCore is a FaultyCore that never faults.
type cleanCore struct{}

func (cleanCore) IMul(a, b uint64) (uint64, bool, error) { return a * b, false, nil }

func TestCoreMulFallsBackToBigInt(t *testing.T) {
	key, err := GenerateRSAKey(512, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCRTSigner(key, cleanCore{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := key.P
	big1 := new(big.Int).Add(m, big.NewInt(12345))
	neg := new(big.Int).Neg(key.Qinv)
	for _, tc := range []struct {
		name    string
		x, y, m *big.Int
	}{
		{"x > m", big1, key.Qinv, m},
		{"x == y > m", big1, big1, m},
		{"x negative", neg, key.Qinv, m},
		{"even modulus", key.Qinv, key.Qinv, new(big.Int).Lsh(m, 1)},
	} {
		want := wantModMul(tc.x, tc.y, tc.m)
		z := new(big.Int).Set(tc.x)
		if err := s.coreMul(z, z, tc.y, tc.m); err != nil {
			t.Fatal(err)
		}
		if z.Cmp(want) != 0 {
			t.Fatalf("%s: coreMul = %v, want %v", tc.name, z, want)
		}
	}
}

func TestLow64MatchesMask(t *testing.T) {
	mask := new(big.Int).SetUint64(^uint64(0))
	r := mrand.New(mrand.NewSource(3))
	xs := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), new(big.Int).Set(mask),
		new(big.Int).Lsh(big.NewInt(1), 64), new(big.Int).Lsh(big.NewInt(1), 32)}
	for _, bits := range []int{31, 33, 63, 65, 96, 130, 512} {
		x := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		xs = append(xs, x, new(big.Int).Neg(x))
	}
	for _, x := range xs {
		if got, want := low64(x), new(big.Int).And(x, mask).Uint64(); got != want {
			t.Fatalf("low64(%v) = %#x, want %#x", x, got, want)
		}
	}
}

func TestSignAllocsDoNotGrowWithSteps(t *testing.T) {
	p := newPlatform(t, 5)
	allocs := map[int]float64{}
	for _, bits := range []int{512, 1024} {
		k, err := GenerateRSAKey(bits, 11)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewCRTSigner(k, p.Core(0), 99)
		if err != nil {
			t.Fatal(err)
		}
		// A digest below both primes, so each half's base reduction does
		// the same division-free work at both key sizes.
		m := new(big.Int).Mod(k.HashToInt([]byte("allocs")), k.Q)
		if _, _, err := s.Sign(m); err != nil {
			t.Fatal(err)
		}
		allocs[bits] = testing.AllocsPerRun(20, func() {
			if _, _, err := s.Sign(m); err != nil {
				t.Fatal(err)
			}
		})
		if s.Steps < bits {
			t.Fatalf("%d-bit key: only %d steps per signature", bits, s.Steps)
		}
	}
	if allocs[512] != allocs[1024] || allocs[512] > 8 {
		t.Fatalf("warmed Sign allocates %v (512-bit key) and %v (1024-bit key), want the same small constant",
			allocs[512], allocs[1024])
	}
}

// FuzzModMul compares the kernel with big.Int Mul+Mod on arbitrary odd
// moduli up to 2048 bits, raw operands (refused iff out of domain) and
// operands reduced into [0, m).
func FuzzModMul(f *testing.F) {
	f.Add([]byte{3}, []byte{2}, []byte{2})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xff}, []byte{0x01, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 256), []byte{1}, []byte{})
	f.Fuzz(func(t *testing.T, mb, xb, yb []byte) {
		for _, b := range []*[]byte{&mb, &xb, &yb} {
			if len(*b) > 256 {
				*b = (*b)[:256]
			}
		}
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 0, 1)
		x, y := new(big.Int).SetBytes(xb), new(big.Int).SetBytes(yb)
		var k modMul
		z := new(big.Int)
		inDomain := x.Cmp(m) < 0 && y.Cmp(m) < 0
		if ok := k.mul(z, x, y, m); ok != inDomain {
			t.Fatalf("m=%v x=%v y=%v: kernel took %v, operands in domain %v", m, x, y, ok, inDomain)
		} else if ok && z.Cmp(wantModMul(x, y, m)) != 0 {
			t.Fatalf("m=%v: %v·%v = %v, want %v", m, x, y, z, wantModMul(x, y, m))
		}
		x.Mod(x, m)
		y.Mod(y, m)
		want := wantModMul(x, y, m)
		if !k.mul(x, x, y, m) || x.Cmp(want) != 0 {
			t.Fatalf("m=%v: in-place reduced product = %v, want %v", m, x, want)
		}
	})
}
