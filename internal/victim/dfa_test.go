package victim

import (
	"bytes"
	"testing"

	"plugvolt/internal/cpu"
	"plugvolt/internal/msr"
)

func TestGmulAgainstKnownProducts(t *testing.T) {
	cases := []struct{ a, b, want byte }{
		{0x57, 0x83, 0xc1}, // FIPS-197 worked example
		{0x57, 0x13, 0xfe},
		{0x02, 0x80, 0x1b},
		{0x01, 0xab, 0xab},
		{0x00, 0x55, 0x00},
	}
	for _, c := range cases {
		if got := gmul(c.a, c.b); got != c.want {
			t.Errorf("gmul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
	// Commutativity spot check.
	for a := 1; a < 256; a += 37 {
		for b := 1; b < 256; b += 41 {
			if gmul(byte(a), byte(b)) != gmul(byte(b), byte(a)) {
				t.Fatalf("gmul not commutative at %d, %d", a, b)
			}
		}
	}
}

func TestInvSboxIsInverse(t *testing.T) {
	for i := 0; i < 256; i++ {
		if invSbox[sbox[i]] != byte(i) {
			t.Fatalf("invSbox broken at %d", i)
		}
	}
}

func TestInvertKeySchedule(t *testing.T) {
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c} // FIPS-197 example key
	a, err := NewAES128(key, 1)
	if err != nil {
		t.Fatal(err)
	}
	var k10 [16]byte
	copy(k10[:], a.roundKeys[10][:])
	master := InvertKeySchedule(k10)
	if !bytes.Equal(master[:], key) {
		t.Fatalf("key schedule inversion: got %x want %x", master, key)
	}
}

func TestCollectRound9PairsValidation(t *testing.T) {
	p := newPlatform(t, 41)
	a, _ := NewAES128(make([]byte, 16), 1)
	if _, n, err := a.CollectRound9Pairs(p.Core(0), make([]byte, 16), 0, 10); err == nil || n != 0 {
		t.Fatalf("zero want accepted (%d encryptions)", n)
	}
	if _, n, err := a.CollectRound9Pairs(p.Core(0), make([]byte, 16), 1, 0); err == nil || n != 0 {
		t.Fatalf("zero tries accepted (%d encryptions)", n)
	}
	// At stock voltage no faults occur: collection must time out cleanly,
	// having spent its whole budget.
	if _, n, err := a.CollectRound9Pairs(p.Core(0), make([]byte, 16), 1, 50); err == nil || n != 50 {
		t.Fatalf("collected a pair at stock voltage, or ran %d encryptions of 50", n)
	}
}

// TestAESDFAEndToEnd is the full Plundervolt AES story: undervolt, harvest
// round-9 faulty ciphertexts, run the Piret-Quisquater analysis, recover
// the round-10 key, invert the schedule, and obtain the master key.
func TestAESDFAEndToEnd(t *testing.T) {
	p := newPlatform(t, 43)
	c := p.Core(0)
	// Window where the AES round instruction faults at a workable rate.
	found := false
	for off := -1; off >= -450; off-- {
		if err := p.WriteOffsetViaMSR(0, off, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleAll()
		// The AES path sits only 4% deeper than the control path, so the
		// usable fault rate is capped near ~2e-4 before crash risk explodes.
		if pr := c.FaultProbability(cpu.ClassAES); pr > 1.5e-4 && c.CrashProbability() < 1e-8 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no AES fault window")
	}

	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	a, err := NewAES128(key, 7)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("DFA target block")
	pairs, n, err := a.CollectRound9Pairs(c, pt, 48, 1_500_000)
	if err != nil {
		t.Fatalf("pair collection: %v", err)
	}
	if n < len(pairs) || n >= 1_500_000 {
		t.Fatalf("%d pairs reported after %d encryptions of a 1.5M budget", len(pairs), n)
	}
	master, err := DFARecoverMasterKey(pairs, pt, 0)
	if err != nil {
		t.Fatalf("master-key recovery: %v", err)
	}
	if !bytes.Equal(master[:], key) {
		t.Fatalf("recovered master key %x, want %x", master, key)
	}
	// The strict round-key path also works once enough pairs accumulate;
	// exercise it but tolerate residual ambiguity (that is what the
	// verified enumeration exists for).
	if k10, err := DFARecoverRoundKey(pairs); err == nil {
		if !bytes.Equal(k10[:], a.roundKeys[10][:]) {
			t.Fatalf("strict recovery returned wrong key %x", k10)
		}
	}
}

func TestDFANeedsAllColumns(t *testing.T) {
	// With pairs from only some columns the recovery must fail loudly.
	p := newPlatform(t, 44)
	c := p.Core(0)
	for off := -1; off >= -450; off-- {
		if err := p.WriteOffsetViaMSR(0, off, msr.PlaneCore); err != nil {
			t.Fatal(err)
		}
		p.SettleAll()
		if pr := c.FaultProbability(cpu.ClassAES); pr > 1.5e-4 && c.CrashProbability() < 1e-8 {
			break
		}
	}
	a, _ := NewAES128(make([]byte, 16), 9)
	pairs, _, err := a.CollectRound9Pairs(c, make([]byte, 16), 12, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Keep only one column's pairs.
	col0, _, _ := diffColumn(pairs[0])
	var oneCol []FaultyPair
	for _, pr := range pairs {
		if cc, _, _ := diffColumn(pr); cc == col0 {
			oneCol = append(oneCol, pr)
		}
	}
	if _, err := DFARecoverRoundKey(oneCol); err == nil {
		t.Fatal("recovery succeeded without full column coverage")
	}
}
