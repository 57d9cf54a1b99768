package msr

import (
	"math"
	"testing"
)

// MSR_RAPL_POWER_UNIT decode: the three unit fields are independent
// negative powers of two. The table covers the architectural default this
// repo models plus corner encodings of each field.
func TestDecodeRAPLPowerUnit(t *testing.T) {
	cases := []struct {
		name                   string
		val                    uint64
		powerW, energyJ, timeS float64
	}{
		// 0x000A0E03: power 2^-3 W, energy 2^-14 J, time 2^-10 s — the
		// value Intel documents for Sandy Bridge onward and the reset value
		// this package exposes.
		{"architectural default", DefaultRAPLPowerUnit, 1.0 / 8, 1.0 / 16384, 1.0 / 1024},
		{"all zero exponents", 0x0, 1, 1, 1},
		{"energy 2^-16 (Haswell server ESU)", 0x00001000, 1, 1.0 / 65536, 1},
		{"max field values", 0x000F1F0F, 1.0 / 32768, 1.0 / (1 << 31), 1.0 / 32768},
		// High bits outside the defined fields must be ignored.
		{"reserved bits set", 0xFFF0_0000 | DefaultRAPLPowerUnit, 1.0 / 8, 1.0 / 16384, 1.0 / 1024},
	}
	for _, tc := range cases {
		p, e, s := DecodeRAPLPowerUnit(tc.val)
		if p != tc.powerW || e != tc.energyJ || s != tc.timeS {
			t.Errorf("%s: DecodeRAPLPowerUnit(%#x) = (%g, %g, %g), want (%g, %g, %g)",
				tc.name, tc.val, p, e, s, tc.powerW, tc.energyJ, tc.timeS)
		}
	}
	if DefaultEnergyUnitJ != 1.0/16384 {
		t.Errorf("DefaultEnergyUnitJ = %g, want 2^-14", DefaultEnergyUnitJ)
	}
}

// Energy-status encode/decode: joules quantize to the energy unit and the
// counter is 32 bits wide, wrapping silently like the hardware register.
func TestEncodeEnergyStatus(t *testing.T) {
	u := DefaultEnergyUnitJ
	cases := []struct {
		name   string
		joules float64
		want   uint64
	}{
		{"zero", 0, 0},
		{"negative clamps to zero", -1, 0},
		{"one unit", u, 1},
		{"sub-unit truncates", u * 0.99, 0},
		{"one joule", 1.0, 16384},
		{"exact counter max", float64(0xFFFFFFFF) * u, 0xFFFFFFFF},
		{"wrap at 2^32 units", float64(uint64(1)<<32) * u, 0},
		{"wrap plus five", (float64(uint64(1)<<32) + 5) * u, 5},
	}
	for _, tc := range cases {
		if got := EncodeEnergyStatus(tc.joules, u); got != tc.want {
			t.Errorf("%s: EncodeEnergyStatus(%g) = %d, want %d", tc.name, tc.joules, got, tc.want)
		}
	}
	// Decode inverts encode on whole units.
	for _, units := range []uint64{0, 1, 12345, 0xFFFFFFFF} {
		j := DecodeEnergyStatus(units, u)
		if math.Abs(j-float64(units)*u) > 1e-12 {
			t.Errorf("DecodeEnergyStatus(%d) = %g, want %g", units, j, float64(units)*u)
		}
	}
}

// Delta semantics across the 32-bit rollover: uint32 subtraction gives the
// modular distance, so a reading taken just before wrap and one just after
// still yield the physically-consumed joules.
func TestEnergyCounterDeltaWraparound(t *testing.T) {
	u := DefaultEnergyUnitJ
	cases := []struct {
		name          string
		before, after uint32
		wantUnits     uint32
	}{
		{"no wrap", 100, 250, 150},
		{"equal", 7, 7, 0},
		{"wrap by one", 0xFFFFFFFF, 0, 1},
		{"wrap mid-delta", 0xFFFFFF00, 0x00000100, 0x200},
		{"full counter distance", 1, 0, 0xFFFFFFFF},
	}
	for _, tc := range cases {
		want := float64(tc.wantUnits) * u
		if got := EnergyCounterDeltaJ(tc.before, tc.after, u); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: EnergyCounterDeltaJ(%#x, %#x) = %g J, want %g J",
				tc.name, tc.before, tc.after, got, want)
		}
	}
}

// The energy-status MSRs are standard descriptors on every file: readable,
// write-protected, and backed by the unit register's reset value.
func TestRAPLDescriptorsPresent(t *testing.T) {
	f := NewFile(0)
	v, err := f.Read(RAPLPowerUnit)
	if err != nil {
		t.Fatal(err)
	}
	if v != DefaultRAPLPowerUnit {
		t.Errorf("MSR_RAPL_POWER_UNIT = %#x, want %#x", v, DefaultRAPLPowerUnit)
	}
	for _, addr := range []Addr{RAPLPowerUnit, PkgEnergyStatus, PP0EnergyStatus} {
		if _, err := f.Read(addr); err != nil {
			t.Errorf("read %#x: %v", uint32(addr), err)
		}
		if err := f.Write(addr, 1); err == nil {
			t.Errorf("write %#x succeeded; energy counters must be read-only", uint32(addr))
		}
	}
}
