package msr

// RAPL (Running Average Power Limit) energy reporting, as software actually
// consumes it: MSR_RAPL_POWER_UNIT (0x606) publishes the scaling exponents,
// and the energy-status registers (PKG 0x611, PP0 0x639) are free-running
// 32-bit counters of energy units that wrap silently. turbostat, powercap
// and every throttling side-channel paper read them modulo 2^32 and
// difference consecutive samples. EncodeEnergyStatus produces exactly those
// counters from the simulator's modeled joule totals.

// DefaultRAPLPowerUnit is the reset value every core publishes: 0x000A0E03
// — the stock client-part encoding (power 1/8 W, energy 2^-14 J ≈ 61 µJ,
// time 2^-10 s ≈ 0.98 ms). Each field is an exponent n encoding a unit of
// 1/2^n: power in bits 3:0 (W), energy in bits 12:8 (J), time in bits
// 19:16 (s), per the SDM's MSR_RAPL_POWER_UNIT layout.
const DefaultRAPLPowerUnit uint64 = 0x000A0E03

// DefaultEnergyUnitJ is the energy LSB implied by DefaultRAPLPowerUnit.
const DefaultEnergyUnitJ = 1.0 / (1 << 14)

// EncodeEnergyStatus converts a cumulative joule total into the 32-bit
// wrapping counter an energy-status MSR returns. Bits 63:32 read as zero,
// as on hardware.
func EncodeEnergyStatus(joules, unitJ float64) uint64 {
	if joules <= 0 || unitJ <= 0 {
		return 0
	}
	// Counters wrap modulo 2^32: convert to total units first (the modeled
	// totals stay far below 2^63 units, so the float→int conversion is
	// exact enough at the unit granularity), then truncate.
	return uint64(joules/unitJ) & 0xFFFFFFFF
}
