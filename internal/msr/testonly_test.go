package msr

// Readers only tests use: the platform publishes the RAPL unit and energy
// counters, and the tests decode them back; nothing else reads a stored
// value past its ReadFn.

// MSR_RAPL_POWER_UNIT field layout (SDM Vol. 4).
const (
	raplPowerUnitMask  = 0xF
	raplEnergyShift    = 8
	raplEnergyUnitMask = 0x1F
	raplTimeShift      = 16
	raplTimeUnitMask   = 0xF
)

// Peek reads the stored value bypassing ReadFn. Returns 0 for undeclared.
func (f *File) Peek(addr Addr) uint64 {
	if i := f.index(addr); i >= 0 {
		return f.vals[i]
	}
	return 0
}

// DecodeRAPLPowerUnit expands the unit register into the three LSB sizes.
func DecodeRAPLPowerUnit(val uint64) (powerW, energyJ, timeS float64) {
	powerW = 1.0 / float64(uint64(1)<<(val&raplPowerUnitMask))
	energyJ = 1.0 / float64(uint64(1)<<((val>>raplEnergyShift)&raplEnergyUnitMask))
	timeS = 1.0 / float64(uint64(1)<<((val>>raplTimeShift)&raplTimeUnitMask))
	return powerW, energyJ, timeS
}

// DecodeEnergyStatus returns the counter's joule reading at face value —
// only meaningful modulo one wrap period (2^32 units ≈ 262 kJ at the
// default unit, ~2.2 h at 33 W).
func DecodeEnergyStatus(val uint64, unitJ float64) float64 {
	return float64(uint32(val)) * unitJ
}

// EnergyCounterDeltaJ differences two energy-status samples with correct
// wraparound semantics: uint32 subtraction is modular, so a sample pair
// straddling one rollover still yields the true consumed energy. Samples
// more than one wrap period apart alias, exactly as on hardware — poll
// faster than the wrap period (SDM's guidance; ~2 h at desktop power).
func EnergyCounterDeltaJ(before, after uint32, unitJ float64) float64 {
	return float64(after-before) * unitJ
}
