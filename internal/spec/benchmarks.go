// Package spec provides the SPEC CPU2017 rate-suite stand-in used to
// regenerate Table 2 (polling-countermeasure overhead).
//
// Real SPEC2017 is proprietary, so each of the 23 benchmarks in the paper's
// table is represented by an instruction-mix profile and a per-unit
// instruction count, consumed by the virtual-time rate harness, which
// measures how much throughput the polling kthread steals.
//
// Reference rates are normalized to the paper's published "without polling"
// columns so regenerated rows are directly comparable to Table 2; only the
// *slowdown* columns are measured quantities here.
package spec

import "plugvolt/internal/cpu"

// Suite distinguishes SPECrate2017 Floating Point from Integer.
type Suite string

// Suite values.
const (
	FPRate  Suite = "fprate"
	IntRate Suite = "intrate"
)

// Benchmark is one SPEC2017-rate workload stand-in.
type Benchmark struct {
	// Name is the SPEC identifier, e.g. "503.bwaves_r".
	Name  string
	Suite Suite
	// Mix is the instruction-class mix of the hot loops (fractions sum
	// to 1); feeds the virtual-time execution model.
	Mix map[cpu.Class]float64
	// InstrPerUnit is the instruction count of one work unit.
	InstrPerUnit int
	// RefBaseRate / RefPeakRate are the paper's measured "without polling"
	// rates, used as normalization so regenerated rows are recognizable.
	RefBaseRate, RefPeakRate float64
}

// WeightedCPI returns the mix-weighted throughput CPI of the benchmark on
// the simulated core model. It sums in mixClasses order: ranging over the
// map would add the terms in Go's random order, and the sum's last bits,
// and with them Table 2's virtual clock, would vary from run to run.
func (b *Benchmark) WeightedCPI() float64 {
	cpi := 0.0
	for _, class := range mixClasses {
		cpi += b.Mix[class] * throughputCPI(class)
	}
	return cpi
}

// throughputCPI mirrors the cpu package's class throughputs for the
// analytic model (kept here to avoid exporting cpu internals).
func throughputCPI(c cpu.Class) float64 {
	switch c {
	case cpu.ClassIMul, cpu.ClassAES:
		return 1.0
	case cpu.ClassFMA, cpu.ClassLoad:
		return 0.5
	default:
		return 0.25
	}
}

// mixClasses lists the classes of a mix in mix's argument order.
var mixClasses = [...]cpu.Class{cpu.ClassFMA, cpu.ClassLoad, cpu.ClassALU, cpu.ClassIMul}

// mix builds an instruction mix; the four weights are FMA, load, ALU, imul.
func mix(fma, load, alu, imul float64) map[cpu.Class]float64 {
	return map[cpu.Class]float64{
		cpu.ClassFMA:  fma,
		cpu.ClassLoad: load,
		cpu.ClassALU:  alu,
		cpu.ClassIMul: imul,
	}
}

// All returns the 23 Table-2 benchmarks in paper order.
func All() []*Benchmark {
	return []*Benchmark{
		// ---- SPECrate2017 Floating Point ----
		{Name: "503.bwaves_r", Suite: FPRate, Mix: mix(0.55, 0.30, 0.13, 0.02), InstrPerUnit: 4000, RefBaseRate: 628.59, RefPeakRate: 604.21},
		{Name: "507.cactuBSSN_r", Suite: FPRate, Mix: mix(0.50, 0.32, 0.15, 0.03), InstrPerUnit: 5200, RefBaseRate: 222.95, RefPeakRate: 202.87},
		{Name: "508.namd_r", Suite: FPRate, Mix: mix(0.60, 0.25, 0.13, 0.02), InstrPerUnit: 3600, RefBaseRate: 175.96, RefPeakRate: 179.55},
		{Name: "510.parest_r", Suite: FPRate, Mix: mix(0.45, 0.38, 0.15, 0.02), InstrPerUnit: 4400, RefBaseRate: 387.96, RefPeakRate: 324.46},
		{Name: "511.povray_r", Suite: FPRate, Mix: mix(0.48, 0.27, 0.22, 0.03), InstrPerUnit: 3000, RefBaseRate: 328.67, RefPeakRate: 267.29},
		{Name: "519.lbm_r", Suite: FPRate, Mix: mix(0.58, 0.32, 0.09, 0.01), InstrPerUnit: 5000, RefBaseRate: 224.08, RefPeakRate: 176.56},
		{Name: "521.wrf_r", Suite: FPRate, Mix: mix(0.52, 0.30, 0.16, 0.02), InstrPerUnit: 4800, RefBaseRate: 404.21, RefPeakRate: 428.21},
		{Name: "526.blender_r", Suite: FPRate, Mix: mix(0.44, 0.28, 0.25, 0.03), InstrPerUnit: 3400, RefBaseRate: 256.54, RefPeakRate: 239.52},
		{Name: "527.cam4_r", Suite: FPRate, Mix: mix(0.47, 0.31, 0.20, 0.02), InstrPerUnit: 4600, RefBaseRate: 315.77, RefPeakRate: 324.12},
		{Name: "538.imagick_r", Suite: FPRate, Mix: mix(0.50, 0.33, 0.15, 0.02), InstrPerUnit: 3800, RefBaseRate: 401.88, RefPeakRate: 318.06},
		{Name: "544.nab_r", Suite: FPRate, Mix: mix(0.56, 0.27, 0.15, 0.02), InstrPerUnit: 3500, RefBaseRate: 315.25, RefPeakRate: 282.02},
		{Name: "549.fotonik3d_r", Suite: FPRate, Mix: mix(0.57, 0.33, 0.09, 0.01), InstrPerUnit: 5400, RefBaseRate: 418.76, RefPeakRate: 415.46},
		{Name: "554.roms_r", Suite: FPRate, Mix: mix(0.54, 0.31, 0.13, 0.02), InstrPerUnit: 5000, RefBaseRate: 322.51, RefPeakRate: 279.39},
		// ---- SPECrate2017 Integer ----
		{Name: "500.perlbench_r", Suite: IntRate, Mix: mix(0.02, 0.40, 0.52, 0.06), InstrPerUnit: 2600, RefBaseRate: 295.87511, RefPeakRate: 253.71},
		{Name: "502.gcc_r", Suite: IntRate, Mix: mix(0.01, 0.43, 0.52, 0.04), InstrPerUnit: 3100, RefBaseRate: 221.4159, RefPeakRate: 218.91},
		{Name: "505.mcf_r", Suite: IntRate, Mix: mix(0.01, 0.52, 0.44, 0.03), InstrPerUnit: 3300, RefBaseRate: 339.97, RefPeakRate: 297.68},
		{Name: "520.omnetpp_r", Suite: IntRate, Mix: mix(0.02, 0.46, 0.48, 0.04), InstrPerUnit: 2900, RefBaseRate: 509.805, RefPeakRate: 479.08},
		{Name: "523.xalancbmk_r", Suite: IntRate, Mix: mix(0.01, 0.45, 0.50, 0.04), InstrPerUnit: 2700, RefBaseRate: 287.7046, RefPeakRate: 283.57},
		{Name: "525.x264_r", Suite: IntRate, Mix: mix(0.06, 0.40, 0.46, 0.08), InstrPerUnit: 2400, RefBaseRate: 318.11903, RefPeakRate: 290.76},
		{Name: "531.deepsjeng_r", Suite: IntRate, Mix: mix(0.01, 0.37, 0.55, 0.07), InstrPerUnit: 2200, RefBaseRate: 306.148284, RefPeakRate: 284.09},
		{Name: "541.leela_r", Suite: IntRate, Mix: mix(0.02, 0.39, 0.53, 0.06), InstrPerUnit: 2500, RefBaseRate: 417.2528, RefPeakRate: 383.03},
		{Name: "548.exchange2_r", Suite: IntRate, Mix: mix(0.00, 0.34, 0.61, 0.05), InstrPerUnit: 2000, RefBaseRate: 345.38, RefPeakRate: 248.6},
		{Name: "557.xz_r", Suite: IntRate, Mix: mix(0.01, 0.44, 0.49, 0.06), InstrPerUnit: 2800, RefBaseRate: 387.71, RefPeakRate: 373.41},
	}
}
