// Package msr models the Intel model-specific-register interface that the
// paper's countermeasure polls and rewrites.
//
// It provides a per-core register file with rdmsr/wrmsr semantics
// (#GP-style errors on invalid access), register descriptors with dynamic
// read functions and write hooks (the attachment points for the paper's
// Section 5 microcode write-guard and hardware clamp MSR), and byte-exact
// codecs for the two registers at the heart of every DVFS fault attack:
//
//   - MSR 0x150, the overclocking mailbox, whose voltage-offset layout is
//     the paper's Table 1 and whose encoding procedure is Algorithm 1;
//   - MSR 0x198 (IA32_PERF_STATUS), which reports the current frequency
//     ratio (bits 15:8) and core voltage (bits 47:32, units of 1/8192 V).
package msr

import (
	"fmt"
	"math"

	"plugvolt/internal/flight"
	"plugvolt/internal/telemetry/span"
)

// Addr is an MSR address as used by rdmsr/wrmsr.
type Addr uint32

// Register addresses used by the reproduction. VoltageOffsetLimit is the
// hypothetical clamp register the paper proposes in Section 5.2
// (MSR_VOLTAGE_OFFSET_LIMIT); the rest are architectural Intel MSRs.
const (
	OCMailbox          Addr = 0x150 // overclocking mailbox (Table 1)
	VoltageOffsetLimit Addr = 0x154 // hypothetical clamp (paper Sec. 5.2)
	IA32PerfStatus     Addr = 0x198 // current ratio + core voltage
	IA32PerfCtl        Addr = 0x199 // requested P-state ratio
	TurboRatioLimit    Addr = 0x1AD
	RAPLPowerUnit      Addr = 0x606 // MSR_RAPL_POWER_UNIT (scaling exponents)
	PkgEnergyStatus    Addr = 0x611 // MSR_PKG_ENERGY_STATUS (32-bit wrapping)
	DRAMPowerLimit     Addr = 0x618 // MSR_DRAM_POWER_LIMIT (clamp analogy)
	DRAMPowerInfo      Addr = 0x61C // MSR_DRAM_POWER_INFO (holds DRAM_MIN_PWR)
	PP0EnergyStatus    Addr = 0x639 // MSR_PP0_ENERGY_STATUS (core power plane)
)

// GPFault is the error returned for accesses a real CPU would answer with a
// general-protection fault: unknown MSR, write to read-only MSR, malformed
// mailbox command, or write to a locked register.
type GPFault struct {
	Addr Addr
	Op   string // "rdmsr" or "wrmsr"
	Why  string
}

func (e *GPFault) Error() string {
	return fmt.Sprintf("#GP(%s 0x%x): %s", e.Op, uint32(e.Addr), e.Why)
}

// Plane selects the voltage domain addressed by an OC-mailbox command,
// per Table 1 bits 42:40.
type Plane uint8

// Voltage planes defined by the overclocking mailbox.
const (
	PlaneCore     Plane = 0
	PlaneGPU      Plane = 1
	PlaneCache    Plane = 2
	PlaneUncore   Plane = 3
	PlaneAnalogIO Plane = 4
)

// NumPlanes is the count of defined voltage planes.
const NumPlanes = 5

func (p Plane) String() string {
	switch p {
	case PlaneCore:
		return "core"
	case PlaneGPU:
		return "gpu"
	case PlaneCache:
		return "cache"
	case PlaneUncore:
		return "uncore"
	case PlaneAnalogIO:
		return "analog-io"
	default:
		return fmt.Sprintf("plane(%d)", uint8(p))
	}
}

// Valid reports whether the plane index is one of the five defined domains.
func (p Plane) Valid() bool { return p < NumPlanes }

// Overclocking-mailbox field layout (Table 1 of the paper).
const (
	ocOffsetShift = 21                    // bits 31:21 hold the 11-bit offset
	ocOffsetBits  = 11                    //
	ocOffsetMask  = uint64(0x7FF)         // 11 ones
	ocWriteEnable = uint64(1) << 32       // bit 32: enable read/write
	ocPlaneShift  = 40                    // bits 42:40
	ocPlaneMask   = uint64(0x7)           //
	ocBusyBit     = uint64(1) << 63       // bit 63 must be set for writes
	ocCommandMask = uint64(0xFF) << 32    // bits 39:32 (0x11 = write command)
	ocReservedLo  = uint64(0x1FFFFF)      // bits 20:0 reserved
	ocReservedHi  = uint64(0xFFFFF) << 43 // bits 62:43 reserved
)

// EncodeVoltageOffset builds the 64-bit OC-mailbox value for a voltage
// offset command, reproducing the paper's Algorithm 1 exactly:
//
//	val  = offset*1024/1000                       // mV -> 1/1024 V units
//	val  = 0xFFE00000 & ((val & 0xFFF) << 21)     // pack 11-bit field
//	val |= 0x8000001100000000                     // busy bit + write command
//	val |= plane << 40
//
// offsetMV is the signed voltage offset in millivolts (negative =
// undervolt). The 11-bit two's-complement field bottoms out at -1024 mV.
func EncodeVoltageOffset(offsetMV int, plane Plane) uint64 {
	units := offsetMV * 1024 / 1000
	val := uint64(0xFFE00000) & ((uint64(int64(units)) & 0xFFF) << ocOffsetShift)
	val |= 0x8000001100000000
	val |= (uint64(plane) & ocPlaneMask) << ocPlaneShift
	return val
}

// EncodeVoltageOffsetUnits builds a mailbox write command from a raw
// two's-complement offset in 1/1024-V units, skipping Algorithm 1's
// truncating millivolt conversion. Hardware-side responders use this to
// avoid compounding quantization error on re-encode.
func EncodeVoltageOffsetUnits(units int, plane Plane) uint64 {
	val := uint64(0xFFE00000) & ((uint64(int64(units)) & 0xFFF) << ocOffsetShift)
	val |= 0x8000001100000000
	val |= (uint64(plane) & ocPlaneMask) << ocPlaneShift
	return val
}

// UnitsToMV converts 1/1024-V offset units to millivolts (exact, float).
func UnitsToMV(units int) float64 { return float64(units) * 1000.0 / 1024.0 }

// DecodedMailbox is the parsed form of an OC-mailbox value.
type DecodedMailbox struct {
	// OffsetMV is the voltage offset converted back to millivolts
	// (rounded to nearest; the 1/1024-V quantization loses <1 mV).
	OffsetMV int
	// OffsetUnits is the raw sign-extended 11-bit field in 1/1024 V units.
	OffsetUnits int
	Plane       Plane
	// Write reports whether bits 39:32 carry the write command (0x11).
	Write bool
	// Busy reports bit 63, which must be set for the command to execute.
	Busy bool
}

// DecodeVoltageOffset parses an OC-mailbox register value.
func DecodeVoltageOffset(val uint64) DecodedMailbox {
	raw := (val >> ocOffsetShift) & ocOffsetMask
	units := int(raw)
	if raw&(1<<(ocOffsetBits-1)) != 0 { // sign-extend 11 bits
		units = int(raw) - (1 << ocOffsetBits)
	}
	// Invert Algorithm 1's mV -> units conversion with rounding.
	mv := int(math.Round(float64(units) * 1000.0 / 1024.0))
	return DecodedMailbox{
		OffsetMV:    mv,
		OffsetUnits: units,
		Plane:       Plane((val >> ocPlaneShift) & ocPlaneMask),
		Write:       (val&ocCommandMask)>>32 == 0x11,
		Busy:        val&ocBusyBit != 0,
	}
}

// IA32_PERF_STATUS layout: bits 15:8 current ratio (x100 MHz bus clock),
// bits 47:32 current core voltage in units of 2^-13 V.
const (
	perfRatioShift   = 8
	perfRatioMask    = uint64(0xFF)
	perfVoltageShift = 32
	perfVoltageMask  = uint64(0xFFFF)
	// VoltageUnit is the PERF_STATUS voltage LSB in volts (1/8192 V).
	VoltageUnit = 1.0 / 8192.0
)

// EncodePerfStatus packs a frequency ratio and core voltage into the
// IA32_PERF_STATUS layout.
func EncodePerfStatus(ratio uint8, voltageV float64) uint64 {
	if voltageV < 0 {
		voltageV = 0
	}
	units := uint64(math.Round(voltageV/VoltageUnit)) & perfVoltageMask
	return uint64(ratio)<<perfRatioShift | units<<perfVoltageShift
}

// DecodePerfStatus extracts the ratio and voltage from IA32_PERF_STATUS.
func DecodePerfStatus(val uint64) (ratio uint8, voltageV float64) {
	ratio = uint8((val >> perfRatioShift) & perfRatioMask)
	voltageV = float64((val>>perfVoltageShift)&perfVoltageMask) * VoltageUnit
	return ratio, voltageV
}

// RatioToKHz converts a P-state ratio to kHz given the bus clock (100 MHz
// on all three evaluated parts).
func RatioToKHz(ratio uint8, busMHz int) int { return int(ratio) * busMHz * 1000 }

// KHzToRatio converts kHz to the nearest ratio.
func KHzToRatio(khz, busMHz int) uint8 {
	if busMHz <= 0 {
		return 0
	}
	r := (khz + busMHz*500) / (busMHz * 1000)
	if r < 0 {
		r = 0
	}
	if r > 255 {
		r = 255
	}
	return uint8(r)
}

// ReadFn dynamically produces a register value at read time (e.g.
// IA32_PERF_STATUS reflecting the live PLL and voltage regulator).
type ReadFn func(f *File) (uint64, error)

// WriteHook intercepts a write. It receives the old and proposed values and
// returns the value actually stored. Returning an error rejects the write
// (#GP); transforming the value implements clamping (paper Sec. 5.2);
// returning old implements write-ignore (paper Sec. 5.1 microcode guard).
type WriteHook func(f *File, old, proposed uint64) (uint64, error)

// Descriptor declares one MSR's behaviour.
type Descriptor struct {
	Addr     Addr
	Name     string
	ReadOnly bool
	// Locked rejects writes until the file is reset (models lock bits such
	// as the OC lock in FEATURE_CONTROL-style registers).
	Locked bool
	// Reset is the architectural reset value.
	Reset uint64
	// ReadFn, when set, overrides the stored value on reads.
	ReadFn ReadFn
	// Apply is the hardware commit stage: it runs after every software
	// write hook has passed, receives the final value, and performs the
	// physical side effect (e.g. commanding the voltage regulator). Write
	// hooks therefore can reject or transform a write before hardware
	// sees it — the property the microcode/clamp defenses rely on.
	Apply WriteHook
	// hooks run in installation order on every write, before Apply.
	hooks  []hookEntry
	nextID int

	// HookStats accounts write-hook activity on this register, the raw
	// material for the telemetry exposition's per-core hook-hit series.
	HookStats HookStats
}

// HookStats counts write-hook activity on one register.
type HookStats struct {
	// Hits counts individual hook invocations (one write through N hooks
	// counts N).
	Hits uint64
	// Rejects counts writes a hook refused (#GP to the writer).
	Rejects uint64
	// Rewrites counts hook invocations that transformed the proposed value
	// (clamp or write-ignore behaviour).
	Rewrites uint64
}

type hookEntry struct {
	id int
	fn WriteHook
}

// stdDescriptors is the architectural register set every core declares at
// reset. NewFile copies it into the file's inline storage.
var stdDescriptors = [...]Descriptor{
	{Addr: OCMailbox, Name: "OC_MAILBOX"},
	{Addr: VoltageOffsetLimit, Name: "MSR_VOLTAGE_OFFSET_LIMIT"},
	{Addr: IA32PerfStatus, Name: "IA32_PERF_STATUS", ReadOnly: true},
	{Addr: IA32PerfCtl, Name: "IA32_PERF_CTL"},
	{Addr: TurboRatioLimit, Name: "MSR_TURBO_RATIO_LIMIT"},
	{Addr: RAPLPowerUnit, Name: "MSR_RAPL_POWER_UNIT", ReadOnly: true, Reset: DefaultRAPLPowerUnit},
	{Addr: PkgEnergyStatus, Name: "MSR_PKG_ENERGY_STATUS", ReadOnly: true},
	{Addr: DRAMPowerLimit, Name: "MSR_DRAM_POWER_LIMIT"},
	{Addr: DRAMPowerInfo, Name: "MSR_DRAM_POWER_INFO", ReadOnly: true},
	{Addr: PP0EnergyStatus, Name: "MSR_PP0_ENERGY_STATUS", ReadOnly: true},
}

// fileSlots is the inline register capacity: the standard set plus room for
// the handful of extra MSRs defenses and tests declare. Declaring more
// spills to the heap transparently via append.
const fileSlots = 16

// File is one logical CPU's MSR space.
//
// The register table is a set of parallel arrays scanned linearly by
// address: a core exposes only a handful of MSRs, so the scan beats map
// hashing on every rdmsr/wrmsr, and the inline backing arrays make NewFile
// a single allocation and Reset none — a crash reboot resets every core's
// file in place. File holds slices into its own arrays and must not be
// copied by value.
type File struct {
	core  int
	addrs []Addr
	vals  []uint64
	descs []*Descriptor

	addrsBuf [fileSlots]Addr
	valsBuf  [fileSlots]uint64
	descsBuf [fileSlots]*Descriptor
	stdBuf   [len(stdDescriptors)]Descriptor

	// spans, when set, receives one causal span per OC-mailbox voltage
	// write command (the security-relevant wrmsr every DVFS attack and the
	// guard's rewrite go through), tagged with the decoded offset and the
	// accepted/blocked/rewritten outcome. Nil (the default, including on the
	// characterizer's private row platforms) keeps Write allocation-free.
	spans *span.Tracer

	// flight, when set, receives the same mailbox voltage write commands as
	// compact flight records (offset, plane, outcome, causal span ID) — the
	// pre-trigger evidence stream behind incident bundles. The flight path
	// stays allocation-free even with spans detached.
	flight *flight.Recorder

	// track is the span track of this file's mailbox writes, formatted on
	// the first one a tracer observes; Reset keeps it. It sits last so the
	// fields rdmsr and wrmsr touch keep their offsets.
	track string
}

// NewFile builds an MSR file for the given core with the standard registers
// declared (values at reset defaults).
func NewFile(core int) *File {
	f := &File{core: core}
	f.Reset()
	return f
}

// Reset returns the file to NewFile's state in place: only the standard
// registers declared, each at its reset value with no ReadFn, Apply or
// write hooks, zero hook stats, and no span tracer or flight recorder
// attached. Registers declared beyond the standard set are dropped. It
// allocates nothing.
func (f *File) Reset() {
	f.addrs = f.addrsBuf[:0]
	f.vals = f.valsBuf[:0]
	f.descs = f.descsBuf[:0]
	f.stdBuf = stdDescriptors
	for i := range f.stdBuf {
		f.Declare(&f.stdBuf[i])
	}
	f.spans, f.flight = nil, nil
}

// index returns the register table slot for addr, or -1.
func (f *File) index(addr Addr) int {
	for i, a := range f.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// Declare registers (or replaces) a descriptor and installs its reset value.
func (f *File) Declare(d *Descriptor) {
	if i := f.index(d.Addr); i >= 0 {
		f.descs[i] = d
		f.vals[i] = d.Reset
		return
	}
	f.addrs = append(f.addrs, d.Addr)
	f.vals = append(f.vals, d.Reset)
	f.descs = append(f.descs, d)
}

// Descriptor returns the descriptor for addr, or nil.
func (f *File) Descriptor(addr Addr) *Descriptor {
	if i := f.index(addr); i >= 0 {
		return f.descs[i]
	}
	return nil
}

// AddWriteHook appends a write hook to addr and returns its removal id.
// Hooks run in installation order; each sees the value produced by the
// previous one. It panics on an undeclared MSR — hook installation is
// programmer-controlled, not data.
func (f *File) AddWriteHook(addr Addr, h WriteHook) int {
	d := f.Descriptor(addr)
	if d == nil {
		panic(fmt.Sprintf("msr: AddWriteHook on undeclared MSR 0x%x", uint32(addr)))
	}
	d.nextID++
	d.hooks = append(d.hooks, hookEntry{id: d.nextID, fn: h})
	return d.nextID
}

// RemoveWriteHook removes the single hook identified by id (as returned by
// AddWriteHook), leaving other hooks — such as the platform's hardware
// wiring — in place. Unknown ids are a no-op.
func (f *File) RemoveWriteHook(addr Addr, id int) {
	d := f.Descriptor(addr)
	if d == nil {
		return
	}
	for i, e := range d.hooks {
		if e.id == id {
			d.hooks = append(d.hooks[:i], d.hooks[i+1:]...)
			return
		}
	}
}

// WriteHookStats reports write-hook activity on addr (zero for undeclared
// registers or registers without hooks).
func (f *File) WriteHookStats(addr Addr) HookStats {
	if d := f.Descriptor(addr); d != nil {
		return d.HookStats
	}
	return HookStats{}
}

// Read implements rdmsr.
func (f *File) Read(addr Addr) (uint64, error) {
	i := f.index(addr)
	if i < 0 {
		return 0, &GPFault{Addr: addr, Op: "rdmsr", Why: "unimplemented MSR"}
	}
	d := f.descs[i]
	if d.ReadFn != nil {
		return d.ReadFn(f)
	}
	return f.vals[i], nil
}

// SetSpanTracer attaches (or, with nil, detaches) the causal span tracer
// that observes OC-mailbox voltage write commands on this file. The platform
// re-applies it when a reboot resets the register file.
func (f *File) SetSpanTracer(tr *span.Tracer) { f.spans = tr }

// SetFlightRecorder attaches (or, with nil, detaches) the flight recorder
// that observes OC-mailbox voltage write commands on this file. As with the
// span tracer, the platform re-applies it across reboots.
func (f *File) SetFlightRecorder(rec *flight.Recorder) { f.flight = rec }

// observeMailboxWrite records one mailbox voltage-write observation: a span
// (when a tracer is attached) and a flight record (when a recorder is
// attached) carrying the span's ID so the bundle links back into the trace.
// outcome is "accepted", "rewritten" (a hook transformed the command — clamp
// or write-ignore) or "blocked" (a hook or the commit stage rejected it, #GP
// to the writer); flag is the matching flight outcome code.
func (f *File) observeMailboxWrite(dec DecodedMailbox, outcome string, flag uint8) {
	var id span.ID
	if f.spans != nil {
		if f.track == "" {
			f.track = fmt.Sprintf("msr/core%d", f.core)
		}
		id = f.spans.Instant(f.track, "mailbox_write", map[string]any{
			"core":      f.core,
			"offset_mv": dec.OffsetMV,
			"plane":     dec.Plane.String(),
			"outcome":   outcome,
		})
	}
	f.flight.MailboxWrite(f.core, dec.OffsetMV, uint8(dec.Plane), flag, uint64(id))
}

// Write implements wrmsr, running the register's write hooks.
func (f *File) Write(addr Addr, val uint64) error {
	i := f.index(addr)
	if i < 0 {
		return &GPFault{Addr: addr, Op: "wrmsr", Why: "unimplemented MSR"}
	}
	d := f.descs[i]
	if d.ReadOnly {
		return &GPFault{Addr: addr, Op: "wrmsr", Why: "read-only MSR"}
	}
	if d.Locked {
		return &GPFault{Addr: addr, Op: "wrmsr", Why: "MSR locked"}
	}
	// Observe only OC-mailbox voltage write commands: the wrmsr at the heart
	// of every DVFS fault attack and of the guard's corrective rewrite.
	observed := (f.spans != nil || f.flight != nil) && addr == OCMailbox
	var dec DecodedMailbox
	if observed {
		dec = DecodeVoltageOffset(val)
		if !dec.Busy || !dec.Write {
			observed = false // read command or inert write: not a voltage change
		}
	}
	old := f.vals[i]
	v := val
	for _, e := range d.hooks {
		d.HookStats.Hits++
		nv, err := e.fn(f, old, v)
		if err != nil {
			d.HookStats.Rejects++
			if observed {
				f.observeMailboxWrite(dec, "blocked", flight.OutcomeBlocked)
			}
			return err
		}
		if nv != v {
			d.HookStats.Rewrites++
		}
		v = nv
	}
	hookFinal := v
	if d.Apply != nil {
		nv, err := d.Apply(f, old, v)
		if err != nil {
			if observed {
				f.observeMailboxWrite(dec, "blocked", flight.OutcomeBlocked)
			}
			return err
		}
		v = nv
	}
	if observed {
		outcome, flag := "accepted", flight.OutcomeAccepted
		if hookFinal != val {
			outcome, flag = "rewritten", flight.OutcomeRewritten
		}
		f.observeMailboxWrite(dec, outcome, flag)
	}
	// Re-resolve the slot: a hook or Apply may have Declared registers and
	// relocated the table.
	if j := f.index(addr); j >= 0 {
		f.vals[j] = v
	}
	return nil
}

// Poke stores a value bypassing hooks and read-only protection. It is the
// hardware-side backdoor used by the platform (e.g. the PLL updating
// PERF_STATUS); software paths must use Write.
func (f *File) Poke(addr Addr, val uint64) {
	i := f.index(addr)
	if i < 0 {
		panic(fmt.Sprintf("msr: Poke on undeclared MSR 0x%x", uint32(addr)))
	}
	f.vals[i] = val
}
