package msr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plugvolt/internal/flight"
	"plugvolt/internal/telemetry/span"
)

// TestTable1Layout verifies the exact Table-1 bit layout of MSR 0x150:
// offset in bits 31:21, write-enable within bits 39:32, plane in 42:40,
// busy bit 63, reserved fields zero.
func TestTable1Layout(t *testing.T) {
	v := EncodeVoltageOffset(-100, PlaneCore)
	if v&(1<<63) == 0 {
		t.Error("bit 63 (busy) not set by Algorithm 1")
	}
	if (v>>32)&0xFF != 0x11 {
		t.Errorf("command bits 39:32 = 0x%x, want 0x11 (write)", (v>>32)&0xFF)
	}
	if v&(1<<32) == 0 {
		t.Error("bit 32 (write-enable per Table 1) not set")
	}
	if v&ocReservedLo != 0 {
		t.Errorf("reserved bits 20:0 nonzero: 0x%x", v&ocReservedLo)
	}
	if v&ocReservedHi != 0 {
		t.Errorf("reserved bits 62:43 nonzero: 0x%x", v&ocReservedHi)
	}
	// -100 mV -> -102.4 -> trunc -102 units -> two's complement 11-bit.
	wantUnits := uint64((-102)&0xFFF) & 0x7FF
	if got := (v >> 21) & 0x7FF; got != wantUnits {
		t.Errorf("offset field = 0x%x, want 0x%x", got, wantUnits)
	}
}

func TestAlgorithm1KnownValues(t *testing.T) {
	// Plundervolt's published example: -250 mV, core plane.
	// -250*1024/1000 = -256 units = 0xF00 in 12-bit two's complement.
	v := EncodeVoltageOffset(-250, PlaneCore)
	want := uint64(0x8000001100000000) | (uint64(0xF00&0xFFF)<<21)&0xFFE00000
	if v != want {
		t.Fatalf("encode(-250, core) = 0x%016x, want 0x%016x", v, want)
	}
	d := DecodeVoltageOffset(v)
	if d.OffsetUnits != -256 {
		t.Fatalf("decoded units = %d, want -256", d.OffsetUnits)
	}
	if d.OffsetMV != -250 {
		t.Fatalf("decoded mV = %d, want -250", d.OffsetMV)
	}
}

func TestPlaneField(t *testing.T) {
	for p := Plane(0); p < NumPlanes; p++ {
		v := EncodeVoltageOffset(-50, p)
		d := DecodeVoltageOffset(v)
		if d.Plane != p {
			t.Errorf("plane %v roundtrip -> %v", p, d.Plane)
		}
		if !d.Write || !d.Busy {
			t.Errorf("plane %v: write=%v busy=%v", p, d.Write, d.Busy)
		}
	}
}

func TestPlaneStringAndValid(t *testing.T) {
	names := map[Plane]string{
		PlaneCore: "core", PlaneGPU: "gpu", PlaneCache: "cache",
		PlaneUncore: "uncore", PlaneAnalogIO: "analog-io",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q want %q", p, p.String(), want)
		}
		if !p.Valid() {
			t.Errorf("plane %v reported invalid", p)
		}
	}
	if Plane(6).Valid() {
		t.Error("plane 6 reported valid")
	}
	if Plane(6).String() != "plane(6)" {
		t.Errorf("plane 6 string = %q", Plane(6).String())
	}
}

// Property (DESIGN.md §6): encode∘decode is identity on the offset up to
// the documented 1/1024-V quantization (<1 mV), exact on the plane.
func TestQuickOffsetRoundTrip(t *testing.T) {
	f := func(raw uint16, rawPlane uint8) bool {
		offset := -int(raw % 513) // 0..-512 mV, covers the sweep range
		plane := Plane(rawPlane % NumPlanes)
		d := DecodeVoltageOffset(EncodeVoltageOffset(offset, plane))
		if d.Plane != plane || !d.Write || !d.Busy {
			return false
		}
		return abs(d.OffsetMV-offset) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestZeroOffsetEncoding(t *testing.T) {
	d := DecodeVoltageOffset(EncodeVoltageOffset(0, PlaneCore))
	if d.OffsetMV != 0 || d.OffsetUnits != 0 {
		t.Fatalf("zero offset decoded as %+v", d)
	}
}

func TestPositiveOffsetEncoding(t *testing.T) {
	// Overvolting (positive offsets) must also round-trip; the paper's
	// sweeps are negative-only but the mailbox supports both directions.
	d := DecodeVoltageOffset(EncodeVoltageOffset(100, PlaneCache))
	if d.OffsetMV != 100 || d.Plane != PlaneCache {
		t.Fatalf("+100mV cache decoded as %+v", d)
	}
}

func TestPerfStatusRoundTrip(t *testing.T) {
	val := EncodePerfStatus(32, 1.056)
	ratio, v := DecodePerfStatus(val)
	if ratio != 32 {
		t.Fatalf("ratio = %d, want 32", ratio)
	}
	if math.Abs(v-1.056) > VoltageUnit {
		t.Fatalf("voltage = %v, want ~1.056 (unit %v)", v, VoltageUnit)
	}
}

func TestPerfStatusNegativeVoltageClamps(t *testing.T) {
	_, v := DecodePerfStatus(EncodePerfStatus(8, -0.5))
	if v != 0 {
		t.Fatalf("negative voltage encoded as %v", v)
	}
}

func TestQuickPerfStatusRoundTrip(t *testing.T) {
	f := func(ratio uint8, rawV uint16) bool {
		volt := float64(rawV%12000) / 8192.0 // 0 .. ~1.46 V on the unit grid
		r2, v2 := DecodePerfStatus(EncodePerfStatus(ratio, volt))
		return r2 == ratio && math.Abs(v2-volt) <= VoltageUnit/2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioKHzConversions(t *testing.T) {
	if got := RatioToKHz(32, 100); got != 3_200_000 {
		t.Fatalf("RatioToKHz(32,100) = %d", got)
	}
	if got := KHzToRatio(3_200_000, 100); got != 32 {
		t.Fatalf("KHzToRatio = %d", got)
	}
	if got := KHzToRatio(3_250_000, 100); got != 33 { // rounds to nearest
		t.Fatalf("KHzToRatio rounding = %d", got)
	}
	if got := KHzToRatio(1000, 0); got != 0 {
		t.Fatalf("KHzToRatio with zero bus = %d", got)
	}
	if got := KHzToRatio(100_000_000, 100); got != 255 { // saturates
		t.Fatalf("KHzToRatio saturation = %d", got)
	}
}

func TestFileReadWriteBasics(t *testing.T) {
	f := NewFile(2)
	if err := f.Write(IA32PerfCtl, 0x2000); err != nil {
		t.Fatal(err)
	}
	v, err := f.Read(IA32PerfCtl)
	if err != nil || v != 0x2000 {
		t.Fatalf("read back %x, err %v", v, err)
	}
}

func TestFileUnknownMSRFaults(t *testing.T) {
	f := NewFile(0)
	if _, err := f.Read(0xDEAD); err == nil {
		t.Fatal("rdmsr of unknown MSR did not fault")
	}
	err := f.Write(0xDEAD, 1)
	var gp *GPFault
	if !errors.As(err, &gp) {
		t.Fatalf("wrmsr error type %T, want *GPFault", err)
	}
	if gp.Op != "wrmsr" || gp.Addr != 0xDEAD {
		t.Fatalf("fault fields: %+v", gp)
	}
}

func TestFileReadOnlyAndLocked(t *testing.T) {
	f := NewFile(0)
	if err := f.Write(IA32PerfStatus, 1); err == nil {
		t.Fatal("write to read-only PERF_STATUS succeeded")
	}
	f.Declare(&Descriptor{Addr: 0x3A, Name: "FEATURE_CONTROL", Locked: true})
	if err := f.Write(0x3A, 5); err == nil {
		t.Fatal("write to locked MSR succeeded")
	}
}

func TestReadFnOverridesStorage(t *testing.T) {
	f := NewFile(0)
	f.Declare(&Descriptor{Addr: 0x999, Name: "DYN", ReadFn: func(*File) (uint64, error) {
		return 0xABCD, nil
	}})
	f.Poke(0x999, 1) // stored value must be ignored
	v, err := f.Read(0x999)
	if err != nil || v != 0xABCD {
		t.Fatalf("dynamic read = %x, err %v", v, err)
	}
}

func TestWriteHooksRunInOrderAndTransform(t *testing.T) {
	f := NewFile(0)
	var order []int
	f.AddWriteHook(OCMailbox, func(_ *File, _, v uint64) (uint64, error) {
		order = append(order, 1)
		return v + 1, nil
	})
	f.AddWriteHook(OCMailbox, func(_ *File, _, v uint64) (uint64, error) {
		order = append(order, 2)
		return v * 2, nil
	})
	if err := f.Write(OCMailbox, 10); err != nil {
		t.Fatal(err)
	}
	if got := f.Peek(OCMailbox); got != 22 {
		t.Fatalf("hook composition stored %d, want (10+1)*2=22", got)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("hook order: %v", order)
	}
}

func TestWriteHookRejects(t *testing.T) {
	f := NewFile(0)
	f.AddWriteHook(OCMailbox, func(fl *File, _, v uint64) (uint64, error) {
		return 0, &GPFault{Addr: OCMailbox, Op: "wrmsr", Why: "rejected by guard"}
	})
	applied := 0
	f.Descriptor(OCMailbox).Apply = func(_ *File, _, v uint64) (uint64, error) {
		applied++
		return v, nil
	}
	before := f.Peek(OCMailbox)
	if err := f.Write(OCMailbox, 42); err == nil {
		t.Fatal("rejected write reported success")
	}
	if f.Peek(OCMailbox) != before {
		t.Fatal("rejected write modified register")
	}
	if applied != 0 {
		t.Fatal("rejected write reached the hardware commit stage")
	}
}

func TestWriteIgnoreSemantics(t *testing.T) {
	// The paper's Sec. 5.1 microcode guard silently ignores unsafe writes:
	// the hook returns the old value and wrmsr reports success.
	f := NewFile(0)
	f.Poke(OCMailbox, 7)
	f.AddWriteHook(OCMailbox, func(_ *File, old, v uint64) (uint64, error) {
		return old, nil
	})
	if err := f.Write(OCMailbox, 99); err != nil {
		t.Fatal(err)
	}
	if f.Peek(OCMailbox) != 7 {
		t.Fatal("write-ignore hook did not preserve old value")
	}
}

func TestAddWriteHookUndeclaredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddWriteHook on undeclared MSR did not panic")
		}
	}()
	NewFile(0).AddWriteHook(0xDEAD, func(_ *File, _, v uint64) (uint64, error) { return v, nil })
}

func TestPokeUndeclaredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Poke on undeclared MSR did not panic")
		}
	}()
	NewFile(0).Poke(0xDEAD, 1)
}

func TestGPFaultError(t *testing.T) {
	e := &GPFault{Addr: 0x150, Op: "wrmsr", Why: "test"}
	want := "#GP(wrmsr 0x150): test"
	if e.Error() != want {
		t.Fatalf("Error() = %q want %q", e.Error(), want)
	}
}

func BenchmarkEncodeVoltageOffset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = EncodeVoltageOffset(-(i % 300), PlaneCore)
	}
}

func BenchmarkFileWriteWithHook(b *testing.B) {
	f := NewFile(0)
	f.AddWriteHook(OCMailbox, func(_ *File, _, v uint64) (uint64, error) { return v, nil })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Write(OCMailbox, uint64(i))
	}
}

// TestNewFileSingleAllocation pins the register-file construction cost: the
// inline descriptor and value buffers mean the only allocation is the File
// itself. The sharded sweep builds cores*rows files, so regressions here
// show up directly in the characterization benchmarks.
func TestNewFileSingleAllocation(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		f := NewFile(0)
		if _, err := f.Read(IA32PerfStatus); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("NewFile allocated %.1f objects, want <= 1", allocs)
	}
}

// TestResetMatchesNewFile dirties a file every way software and the
// platform can — wiring, write hooks with stats, extra registers past the
// inline capacity, stored values, counters, a span tracer and a flight
// recorder — resets it, and requires NewFile's state: the standard
// registers alone, in order, at their reset values, with no wiring, hooks
// or stats, zero counters, nothing observing its writes, the table back in
// its inline buffers, and hook IDs counting from one again. Reset itself
// allocates nothing.
func TestResetMatchesNewFile(t *testing.T) {
	f := NewFile(2)
	f.Descriptor(IA32PerfStatus).ReadFn = func(*File) (uint64, error) { return 7, nil }
	f.Descriptor(OCMailbox).Apply = func(_ *File, _, v uint64) (uint64, error) { return v, nil }
	f.AddWriteHook(OCMailbox, func(_ *File, _, v uint64) (uint64, error) { return v + 1, nil })
	for i := 0; i < fileSlots; i++ {
		f.Declare(&Descriptor{Addr: Addr(0x1000 + i), Name: "extra", Reset: uint64(i)})
	}
	tr := span.NewTracer(nil, 1, 0)
	tr.Keep()
	rec := flight.NewRecorder(nil, 64, 0, "test", 1)
	f.SetSpanTracer(tr)
	f.SetFlightRecorder(rec)
	if err := f.Write(OCMailbox, EncodeVoltageOffset(-50, PlaneCore)); err != nil {
		t.Fatal(err)
	}
	f.Poke(TurboRatioLimit, 0x24)
	if _, err := f.Read(IA32PerfStatus); err != nil {
		t.Fatal(err)
	}
	f.Reset()
	want := NewFile(2)
	if len(f.addrs) != len(want.addrs) || &f.addrs[0] != &f.addrsBuf[0] || &f.vals[0] != &f.valsBuf[0] || &f.descs[0] != &f.descsBuf[0] {
		t.Fatalf("reset table: %d registers, inline %v; want %d inline", len(f.addrs), &f.addrs[0] == &f.addrsBuf[0], len(want.addrs))
	}
	for i, a := range want.addrs {
		d, w := f.descs[i], want.descs[i]
		if f.addrs[i] != a || f.vals[i] != want.vals[i] || d != &f.stdBuf[i] ||
			d.Addr != w.Addr || d.Name != w.Name || d.ReadOnly != w.ReadOnly || d.Locked != w.Locked || d.Reset != w.Reset ||
			d.ReadFn != nil || d.Apply != nil || len(d.hooks) != 0 || d.nextID != 0 || d.HookStats != (HookStats{}) {
			t.Errorf("register %d (0x%x) differs from a new file's after reset", i, uint32(a))
		}
	}
	if f.spans != nil || f.flight != nil {
		t.Errorf("reset left tracer %v, recorder %v", f.spans != nil, f.flight != nil)
	}
	if _, err := f.Read(0x1000); err == nil {
		t.Error("an extra register survived the reset")
	}
	if id := f.AddWriteHook(OCMailbox, func(_ *File, _, v uint64) (uint64, error) { return v, nil }); id != 1 {
		t.Errorf("first hook after reset got id %d, want 1", id)
	}
	spans, records := tr.Len(), rec.Stats().Records
	if err := f.Write(OCMailbox, EncodeVoltageOffset(-60, PlaneCore)); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != spans || rec.Stats().Records != records {
		t.Error("the reset file still feeds the tracer or the recorder")
	}
	if a := testing.AllocsPerRun(100, f.Reset); a != 0 {
		t.Fatalf("Reset allocated %.1f objects, want 0", a)
	}
}
