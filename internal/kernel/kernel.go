// Package kernel models the Linux-kernel context the paper's countermeasure
// lives in: loadable modules, kernel threads woken by hrtimers, and the cost
// of the msr(4) read/write path.
//
// Two aspects matter for the reproduction:
//
//   - Table 2 measures the *overhead* of the polling module on SPEC2017.
//     Overhead here is real, not assumed: every kthread tick charges CPU
//     time (wakeup + per-MSR ioctl costs) to the core it runs on, and the
//     workload harness converts stolen time into throughput loss.
//   - Section 4.1's threat model lets the adversary load/unload kernel
//     modules; the module registry exposes the load state so SGX
//     attestation can include it (the paper's proposed report extension).
package kernel

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"plugvolt/internal/msr"
	"plugvolt/internal/sim"
	"plugvolt/internal/telemetry"
)

// Machine is the hardware interface the kernel drives. *cpu.Platform plus a
// thin adapter satisfies it; tests may use fakes.
type Machine interface {
	NumCores() int
	// MSRFile returns core's MSR file for privileged access.
	MSRFile(core int) *msr.File
}

// CostModel prices the kernel's MSR-access and scheduling primitives.
// Defaults approximate the in-kernel rdmsr/wrmsr path a module executes
// (serializing instructions, ~a few hundred cycles each) plus hrtimer
// kthread scheduling. The paper cites the MSR driver's dispatch overhead
// ("the ioctl calls invoked in the kernel module that drives the MSR
// read/write functionality") as one of the two turnaround-time
// contributors; cross-core accesses ride an IPI, which dominates the cost.
type CostModel struct {
	// Rdmsr is the per-register read cost (rdmsr_on_cpu: IPI + rdmsr).
	Rdmsr sim.Duration
	// Wrmsr is the per-register write cost.
	Wrmsr sim.Duration
	// KthreadWake is the scheduling cost of one timer-driven kthread
	// activation (wakeup, context switch, return to sleep).
	KthreadWake sim.Duration
}

// DefaultCosts matches measurements of in-kernel rdmsr/wrmsr plus hrtimer
// wakeup on contemporary parts.
func DefaultCosts() CostModel {
	return CostModel{
		Rdmsr:       50 * sim.Nanosecond,
		Wrmsr:       100 * sim.Nanosecond,
		KthreadWake: 300 * sim.Nanosecond,
	}
}

// Module is a loadable kernel module.
type Module struct {
	Name string
	// Init is run at load; a non-nil error aborts the load.
	Init func(k *Kernel) error
	// Exit is run at unload.
	Exit func(k *Kernel)
}

// CostKind attributes one charged slice of kernel CPU time to the primitive
// that consumed it — the decomposition behind the telemetry exposition's
// overhead attribution (poll wakeups vs. local/remote MSR traffic).
type CostKind int

// Attribution categories. Per core and per thread, the categories sum
// exactly to the stolen-time total Table 2 converts into slowdown.
// CostIntervention is the guard's corrective mailbox rewrite — a wrmsr
// electrically, but the one slice of overhead that exists only because an
// attack happened, so it gets its own ledger row (and energy row).
const (
	CostWake CostKind = iota
	CostRdmsr
	CostWrmsr
	CostIntervention
	numCostKinds
)

// String names the category for metric labels.
func (k CostKind) String() string {
	switch k {
	case CostWake:
		return "wake"
	case CostRdmsr:
		return "rdmsr"
	case CostWrmsr:
		return "wrmsr"
	case CostIntervention:
		return "intervention"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// CostKinds lists every attribution category in ledger order, for callers
// that render complete attribution tables.
func CostKinds() []CostKind {
	return []CostKind{CostWake, CostRdmsr, CostWrmsr, CostIntervention}
}

// Kernel is the simulated kernel instance.
type Kernel struct {
	simr  *sim.Simulator
	hw    Machine
	Costs CostModel

	modules map[string]*Module
	threads []*KThread

	// stolen accumulates CPU time consumed by kernel threads per core;
	// stolenBy splits the same total by cost category
	// (wake/rdmsr/wrmsr/intervention), so attribution always sums to the
	// accounting total.
	stolen   []sim.Duration
	stolenBy [numCostKinds][]sim.Duration

	// priceW, when set, prices charged CPU time in watts so every stolen
	// slice also books energy. The ledgers are kept in integer picojoules
	// (watts × picoseconds) and the same rounded quantum is added to the
	// per-core total and its per-kind row, so energy attribution closes
	// *exactly*, by construction — the same invariant stolenBy keeps for
	// time.
	priceW     func(core int) float64
	energyPJ   []int64
	energyByPJ [numCostKinds][]int64
	// MSRReads/MSRWrites count privileged MSR operations.
	MSRReads  uint64
	MSRWrites uint64

	// tel, when set, receives kthread wake events in the journal and, when
	// it carries a span tracer, tick and MSR spans; metric gauges are
	// published on demand via Collect. Nil and an empty Set cost the same.
	tel *telemetry.Set
}

// New builds a kernel over the machine.
func New(s *sim.Simulator, hw Machine) *Kernel {
	k := &Kernel{
		simr:    s,
		hw:      hw,
		Costs:   DefaultCosts(),
		modules: map[string]*Module{},
		stolen:  make([]sim.Duration, hw.NumCores()),
	}
	for i := range k.stolenBy {
		k.stolenBy[i] = make([]sim.Duration, hw.NumCores())
	}
	k.energyPJ = make([]int64, hw.NumCores())
	for i := range k.energyByPJ {
		k.energyByPJ[i] = make([]int64, hw.NumCores())
	}
	return k
}

// SetEnergyPrice attaches the power price function (watts per core at the
// live commanded operating point; power.Tracker.PriceW is the canonical
// source). Nil detaches; charged time then books no energy.
func (k *Kernel) SetEnergyPrice(fn func(core int) float64) { k.priceW = fn }

// chargeEnergy books the energy of a charged time slice: price the core's
// live power, convert to an integer picojoule quantum, and add the same
// quantum to the total and per-kind ledgers. Allocation-free (the guard's
// steady-state poll path runs through here).
func (k *Kernel) chargeEnergy(kind CostKind, core int, d sim.Duration) {
	if k.priceW == nil {
		return
	}
	// watts × picoseconds is numerically picojoules.
	pj := int64(math.Round(k.priceW(core) * float64(d)))
	k.energyPJ[core] += pj
	k.energyByPJ[kind][core] += pj
}

// SetTelemetry attaches a telemetry set. Call before starting kthreads so
// every wake is journaled; nil detaches.
func (k *Kernel) SetTelemetry(t *telemetry.Set) { k.tel = t }

// Sim exposes the kernel's time base.
func (k *Kernel) Sim() *sim.Simulator { return k.simr }

// Machine exposes the underlying hardware.
func (k *Kernel) Machine() Machine { return k.hw }

// Load inserts a module (insmod). Loading an already-loaded name fails.
func (k *Kernel) Load(m *Module) error {
	if m == nil || m.Name == "" {
		return errors.New("kernel: module must have a name")
	}
	if _, dup := k.modules[m.Name]; dup {
		return fmt.Errorf("kernel: module %q already loaded", m.Name)
	}
	if m.Init != nil {
		if err := m.Init(k); err != nil {
			return fmt.Errorf("kernel: %s init: %w", m.Name, err)
		}
	}
	k.modules[m.Name] = m
	return nil
}

// Unload removes a module (rmmod).
func (k *Kernel) Unload(name string) error {
	m, ok := k.modules[name]
	if !ok {
		return fmt.Errorf("kernel: module %q not loaded", name)
	}
	if m.Exit != nil {
		m.Exit(k)
	}
	delete(k.modules, name)
	return nil
}

// Loaded reports whether the named module is resident — the bit the paper
// proposes to include in SGX attestation reports.
func (k *Kernel) Loaded(name string) bool {
	_, ok := k.modules[name]
	return ok
}

// KThread is a periodic kernel thread pinned to a core.
type KThread struct {
	Name string
	Core int

	k      *Kernel
	ticker *sim.Ticker
	// track is the thread's span-tracer timeline name ("kernel/<name>"),
	// precomputed so the hot rdmsr/wrmsr path never builds strings.
	track string
	// msrAttrs caches the rdmsr/wrmsr span attribute map per (core, addr),
	// so steady-state MSR traffic neither formats the address nor allocates
	// a map per call. Cached maps are shared by reference with recorded
	// spans and never mutated. Kthreads are single-goroutine, so the cache
	// needs no lock.
	msrAttrs map[uint64]map[string]any
	// Ticks counts completed activations.
	Ticks uint64
	// Busy is the total CPU time this thread has charged.
	Busy sim.Duration
	// BusyBy splits Busy by cost category; the entries always sum to Busy.
	BusyBy [numCostKinds]sim.Duration
}

// StartKThread launches a periodic kernel thread pinned to core. Each tick
// charges the wakeup cost plus whatever fn charges through the thread,
// accounting it as stolen time on the pinned core.
func (k *Kernel) StartKThread(name string, core int, period sim.Duration, fn func(*KThread)) (*KThread, error) {
	if core < 0 || core >= k.hw.NumCores() {
		return nil, fmt.Errorf("kernel: kthread %q: no core %d", name, core)
	}
	if period <= 0 {
		return nil, fmt.Errorf("kernel: kthread %q: period must be positive", name)
	}
	t := &KThread{Name: name, Core: core, k: k, track: "kernel/" + name}
	// The tick span's attributes never change, so one map serves every
	// activation (shared by reference with recorded spans, never mutated).
	tickAttrs := map[string]any{"core": core, "thread": name}
	t.ticker = k.simr.Every(period, func() {
		t.Ticks++
		busyBefore := t.Busy
		t.charge(CostWake, k.Costs.KthreadWake)
		// Once the journal is full every further wake event would be
		// rejected anyway, so skip building the per-tick field map and keep
		// the steady-state tick allocation-free.
		if j := k.tel.Events(); j != nil && !j.Full() {
			j.Emit("kthread_wake", map[string]any{
				"thread": t.Name, "core": t.Core, "tick": t.Ticks,
			})
		}
		if tr := k.tel.Spans(); tr != nil {
			// The tick span's duration is the CPU time the activation
			// charged (wake cost plus whatever fn charges), not a clock
			// delta: kthread work steals time without advancing the clock.
			sp := tr.StartRootScope(t.track, "kthread_tick", tickAttrs)
			fn(t)
			sp.EndWithCost(t.Busy - busyBefore)
			return
		}
		fn(t)
	})
	k.threads = append(k.threads, t)
	return t, nil
}

// Stop halts the thread.
func (t *KThread) Stop() { t.ticker.Stop() }

// charge books d of CPU time of the given category to the thread's core,
// and the matching energy when a price function is attached.
func (t *KThread) charge(kind CostKind, d sim.Duration) {
	t.Busy += d
	t.BusyBy[kind] += d
	t.k.stolen[t.Core] += d
	t.k.stolenBy[kind][t.Core] += d
	t.k.chargeEnergy(kind, t.Core, d)
}

// msrSpanAttrs returns the cached span attribute map for (core, addr),
// building it on first use.
func (t *KThread) msrSpanAttrs(core int, addr msr.Addr) map[string]any {
	key := uint64(uint32(core))<<32 | uint64(uint32(addr))
	if a, ok := t.msrAttrs[key]; ok {
		return a
	}
	if t.msrAttrs == nil {
		t.msrAttrs = make(map[uint64]map[string]any, 4)
	}
	a := map[string]any{"core": core, "addr": fmt.Sprintf("0x%x", uint32(addr))}
	t.msrAttrs[key] = a
	return a
}

// ReadMSR performs a privileged rdmsr on the target core, charging the
// ioctl cost to the calling thread. Only an attached span tracer takes the
// traced path, which uses the by-value span Scope and the per-(core, addr)
// attribute cache, so a steady-state read is allocation-free either way.
func (t *KThread) ReadMSR(core int, addr msr.Addr) (uint64, error) {
	t.charge(CostRdmsr, t.k.Costs.Rdmsr)
	t.k.MSRReads++
	if tr := t.k.tel.Spans(); tr != nil {
		sp := tr.StartScope(t.track, "rdmsr", t.msrSpanAttrs(core, addr))
		v, err := t.k.hw.MSRFile(core).Read(addr)
		sp.EndWithCost(t.k.Costs.Rdmsr)
		return v, err
	}
	return t.k.hw.MSRFile(core).Read(addr)
}

// WriteMSRKind performs a privileged wrmsr on the target core, booking its
// cost (time and joules) under kind: the guard's corrective rewrite books
// CostIntervention instead of generic wrmsr traffic, so the ledgers answer
// "what does reacting to attacks cost" separately from "what does polling
// cost". Out-of-range kinds are booked as CostWrmsr. With a span tracer
// attached the write runs inside a "wrmsr" span, so the MSR file's
// mailbox-write span (and thus any guard intervention above it) encloses the
// register-level outcome in the causal trace.
func (t *KThread) WriteMSRKind(kind CostKind, core int, addr msr.Addr, val uint64) error {
	if kind < 0 || kind >= numCostKinds {
		kind = CostWrmsr
	}
	t.charge(kind, t.k.Costs.Wrmsr)
	t.k.MSRWrites++
	if tr := t.k.tel.Spans(); tr != nil {
		sp := tr.StartScope(t.track, "wrmsr", t.msrSpanAttrs(core, addr))
		err := t.k.hw.MSRFile(core).Write(addr, val)
		sp.EndWithCost(t.k.Costs.Wrmsr)
		return err
	}
	return t.k.hw.MSRFile(core).Write(addr, val)
}

// Module derives the owning module name from the thread name: per-core
// deployments name threads "<module>/<core>", so everything before the
// slash aggregates a module's fleet.
func (t *KThread) Module() string {
	if i := strings.IndexByte(t.Name, '/'); i >= 0 {
		return t.Name[:i]
	}
	return t.Name
}

// ReadMSRDirect is the kernel's non-thread MSR read path (module init,
// syscalls); the cost is charged to the given core.
func (k *Kernel) ReadMSRDirect(core int, addr msr.Addr) (uint64, error) {
	k.stolen[core] += k.Costs.Rdmsr
	k.stolenBy[CostRdmsr][core] += k.Costs.Rdmsr
	k.chargeEnergy(CostRdmsr, core, k.Costs.Rdmsr)
	k.MSRReads++
	return k.hw.MSRFile(core).Read(addr)
}

// StolenTime reports the cumulative CPU time kernel threads have consumed
// on core — the quantity that becomes workload slowdown in Table 2.
func (k *Kernel) StolenTime(core int) sim.Duration {
	if core < 0 || core >= len(k.stolen) {
		return 0
	}
	return k.stolen[core]
}

// StolenTimeBy reports the slice of core's stolen time attributable to one
// cost category. Summed over categories it equals StolenTime exactly.
func (k *Kernel) StolenTimeBy(kind CostKind, core int) sim.Duration {
	if kind < 0 || kind >= numCostKinds || core < 0 || core >= len(k.stolen) {
		return 0
	}
	return k.stolenBy[kind][core]
}

// EnergyPJ reports the cumulative kernel-attributed energy on core in
// integer picojoules — the exact ledger the per-kind rows sum to.
func (k *Kernel) EnergyPJ(core int) int64 {
	if core < 0 || core >= len(k.energyPJ) {
		return 0
	}
	return k.energyPJ[core]
}

// EnergyPJBy reports the slice of core's attributed energy booked to one
// cost category. Summed over categories it equals EnergyPJ exactly (both
// sides accumulate the identical rounded quanta).
func (k *Kernel) EnergyPJBy(kind CostKind, core int) int64 {
	if kind < 0 || kind >= numCostKinds || core < 0 || core >= len(k.energyPJ) {
		return 0
	}
	return k.energyByPJ[kind][core]
}

// EnergyJ is EnergyPJ in joules.
func (k *Kernel) EnergyJ(core int) float64 { return float64(k.EnergyPJ(core)) * 1e-12 }

// ResetStolenTime zeroes the time and energy accounting (between benchmark
// runs).
func (k *Kernel) ResetStolenTime() {
	for i := range k.stolen {
		k.stolen[i] = 0
	}
	for kind := range k.stolenBy {
		for i := range k.stolenBy[kind] {
			k.stolenBy[kind][i] = 0
		}
	}
	for i := range k.energyPJ {
		k.energyPJ[i] = 0
	}
	for kind := range k.energyByPJ {
		for i := range k.energyByPJ[kind] {
			k.energyByPJ[kind][i] = 0
		}
	}
}

// Collect publishes the kernel's accounting into the registry as gauges:
// per-core stolen time split by cost category, per-thread busy time and
// tick counts (labeled by owning module), and the global MSR operation
// counts. Call it just before taking a snapshot; values are cumulative
// since boot (or the last ResetStolenTime).
func (k *Kernel) Collect(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for core := 0; core < k.hw.NumCores(); core++ {
		c := fmt.Sprintf("%d", core)
		reg.Gauge("kernel_stolen_seconds", "CPU time consumed by kernel threads per core",
			telemetry.Labels{"core": c}).Set(telemetry.Seconds(k.stolen[core]))
		for kind := CostKind(0); kind < numCostKinds; kind++ {
			reg.Gauge("kernel_stolen_attributed_seconds",
				"per-core stolen time attributed to one kernel primitive; kinds sum to kernel_stolen_seconds",
				telemetry.Labels{"core": c, "kind": kind.String()}).
				Set(telemetry.Seconds(k.stolenBy[kind][core]))
			reg.Gauge("power_energy_joules_total",
				"per-core kernel-attributed energy by primitive; kinds sum to the core's attributed total exactly",
				telemetry.Labels{"core": c, "kind": kind.String()}).
				Set(float64(k.energyByPJ[kind][core]) * 1e-12)
		}
	}
	// Threads sorted by (name, core) so repeated Collect calls create
	// series in a stable order.
	threads := append([]*KThread(nil), k.threads...)
	sort.Slice(threads, func(i, j int) bool {
		if threads[i].Name != threads[j].Name {
			return threads[i].Name < threads[j].Name
		}
		return threads[i].Core < threads[j].Core
	})
	for _, t := range threads {
		lbl := telemetry.Labels{"thread": t.Name, "core": fmt.Sprintf("%d", t.Core), "module": t.Module()}
		reg.Gauge("kernel_kthread_busy_seconds", "CPU time charged by one kernel thread", lbl).
			Set(telemetry.Seconds(t.Busy))
		reg.Gauge("kernel_kthread_ticks", "completed kthread activations", lbl).
			Set(float64(t.Ticks))
		for kind := CostKind(0); kind < numCostKinds; kind++ {
			l := telemetry.Labels{"thread": t.Name, "core": fmt.Sprintf("%d", t.Core),
				"module": t.Module(), "kind": kind.String()}
			reg.Gauge("kernel_kthread_attributed_seconds",
				"per-thread busy time attributed to one kernel primitive; kinds sum to kernel_kthread_busy_seconds", l).
				Set(telemetry.Seconds(t.BusyBy[kind]))
		}
	}
	reg.Gauge("kernel_msr_reads", "privileged rdmsr operations", nil).Set(float64(k.MSRReads))
	reg.Gauge("kernel_msr_writes", "privileged wrmsr operations", nil).Set(float64(k.MSRWrites))
}
