// Package defense implements the paper's countermeasure (the polling kernel
// module), its two deeper-deployment variants (microcode write-guard and
// hardware clamp MSR, Sec. 5), and the two prior-work baselines the paper
// compares against:
//
//   - access control (Intel SA-00289 [12]): the OC mailbox is rejected
//     while any SGX enclave exists, and the lockdown state is attested —
//     blocking *benign* DVFS along with the attack;
//   - deflection (Minefield [15]): the compiler interleaves
//     fault-magnet trap instructions with enclave code so a DVFS fault is
//     overwhelmingly likely to hit a trap first — sound only if the
//     adversary cannot single-step the enclave.
//
// All countermeasures install against the same Env, so the evaluation
// matrix (experiment E2) exercises them uniformly.
package defense

import (
	"errors"
	"fmt"

	"plugvolt/internal/core"
	"plugvolt/internal/cpu"
	"plugvolt/internal/flight"
	"plugvolt/internal/kernel"
	"plugvolt/internal/msr"
	"plugvolt/internal/sgx"
	"plugvolt/internal/telemetry"
)

// Env is the machine a countermeasure deploys onto.
type Env struct {
	Platform *cpu.Platform
	Kernel   *kernel.Kernel
	Registry *sgx.Registry
	// Telemetry, when set, receives attack/defense instrumentation (mailbox
	// write counters, fault events). Optional: a nil set disables it and
	// every instrument degrades to a no-op.
	Telemetry *telemetry.Set
	// Flight, when set, is the machine's flight recorder: attack campaigns
	// fire incident triggers into it at every observed victim fault and
	// machine crash. Optional; nil disables capture.
	Flight *flight.Recorder
}

// Validate checks the env is complete.
func (e *Env) Validate() error {
	if e == nil || e.Platform == nil || e.Kernel == nil || e.Registry == nil {
		return errors.New("defense: env needs platform, kernel and registry")
	}
	return nil
}

// Countermeasure is a deployable DVFS-fault defense.
type Countermeasure interface {
	// Name identifies the defense in result tables.
	Name() string
	// Install deploys onto the environment.
	Install(env *Env) error
	// Uninstall reverts the deployment.
	Uninstall(env *Env) error
	// AllowsBenignDVFS reports whether a benign process can still apply a
	// *safe* undervolt while the defense is active and an enclave exists —
	// the paper's availability criterion.
	AllowsBenignDVFS() bool
}

// None is the undefended baseline.
type None struct{}

// Name implements Countermeasure.
func (None) Name() string { return "none" }

// Install implements Countermeasure.
func (None) Install(env *Env) error { return env.Validate() }

// Uninstall implements Countermeasure.
func (None) Uninstall(*Env) error { return nil }

// AllowsBenignDVFS implements Countermeasure.
func (None) AllowsBenignDVFS() bool { return true }

// AccessControl models Intel's SA-00289 response: while any enclave exists,
// writes to the OC mailbox general-protection fault, and the lockdown is
// visible in attestation (OCMDisabled).
type AccessControl struct {
	installed bool
	hookIDs   []int
}

// Name implements Countermeasure.
func (*AccessControl) Name() string { return "access-control (SA-00289)" }

// Install implements Countermeasure.
func (a *AccessControl) Install(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if a.installed {
		return errors.New("defense: access control already installed")
	}
	reg := env.Registry
	a.hookIDs = a.hookIDs[:0]
	for i := 0; i < env.Platform.NumCores(); i++ {
		f := env.Platform.MSRFile(i)
		id := f.AddWriteHook(msr.OCMailbox, func(_ *msr.File, old, v uint64) (uint64, error) {
			if reg.AnyRunning() {
				return 0, &msr.GPFault{Addr: msr.OCMailbox, Op: "wrmsr",
					Why: "OC mailbox disabled while SGX is in use (SA-00289)"}
			}
			return v, nil
		})
		a.hookIDs = append(a.hookIDs, id)
	}
	env.Registry.Features.OCMDisabled = true
	a.installed = true
	return nil
}

// Uninstall implements Countermeasure.
func (a *AccessControl) Uninstall(env *Env) error {
	if !a.installed {
		return nil
	}
	for i, id := range a.hookIDs {
		env.Platform.MSRFile(i).RemoveWriteHook(msr.OCMailbox, id)
	}
	a.hookIDs = nil
	env.Registry.Features.OCMDisabled = false
	a.installed = false
	return nil
}

// AllowsBenignDVFS implements Countermeasure: the lockdown rejects *all*
// mailbox writes while an enclave exists, benign or not.
func (*AccessControl) AllowsBenignDVFS() bool { return false }

// Polling is the paper's countermeasure packaged as a Countermeasure: the
// Algorithm 3 kernel module plus the attestation-report extension.
type Polling struct {
	Guard *core.Guard
}

// NewPolling builds the polling defense from a characterized unsafe set.
func NewPolling(unsafe *core.UnsafeSet, busMHz int, cfg core.GuardConfig) (*Polling, error) {
	g, err := core.NewGuard(unsafe, busMHz, cfg)
	if err != nil {
		return nil, err
	}
	return &Polling{Guard: g}, nil
}

// Name implements Countermeasure.
func (*Polling) Name() string { return "polling (this work)" }

// Install implements Countermeasure: insmod + attestation wiring.
func (p *Polling) Install(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if err := env.Kernel.Load(p.Guard.Module()); err != nil {
		return err
	}
	// The paper swaps the OCM flag for the module-loaded flag in reports.
	k := env.Kernel
	env.Registry.Features.GuardModuleLoaded = func() bool { return k.Loaded(core.ModuleName) }
	return nil
}

// Uninstall implements Countermeasure (rmmod; the attestation hook stays
// and now reports false — which is the point).
func (p *Polling) Uninstall(env *Env) error {
	if !env.Kernel.Loaded(core.ModuleName) {
		return nil
	}
	return env.Kernel.Unload(core.ModuleName)
}

// AllowsBenignDVFS implements Countermeasure: safe-region undervolts are
// untouched by Algorithm 3.
func (*Polling) AllowsBenignDVFS() bool { return true }

// WriteGuard is the Sec. 5 deployment: a hook on every core's wrmsr 0x150
// holds core-plane offsets to the maximal safe state, with one of two
// outcomes for a deeper write. Sec. 5.1's microcode guard silently ignores
// it ("this write-ignore behaviour is implemented upon several other
// MSRs"). Sec. 5.2's clamp MSR programs a new MSR_VOLTAGE_OFFSET_LIMIT
// (modelled at 0x154) with the maximal safe state and *clamps* the write
// to it — the DRAM_MIN_PWR pattern from MSR_DRAM_POWER_INFO.
type WriteGuard struct {
	// MaxSafeOffsetMV is the maximal safe state from characterization.
	MaxSafeOffsetMV int
	// Clamp selects Sec. 5.2's clamp MSR; false is Sec. 5.1's
	// write-ignore.
	Clamp     bool
	installed bool
	hookIDs   []int
	// Held counts writes the guard ignored or clamped.
	Held uint64
}

// Name implements Countermeasure.
func (w *WriteGuard) Name() string {
	if w.Clamp {
		return "clamp MSR (MSR_VOLTAGE_OFFSET_LIMIT)"
	}
	return "microcode write-ignore"
}

// Install implements Countermeasure.
func (w *WriteGuard) Install(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if w.MaxSafeOffsetMV > 0 {
		return fmt.Errorf("defense: maximal safe offset %d must be <= 0", w.MaxSafeOffsetMV)
	}
	if w.installed {
		return fmt.Errorf("defense: %s already installed", w.Name())
	}
	w.hookIDs = w.hookIDs[:0]
	for i := 0; i < env.Platform.NumCores(); i++ {
		f := env.Platform.MSRFile(i)
		if w.Clamp {
			// Program the limit register (read-only to software in
			// spirit; vendors would fuse it).
			f.Poke(msr.VoltageOffsetLimit, uint64(int64(w.MaxSafeOffsetMV))&0xFFFF)
		}
		id := f.AddWriteHook(msr.OCMailbox, func(_ *msr.File, old, v uint64) (uint64, error) {
			d := msr.DecodeVoltageOffset(v)
			if !d.Busy || !d.Write || d.Plane != msr.PlaneCore || d.OffsetMV >= w.MaxSafeOffsetMV {
				return v, nil
			}
			w.Held++
			if w.Clamp {
				return msr.EncodeVoltageOffset(w.MaxSafeOffsetMV, d.Plane), nil
			}
			return old, nil // write-ignore: wrmsr succeeds, state unchanged
		})
		w.hookIDs = append(w.hookIDs, id)
	}
	w.installed = true
	return nil
}

// Uninstall implements Countermeasure.
func (w *WriteGuard) Uninstall(env *Env) error {
	if !w.installed {
		return nil
	}
	for i, id := range w.hookIDs {
		env.Platform.MSRFile(i).RemoveWriteHook(msr.OCMailbox, id)
	}
	w.hookIDs = nil
	w.installed = false
	return nil
}

// AllowsBenignDVFS implements Countermeasure: undervolts within the maximal
// safe state pass through either way.
func (*WriteGuard) AllowsBenignDVFS() bool { return true }
