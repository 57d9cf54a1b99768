package defense

import (
	"errors"
	"fmt"

	"plugvolt/internal/cpu"
	"plugvolt/internal/sgx"
)

// ErrTrapped is returned when a Minefield trap instruction faults: the
// enclave detects the ongoing DVFS attack and aborts before the adversary
// can use any corrupted result.
var ErrTrapped = errors.New("defense: minefield trap faulted — enclave aborted")

// Minefield models the compiler-based deflection defense of Kogler et al.
// (USENIX Security '22): the compiler interleaves highly fault-susceptible
// dummy instructions ("traps") with the protected code. Because the traps
// use the deepest timing paths (multiplications), an undervolt that could
// fault real code overwhelmingly faults a trap first, converting the attack
// into a detected abort.
//
// Its documented blind spot — the reason the paper refuses to inherit its
// threat model — is instruction isolation: an SGX-Step adversary undervolts
// only while the *target* instruction executes and restores safe voltage
// before any trap runs, so no trap ever faults. TrappedProgram exposes
// exactly this surface: traps run as separate steps that a single-stepping
// attacker can distinguish from payload steps.
type Minefield struct {
	// Density is the number of trap instructions inserted around every
	// payload instruction (Minefield's protection level; the published
	// evaluation uses up to 3 traps per instruction).
	Density int
}

// Instrument wraps an enclave program with trap steps. The returned program
// is what the enclave actually runs.
func (m *Minefield) Instrument(inner sgx.Program, core *cpu.Core) (*TrappedProgram, error) {
	if m.Density <= 0 {
		return nil, fmt.Errorf("defense: minefield density %d", m.Density)
	}
	if inner == nil || core == nil {
		return nil, errors.New("defense: minefield needs a program and a core")
	}
	return &TrappedProgram{inner: inner, core: core, density: m.Density}, nil
}

// TrappedProgram interleaves trap instructions with the inner program's
// steps. Step indices alternate: for density d, steps 0..d-1 are traps,
// step d is payload, and so on.
type TrappedProgram struct {
	inner   sgx.Program
	core    *cpu.Core
	density int

	phase int // 0..density-1 = trap, density = payload
	// Traps counts executed trap instructions; Detected latches when one
	// faults.
	Traps    uint64
	Detected bool
}

// trapOperands are chosen so the trap multiply exercises full-width carry
// chains (maximum path sensitization), as Minefield's generated traps do.
const (
	trapOpA uint64 = 0xFFFF_FFFF_FFFF_FFFB
	trapOpB uint64 = 0xFFFF_FFFF_FFFF_FFC5
)

// NextIsTrap reports whether the next Step executes a trap instruction —
// the information a single-stepping adversary reconstructs from the
// instruction stream layout.
func (t *TrappedProgram) NextIsTrap() bool { return t.phase < t.density }

// Step implements sgx.Program.
func (t *TrappedProgram) Step() (bool, error) {
	if t.Detected {
		return false, ErrTrapped
	}
	if t.phase < t.density {
		t.phase++
		t.Traps++
		got, faulted, err := t.core.IMul(trapOpA, trapOpB)
		if err != nil {
			return false, err
		}
		var a, b uint64 = trapOpA, trapOpB
		if faulted || got != a*b {
			t.Detected = true
			return false, ErrTrapped
		}
		return false, nil
	}
	t.phase = 0
	return t.inner.Step()
}
