// Package victim provides the fault-target computations used throughout the
// reproduction:
//
//   - IMulLoop — the paper's EXECUTE thread (Sec. 4.2): a tight loop of
//     imul instructions with varying 64-bit operands whose outputs are
//     compared against the known-correct results;
//   - CRTSigner (rsa.go) — an RSA-CRT signer whose modular multiplications
//     execute on a simulated core, so undervolting yields genuinely faulty
//     signatures that the Boneh–DeMillo–Lipton attack factors N from
//     (the Plundervolt end-to-end exploit).
package victim

import (
	"errors"
	"fmt"

	"plugvolt/internal/cpu"
)

// IMulLoop is the EXECUTE thread: n iterations of imul with varying
// operands, detecting faults by comparison with the architectural result.
// It implements the sgx Program interface (Step).
type IMulLoop struct {
	core *cpu.Core
	n    int
	i    int
	// Faults counts iterations whose result differed from the correct
	// product — the paper's fault-observation signal.
	Faults int
}

// NewIMulLoop builds a loop of n iterations on the core.
func NewIMulLoop(core *cpu.Core, n int) (*IMulLoop, error) {
	if core == nil {
		return nil, errors.New("victim: nil core")
	}
	if n <= 0 {
		return nil, fmt.Errorf("victim: loop length %d", n)
	}
	return &IMulLoop{core: core, n: n}, nil
}

// operands derives the iteration's multiplier pair; mixing ensures varied
// bit patterns as in the paper's "varying 64-bit operands".
func (l *IMulLoop) operands(i int) (uint64, uint64) {
	x := uint64(i)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	y := (uint64(i) ^ 0xD1B54A32D192ED03) * 0x94D049BB133111EB
	return x | 1, y | 1
}

// Step executes one imul iteration. It satisfies sgx.Program.
func (l *IMulLoop) Step() (bool, error) {
	if l.i >= l.n {
		return true, nil
	}
	a, b := l.operands(l.i)
	got, _, err := l.core.IMul(a, b)
	if err != nil {
		return false, err
	}
	if got != a*b {
		l.Faults++
	}
	l.i++
	return l.i >= l.n, nil
}

// RunBatch executes the remaining iterations through the core's batched
// binomial fault sampler, the statistics of stepping through them at
// sweep-compatible speed. The loop is marked complete afterwards.
func (l *IMulLoop) RunBatch() (cpu.BatchResult, error) {
	remaining := l.n - l.i
	res, err := l.core.RunBatch(cpu.ClassIMul, remaining)
	l.Faults += res.Faults
	l.i = l.n
	return res, err
}
