package cpu

import "fmt"

// Topology describes the platform's SMT layout: the Kaby Lake R and Comet
// Lake models are 4C/8T. SGX attestation reports include the HT-enabled
// flag, the paper's precedent for attesting the guard module.
type Topology struct {
	physical int
	smt      int
}

// Topology derives the SMT layout from the model (Threads per Cores).
func (p *Platform) Topology() (*Topology, error) {
	if p.Spec.Cores <= 0 || p.Spec.Threads < p.Spec.Cores {
		return nil, fmt.Errorf("cpu: bad topology %dC/%dT", p.Spec.Cores, p.Spec.Threads)
	}
	if p.Spec.Threads%p.Spec.Cores != 0 {
		return nil, fmt.Errorf("cpu: non-uniform SMT %dC/%dT", p.Spec.Cores, p.Spec.Threads)
	}
	return &Topology{physical: p.Spec.Cores, smt: p.Spec.Threads / p.Spec.Cores}, nil
}

// SMT returns the threads-per-core factor (1 = no hyperthreading).
func (t *Topology) SMT() int { return t.smt }
