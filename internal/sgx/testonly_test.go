package sgx

// Accessors only tests use: attestation reports carry the enclave identity
// callers need, and SA-00289 only asks AnyRunning.

// ID returns the enclave id.
func (e *Enclave) ID() uint64 { return e.id }

// Name returns the enclave name.
func (e *Enclave) Name() string { return e.name }

// Core returns the core the enclave is pinned to.
func (e *Enclave) Core() int { return e.core }

// Count returns the number of live enclaves.
func (r *Registry) Count() int { return len(r.enclaves) }
