package kernel

import "plugvolt/internal/msr"

// WriteMSR is WriteMSRKind booked as generic wrmsr traffic. Only tests
// write through it: the guard names the kind of every write it makes.
func (t *KThread) WriteMSR(core int, addr msr.Addr, val uint64) error {
	return t.WriteMSRKind(CostWrmsr, core, addr, val)
}
