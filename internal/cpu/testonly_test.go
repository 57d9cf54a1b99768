package cpu

// Accessors only tests use: the instruction paths report a crash as
// ErrCrashed, and nothing else reads the crash flags.

// Crashed reports whether this core has machine-checked.
func (c *Core) Crashed() bool { return c.crashed }

// Crashed reports whether any core has machine-checked.
func (p *Platform) Crashed() bool {
	for _, c := range p.cores {
		if c.crashed {
			return true
		}
	}
	return false
}
