package victim

// IMulLoop accessors only tests use: campaigns run a loop with RunBatch or
// hand it to an enclave or stepper, which call Step.

// Pos returns the next iteration index.
func (l *IMulLoop) Pos() int { return l.i }

// Len returns the configured iteration count.
func (l *IMulLoop) Len() int { return l.n }

// Run executes the remaining iterations step by step (per-instruction fault
// sampling).
func (l *IMulLoop) Run() (faults int, err error) {
	for {
		done, err := l.Step()
		if err != nil {
			return l.Faults, err
		}
		if done {
			return l.Faults, nil
		}
	}
}
