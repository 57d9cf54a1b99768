package span

// Accessors only tests use: instrumented code ends every scope with
// EndWithCost and never reads an ID back from a scope or an Active.

// ID reports the active span's ID (zero on nil).
func (a *Active) ID() ID {
	if a == nil {
		return 0
	}
	return a.s.span.ID
}

// ID reports the scope's span ID (zero on the zero Scope and on a drop-only
// scope).
func (s *Scope) ID() ID { return s.span.ID }

// End closes the scope with a virtual-clock duration, like (*Active).End.
func (s *Scope) End() {
	if s.t == nil || s.ended {
		return
	}
	s.finish(s.t.now() - s.span.Start)
}
